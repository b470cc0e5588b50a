// Command-line parsing for the sweep driver (examples/csim_cli): the row
// flags fill a RunSpec, checked against its FieldRange bounds, and the
// observability, contention-model, crash-safety and shard flags are one
// checked group with one per-row observer factory.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/machine.hpp"
#include "src/report/experiment.hpp"
#include "src/report/fault_injection.hpp"
#include "src/report/run_spec.hpp"
#include "src/report/shard.hpp"

namespace csim::cli {

/// Checked numeric parse of a plain decimal (digits only, no sign): throws
/// ConfigError naming `flag` on anything else or on overflow.
std::uint64_t parse_u64(const std::string& flag, const std::string& val);

/// Checked floating-point parse (same contract as parse_u64).
double parse_f64(const std::string& flag, const std::string& val);

/// Parses a --shard spec "k/N" (0 <= k < N <= kMaxShards, both through
/// parse_u64). Throws ConfigError otherwise.
[[nodiscard]] ShardSpec parse_shard(const std::string& spec);

/// Tries to consume argv[i] as one of the row flags, advancing `i` past any
/// value it takes:
///   --app NAME  --scale S  --procs N  --ppc A,B,...  --cache KB  --assoc N
///   --line B  --style S  --quantum N  --hit-costs
/// Values are checked against the app list, the scale and style names and
/// the FieldRange bounds. Returns false if the flag is not a row flag;
/// throws ConfigError on a missing or invalid value.
bool consume_run_flag(RunSpec& spec, int argc, char** argv, int& i);

/// The observability, contention-model and crash-safety flags:
///   --trace-out FILE      Chrome trace-event timeline per row
///   --metrics-interval N  sample interval metrics every N cycles (N > 0)
///   --metrics-out BASE    interval metrics path base (default "metrics")
///   --manifest FILE       run manifest (config, git, digests)
///   --contention          enable the queued contention model
///   --contention-busy B,D,N   override bank/directory/NIC busy cycles
///   --journal-dir DIR     write-ahead result journal (crash-safe sweeps)
///   --resume              skip rows already completed in the journal
///   --row-deadline S      per-row host wall-clock budget, seconds
///   --retries N           retry retryable row failures up to N (<= 16) times
///   --fault-plan FILE     deterministic fault injection plan (testing)
///   --sample W,D,P        interval sampling: warm W refs, then measure D
///                         refs every P refs (P 0 = one interval)
///   --ckpt-dir DIR        warm-state checkpoints (requires --sample)
///   --warm-quantum N      warming runahead quantum (requires --sample)
///   --shard k/N           run only shard k of an N-way digest partition
///   --shard-out BASE      write BASE.csv/BASE.json merge artifacts
struct ObsArgs {
  std::string trace_out;
  Cycles metrics_interval = 0;
  std::string metrics_out = "metrics";
  std::string manifest_out;
  ContentionSpec contention{};  ///< .enabled set by --contention
  SamplingSpec sampling{};      ///< --sample, --ckpt-dir, --warm-quantum
  bool warm_quantum_set = false;  ///< --warm-quantum given (needs --sample)
  SweepPolicy policy{};         ///< journal / deadline / retry knobs
  /// Owns the parsed --fault-plan; policy.faults points at it (apply()).
  std::shared_ptr<const FaultPlan> fault_plan;
  /// --shard k/N: run only the rows whose config digest maps to shard k of
  /// N (docs/ROBUSTNESS.md §7). shard_set distinguishes an explicit --shard
  /// 0/1 (a trivial but valid single-shard spec) from no flag at all.
  ShardSpec shard{};
  bool shard_set = false;
  /// --shard-out BASE: write BASE.csv + BASE.json shard artifacts for
  /// tools/csim_merge (requires --shard).
  std::string shard_out;

  /// The usage text block for these flags (indented two spaces per line).
  [[nodiscard]] static const char* usage();

  /// Tries to consume argv[i] as one of this group's flags, advancing `i`
  /// past any value it takes. Returns false if the flag is not ours; throws
  /// ConfigError on a missing or invalid value.
  bool consume(int argc, char** argv, int& i);

  /// Installs the crash-safety policy on a sweep request (validating flag
  /// combinations: --resume requires --journal-dir). The ObsArgs must
  /// outlive the sweep — it owns the fault plan the policy points into.
  void apply(SweepRequest& req) const;

  /// The standard per-row observer factory for a sweep of `rows` rows
  /// (obs::row_path naming), or null when no observability flag was given.
  [[nodiscard]] ObserverFactory observer_factory(std::size_t rows) const;
};

}  // namespace csim::cli
