// Experiment matrix runner: sweeps machine configurations over applications
// and collects SimResults for the figure/table generators.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/apps/app.hpp"
#include "src/core/simulator.hpp"

namespace csim {

class Observer;
class FaultPlan;

/// The paper's fixed experimental frame: 64 processors, 64-byte lines,
/// fully associative LRU cluster caches, Table 1 latencies.
MachineSpec paper_machine(unsigned procs_per_cluster,
                            std::size_t cache_bytes_per_proc);

/// Builds one Observer per sweep row (src/obs/observer.hpp); may return null
/// to leave that row unobserved. Called with the row's configuration and its
/// index in the sweep. Each row gets its own instance because rows run
/// concurrently; the runner keeps it alive for the row's whole simulation.
using ObserverFactory = std::function<std::unique_ptr<Observer>(
    const MachineSpec& cfg, std::size_t index)>;

/// Crash-safety and isolation policy for run_sweep (docs/ROBUSTNESS.md §6).
/// The default-constructed policy is a no-op: no journal, no deadlines, no
/// retries, no faults — run_sweep behaves exactly as before (pinned by the
/// golden digest suite).
struct SweepPolicy {
  /// Directory of the write-ahead result journal. Every completed row is
  /// appended as a digest-keyed record (src/report/journal.hpp) before the
  /// sweep moves on, so a killed sweep loses at most the rows in flight.
  /// Empty = journaling disabled (zero overhead).
  std::string journal_dir;
  /// With a journal_dir: read each row's record by its digest first, verify
  /// it, and skip re-simulating any row whose record checks out.
  bool resume = false;
  /// Per-row host wall-clock budget in seconds; rows that exceed it come
  /// back as error_kind == "timeout" rows. 0 = unlimited. Host time cannot
  /// perturb simulation results — only whether a row finishes.
  double row_deadline_seconds = 0;
  /// Extra attempts granted to rows that fail with a *retryable* SimError
  /// kind (is_retryable: Timeout, Transient). Deterministic failures —
  /// deadlock, protocol, config, app — are never retried.
  unsigned max_retries = 0;
  /// Base of the exponential backoff between retry attempts, milliseconds
  /// (attempt n sleeps backoff_ms << (n - 1)).
  unsigned backoff_ms = 10;
  /// Deterministic fault injection (tests and the --fault-plan flag); the
  /// plan must outlive the sweep. Null = no faults.
  const FaultPlan* faults = nullptr;
};

/// Declarative description of one sweep: a fresh app per row (programs are
/// stateful), the machine spec of every row, and optional per-row
/// observability. The single entry point every driver builds.
struct SweepRequest {
  std::function<std::unique_ptr<Program>()> make_app;
  std::vector<MachineSpec> configs;
  ObserverFactory make_observer{};  ///< optional; null = unobserved rows
  SweepPolicy policy{};             ///< crash-safety knobs; default = off
};

/// How one sweep row reached its SimResult.
struct RowOutcome {
  enum class Status : std::uint8_t {
    Ok,        ///< completed (possibly after retries, possibly from journal)
    Failed,    ///< threw a non-retryable error or exhausted its retries
    TimedOut,  ///< exceeded SweepPolicy::row_deadline_seconds
  };
  Status status = Status::Ok;
  /// Simulation attempts consumed; a journal hit replays the attempt count
  /// recorded when the row originally ran (keeps resumed CSVs bit-exact).
  unsigned attempts = 1;
  bool from_journal = false;  ///< satisfied from the journal, not simulated
  /// config_digest(cfg, app, scale) keying the journal; 0 when the sweep ran
  /// without journaling or fault injection (identity never computed).
  std::uint64_t config_digest = 0;
};

[[nodiscard]] std::string_view to_string(RowOutcome::Status s) noexcept;

/// Outcome of run_sweep: one SimResult per requested config, request order.
struct SweepResult {
  std::vector<SimResult> rows;
  std::vector<RowOutcome> outcomes;  ///< parallel to rows
  /// Diagnostics from journal loading/writing: corrupt records skipped,
  /// digest mismatches re-simulated, append failures. Empty on a clean run.
  std::vector<std::string> journal_warnings;

  [[nodiscard]] std::size_t failures() const noexcept;
  [[nodiscard]] bool all_ok() const noexcept { return failures() == 0; }

  // The row collection is the payload; iterate it directly.
  [[nodiscard]] auto begin() const noexcept { return rows.begin(); }
  [[nodiscard]] auto end() const noexcept { return rows.end(); }
  [[nodiscard]] std::size_t size() const noexcept { return rows.size(); }
};

/// Width of the sweep's row worker pool given `rows` runnable rows on a host
/// with `host_cores` cores: one single-threaded row per core. Always >= 1
/// (the calling thread), never wider than `rows`.
[[nodiscard]] unsigned sweep_pool_width(std::size_t rows,
                                        unsigned host_cores) noexcept;

/// Parallel map over the request's configurations: simulates a fresh app per
/// configuration concurrently on a worker pool bounded at
/// hardware_concurrency() (sweep_pool_width), preserving input order. Each
/// simulation is deterministic, so results are identical to a serial sweep.
///
/// Degrades gracefully: a configuration whose run throws (bad config,
/// deadlock, livelock, protocol violation, app bug) does not abort the
/// sweep — its slot comes back with ok == false and the SimError
/// diagnostics in error_kind / error, while every other configuration's
/// results are returned normally. Render failures with write_failures().
SweepResult run_sweep(const SweepRequest& req);

/// Runs `make_app()` fresh for every cluster size on the given per-processor
/// cache size (0 = infinite) under the paper frame. Returns results in
/// cluster-size order (a thin wrapper over run_sweep).
std::vector<SimResult> sweep_clusters(
    const std::function<std::unique_ptr<Program>()>& make_app,
    std::size_t cache_bytes_per_proc,
    const std::vector<unsigned>& cluster_sizes = {1, 2, 4, 8});

/// Standard bench command line: `--paper`/`--test` switch problem sizes,
/// `--procs N` overrides the processor count.
struct BenchOptions {
  ProblemScale scale = ProblemScale::Default;
  unsigned num_procs = 64;

  /// Parses, printing a usage message and exiting with status 2 on bad
  /// input (unknown flags, non-numeric/zero/out-of-range --procs).
  static BenchOptions parse(int argc, char** argv);

  /// Like parse() but throws ConfigError instead of exiting (testable core).
  static BenchOptions parse_checked(int argc, char** argv);
};

/// The sweep CSV: a header, then one line per ok row (failed rows are
/// skipped; see write_failures) with the app, machine, time buckets, miss
/// counters, sampling provenance, host throughput and the row's
/// `status,attempts`. Journal provenance (from_journal) is deliberately
/// excluded so a resumed sweep's CSV is byte-identical to an uninterrupted
/// run's (the crash-safety acceptance invariant).
void write_csv(std::ostream& os, const SweepResult& sweep);

/// Human-readable per-row outcome table (digest, status, attempts, journal
/// provenance) followed by any journal warnings. Returns the number of rows
/// that did not complete ok.
std::size_t write_outcomes(std::ostream& os, const SweepResult& sweep);

/// Renders the failure table for every ok == false result (app, config
/// label, error kind, full diagnostic). Returns the number of failures, 0
/// when the sweep was clean (then nothing is written).
std::size_t write_failures(std::ostream& os,
                           const std::vector<SimResult>& results);

}  // namespace csim
