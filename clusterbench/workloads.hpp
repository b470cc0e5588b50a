// The benchmark's workloads and the three kinds of pass it runs over them.
//
// A workload is a fixed list of rows (app x organization x cluster size, 64
// processors, 16 KB per processor, Table 1 latencies, caches empty at the
// start of every row). A pass runs every row once, one row at a time on the
// calling thread (a closed loop: the next row starts when the previous one
// finishes):
//   run_pass         untraced, through run_sweep — the timed passes;
//   run_traced_pass  Simulator::run with a LayerProbe and a CoreProbe;
//   run_floor_pass   Simulator::run against AlwaysHitMemory.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "clusterbench/probes.hpp"
#include "src/core/simulator.hpp"

namespace clusterbench {

using AppMaker = std::function<std::unique_ptr<csim::Program>()>;

struct Row {
  std::string label;  // e.g. "shared_memory/ppc8/sampled/ff"
  csim::MachineSpec spec;
};

struct Workload {
  std::string name;
  /// Builds a fresh, seeded instance of the workload's program.
  AppMaker make_app;
  /// Rows in pass order, grouped by run_sweep call. The rows of one group of
  /// a sampled workload share a warm-state checkpoint: the first warms and
  /// saves it, the second fast-forwards from it.
  std::vector<std::vector<Row>> groups;
  /// Checkpoint directory of the sampled rows, emptied before every pass;
  /// empty for unsampled workloads.
  std::string checkpoint_dir;
  /// Sampled workloads: the full-detail result of each group's configuration,
  /// simulated once while the workload is built, outside the timed passes.
  std::vector<csim::SimResult> references;
};

/// What a pass keeps of one row.
struct RowRecord {
  std::string label;
  bool ok = false;
  std::string error;
  std::uint64_t digest = 0;  // obs::result_digest, when ok
  csim::Cycles wall_time = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t refs = 0;  // totals.reads + totals.writes
  std::uint64_t events = 0;
  double host_seconds = 0;
};

struct Pass {
  double wall_s = 0;
  std::vector<RowRecord> rows;
  LayerCounts layers;  // traced passes only

  [[nodiscard]] std::uint64_t refs() const;
  [[nodiscard]] std::uint64_t events() const;
  [[nodiscard]] double row_host_seconds() const;
  [[nodiscard]] unsigned failed() const;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds workload `name` with every app seeded from `seed` (0 = the apps'
/// built-in seeds). `test_scale` shrinks every row to the Test problem size
/// (the self-test). `scratch_dir` holds the sampled rows' checkpoints.
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, bool test_scale,
                                     const std::string& scratch_dir);

/// Digest recorded for `row` of `workload` at seed 0, if any.
[[nodiscard]] std::optional<std::uint64_t> expected_digest(
    const std::string& workload, const std::string& row);

[[nodiscard]] Pass run_pass(const Workload& w);
[[nodiscard]] Pass run_traced_pass(const Workload& w);
[[nodiscard]] Pass run_floor_pass(const Workload& w);

/// Host seconds every row of a pass spends before it simulates: run_sweep's
/// per-row work and Simulator::run's preamble up to Observer::on_run_begin
/// (program construction and set-up, memory system, processors, checkpoint
/// load, sampler). Each row is stopped there. Run it after a pass, whose
/// checkpoints the fast-forward rows load.
[[nodiscard]] double measure_setup(const Workload& w);

}  // namespace clusterbench
