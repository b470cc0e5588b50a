#include "clusterbench/workloads.hpp"

#include <exception>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "src/apps/barnes.hpp"
#include "src/apps/fmm.hpp"
#include "src/apps/mp3d.hpp"
#include "src/apps/ocean.hpp"
#include "src/apps/prng.hpp"
#include "src/obs/manifest.hpp"
#include "src/report/experiment.hpp"

namespace clusterbench {
namespace {

using csim::ClusterStyle;
using csim::MachineSpec;
using csim::MachineSpecBuilder;
using csim::ProblemScale;
using csim::SimResult;

/// An app's seed under workload seed `seed`: the built-in seed for 0, else
/// the built-in seed mixed with the workload seed.
std::uint64_t mix_seed(std::uint64_t builtin, std::uint64_t seed) {
  if (seed == 0) return builtin;
  std::uint64_t state = seed;
  return builtin ^ csim::splitmix64(state);
}

template <typename App, typename Config>
AppMaker seeded(ProblemScale scale, std::uint64_t seed) {
  Config cfg = Config::preset(scale);
  cfg.seed = mix_seed(cfg.seed, seed);
  return [cfg, scale]() -> std::unique_ptr<csim::Program> {
    auto app = std::make_unique<App>(cfg);
    app->set_scale(scale);
    return app;
  };
}

MachineSpec machine(ClusterStyle style, unsigned ppc) {
  return MachineSpecBuilder{}
      .procs(64)
      .procs_per_cluster(ppc)
      .style(style)
      .cache_kb(16)
      .build();
}

std::string label(ClusterStyle style, unsigned ppc) {
  return std::string(style == ClusterStyle::SharedCache ? "shared_cache"
                                                        : "shared_memory") +
         "/ppc" + std::to_string(ppc);
}

Row row(ClusterStyle style, unsigned ppc) {
  return Row{label(style, ppc), machine(style, ppc)};
}

/// Sampling as in perf_micro's paper-scale rows: warm to all but 1/128 of
/// the full-detail reference count, one 16 K-reference detailed tail, 2^18
/// cycle warming quantum, checkpoints in `dir`.
MachineSpec sampled(const MachineSpec& full, std::uint64_t total_refs,
                    const std::string& dir) {
  return MachineSpecBuilder{full}
      .sample(total_refs - total_refs / 128, 16384, 0)
      .warm_quantum(csim::Cycles{1} << 18)
      .checkpoint_dir(dir)
      .build();
}

RowRecord record(const std::string& row_label, const SimResult& r) {
  RowRecord rec;
  rec.label = row_label;
  rec.ok = r.ok;
  rec.error = r.ok ? std::string() : r.error_kind + ": " + r.error;
  rec.host_seconds = r.host_seconds;
  if (r.ok) {
    rec.digest = csim::obs::result_digest(r);
    rec.wall_time = r.wall_time;
    rec.read_misses = r.totals.read_misses;
    rec.refs = r.totals.reads + r.totals.writes;
    rec.events = r.events;
  }
  return rec;
}

SimResult failed_result(const std::exception& e) {
  SimResult r;
  r.ok = false;
  r.error_kind = "exception";
  r.error = e.what();
  return r;
}

/// Records when a row's Simulator::run has finished its preamble (program
/// set-up, memory system, processors, checkpoint load, sampler) and stops
/// the row there, before any processor runs.
class SetupStop final : public csim::Observer {
 public:
  struct Reached : std::exception {
    [[nodiscard]] const char* what() const noexcept override {
      return "stopped after set-up";
    }
  };

  explicit SetupStop(Clock::time_point& at) : at_(&at) {}
  void on_run_begin(const RunBinding&) override {
    *at_ = Clock::now();
    throw Reached{};
  }

 private:
  Clock::time_point* at_;
};

void reset_checkpoints(const Workload& w) {
  if (w.checkpoint_dir.empty()) return;
  std::filesystem::remove_all(w.checkpoint_dir);
  std::filesystem::create_directories(w.checkpoint_dir);
}

/// Runs every row group of `w` through `run_group` (which returns the
/// group's results in row order) and times the whole pass. Digests are taken
/// after the clock stops.
template <typename RunGroup>
Pass timed_pass(const Workload& w, RunGroup&& run_group) {
  reset_checkpoints(w);
  std::vector<std::vector<SimResult>> results;
  const Clock::time_point t0 = Clock::now();
  for (const std::vector<Row>& group : w.groups) {
    results.push_back(run_group(group));
  }
  Pass pass;
  pass.wall_s = seconds_since(t0);
  for (std::size_t g = 0; g < w.groups.size(); ++g) {
    for (std::size_t i = 0; i < w.groups[g].size(); ++i) {
      pass.rows.push_back(record(w.groups[g][i].label, results[g][i]));
    }
  }
  return pass;
}

/// Adapts a one-row runner to timed_pass: the group's rows in order.
template <typename RunRow>
auto row_by_row(RunRow run_row) {
  return [run_row](const std::vector<Row>& group) {
    std::vector<SimResult> out;
    for (const Row& r : group) out.push_back(run_row(r));
    return out;
  };
}

/// obs::result_digest of every row at seed 0, as printed by a seed-0 run.
/// A fast-forward row is checked against its warming row's digest. A change
/// that alters simulation results must update this table.
struct Expected {
  const char* workload;
  const char* row;
  std::uint64_t digest;
};
constexpr Expected kExpected[] = {
    {"ocean_stream", "shared_cache/ppc1", 0xe1a3ccb9c5f2af49},
    {"ocean_stream", "shared_cache/ppc8", 0x1735450d5a2fed81},
    {"mp3d_share", "shared_cache/ppc8", 0xc39acab08b872e51},
    {"mp3d_share", "shared_memory/ppc8", 0x31eafe782a5debd6},
    {"barnes_chase", "shared_cache/ppc8", 0x94e02e217e4e05c3},
    {"barnes_chase", "shared_memory/ppc8", 0x80e13f465e7f17e9},
    {"fmm_sampled", "shared_cache/ppc8/sampled/warm", 0xaeef92f093637368},
    {"fmm_sampled", "shared_memory/ppc8/sampled/warm", 0x1faa1e83d321c756},
};

}  // namespace

std::uint64_t Pass::refs() const {
  std::uint64_t n = 0;
  for (const RowRecord& r : rows) n += r.refs;
  return n;
}

std::uint64_t Pass::events() const {
  std::uint64_t n = 0;
  for (const RowRecord& r : rows) n += r.events;
  return n;
}

double Pass::row_host_seconds() const {
  double s = 0;
  for (const RowRecord& r : rows) s += r.host_seconds;
  return s;
}

unsigned Pass::failed() const {
  unsigned n = 0;
  for (const RowRecord& r : rows) n += r.ok ? 0 : 1;
  return n;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "ocean_stream", "mp3d_share", "barnes_chase", "fmm_sampled"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool test_scale, const std::string& scratch_dir) {
  const auto scale = [test_scale](ProblemScale s) {
    return test_scale ? ProblemScale::Test : s;
  };
  constexpr ClusterStyle kSC = ClusterStyle::SharedCache;
  constexpr ClusterStyle kSM = ClusterStyle::SharedMemory;
  Workload w;
  w.name = name;
  if (name == "ocean_stream") {
    w.make_app = seeded<csim::OceanApp, csim::OceanConfig>(
        scale(ProblemScale::Paper), seed);
    w.groups = {{row(kSC, 1)}, {row(kSC, 8)}};
  } else if (name == "mp3d_share") {
    w.make_app = seeded<csim::Mp3dApp, csim::Mp3dConfig>(
        scale(ProblemScale::Paper), seed);
    w.groups = {{row(kSC, 8)}, {row(kSM, 8)}};
  } else if (name == "barnes_chase") {
    w.make_app = seeded<csim::BarnesApp, csim::BarnesConfig>(
        scale(ProblemScale::Default), seed);
    w.groups = {{row(kSC, 8)}, {row(kSM, 8)}};
  } else if (name == "fmm_sampled") {
    w.make_app = seeded<csim::FmmApp, csim::FmmConfig>(
        scale(ProblemScale::Paper), seed);
    w.checkpoint_dir =
        (std::filesystem::path(scratch_dir) / "checkpoints").string();
    for (ClusterStyle style : {kSC, kSM}) {
      const Row full = row(style, 8);
      const auto app = w.make_app();
      w.references.push_back(csim::simulate(*app, full.spec));
      const SimResult& ref = w.references.back();
      const MachineSpec spec = sampled(
          full.spec, ref.totals.reads + ref.totals.writes, w.checkpoint_dir);
      w.groups.push_back({Row{full.label + "/sampled/warm", spec},
                          Row{full.label + "/sampled/ff", spec}});
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::optional<std::uint64_t> expected_digest(const std::string& workload,
                                             const std::string& row) {
  for (const Expected& e : kExpected) {
    if (workload == e.workload && row == e.row) return e.digest;
  }
  return std::nullopt;
}

Pass run_pass(const Workload& w) {
  // One run_sweep call per group: a one-row group runs inline, and a sampled
  // pair runs as two one-row waves (warm and save, then fast-forward).
  return timed_pass(w, [&](const std::vector<Row>& group) {
    csim::SweepRequest req;
    req.make_app = w.make_app;
    for (const Row& r : group) req.configs.push_back(r.spec);
    return csim::run_sweep(req).rows;
  });
}

Pass run_traced_pass(const Workload& w) {
  LayerCounts counts;
  Pass pass = timed_pass(w, row_by_row([&](const Row& r) {
    try {
      const auto spec = std::make_shared<const MachineSpec>(r.spec);
      const auto app = w.make_app();
      const auto layout_app = w.make_app();
      LayerProbe mem(spec, *layout_app, counts);
      CoreProbe obs(mem, counts);
      csim::Simulator sim(spec);
      sim.set_observer(&obs);
      mem.begin_row();
      SimResult res = sim.run(*app, &mem);
      mem.end_row(res);
      return res;
    } catch (const std::exception& e) {
      return failed_result(e);
    }
  }));
  pass.layers = counts;
  return pass;
}

Pass run_floor_pass(const Workload& w) {
  return timed_pass(w, row_by_row([&](const Row& r) {
    try {
      // No checkpoints: the floor has no memory state to save or restore.
      MachineSpec spec = r.spec;
      spec.sampling.checkpoint_dir.clear();
      const auto app = w.make_app();
      AlwaysHitMemory mem(spec);
      return csim::Simulator(spec).run(*app, &mem);
    } catch (const std::exception& e) {
      return failed_result(e);
    }
  }));
}

double measure_setup(const Workload& w) {
  double total = 0;
  for (const std::vector<Row>& group : w.groups) {
    for (std::size_t i = 0; i < group.size(); ++i) {
      // Only a fast-forward row loads a checkpoint (the one the last pass
      // saved); the row that warms and saves it starts from none.
      MachineSpec spec = group[i].spec;
      if (i + 1 < group.size()) spec.sampling.checkpoint_dir.clear();
      csim::SweepRequest req;
      req.make_app = w.make_app;
      req.configs.push_back(spec);
      Clock::time_point begun{};
      req.make_observer = [&begun](const MachineSpec&, std::size_t) {
        return std::make_unique<SetupStop>(begun);
      };
      const Clock::time_point t0 = Clock::now();
      const csim::SweepResult r = csim::run_sweep(req);
      if (begun == Clock::time_point{}) {
        throw std::runtime_error("set-up of row " + group[i].label +
                                 " failed: " + r.rows.front().error);
      }
      total += std::chrono::duration<double>(begun - t0).count();
    }
  }
  return total;
}

}  // namespace clusterbench
