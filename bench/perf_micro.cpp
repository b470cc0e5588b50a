// Micro-benchmarks of the simulator core (google-benchmark): protocol
// operations, cache storage, event queue, and end-to-end simulation
// throughput in simulated references per second.
//
// `perf_micro --json [path]` skips google-benchmark and runs only the
// end-to-end configurations, writing a machine-readable report (default
// BENCH_perf.json) for the CI perf gate (tools/perf_check) — see
// docs/PERFORMANCE.md. `--repeat N` (default 3) measures each configuration
// N times and reports the median pass, damping scheduler and frequency
// noise on shared CI runners. `--trace-out` / `--metrics-interval` attach
// the src/obs observability layer to one end-to-end run (useful for
// profiling the baseline workload itself).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string_view>

#include "bench/bench_util.hpp"
#include "src/apps/app.hpp"
#include "src/core/error.hpp"
#include "src/core/event_queue.hpp"
#include "src/core/simulator.hpp"
#include "src/mem/cache.hpp"
#include "src/mem/coherence.hpp"
#include "src/obs/run_observer.hpp"
#include "src/report/cli_args.hpp"

namespace csim {
namespace {

/// One end-to-end run: `app_name` at test scale on 64 processors with 16 KB
/// caches — the tracked perf-baseline configuration. Returns retired
/// references.
std::uint64_t end_to_end_once(ClusterStyle style, unsigned ppc,
                              ContentionSpec contention = {},
                              Observer* obs = nullptr,
                              const char* app_name = "fft") {
  auto app = make_app(app_name, ProblemScale::Test);
  const MachineSpec cfg = MachineSpecBuilder{}
                              .procs(64)
                              .procs_per_cluster(ppc)
                              .style(style)
                              .cache_kb(16)
                              .contention(contention)
                              .build();
  const SimResult r = simulate(*app, cfg, obs);
  return r.totals.reads + r.totals.writes;
}

void BM_CacheInsertLookup(benchmark::State& state) {
  const std::size_t lines = static_cast<std::size_t>(state.range(0));
  CacheStorage cache(lines, 0, 64);
  Addr a = 0;
  for (auto _ : state) {
    cache.insert(a, LineState::Shared);
    benchmark::DoNotOptimize(cache.lookup(a));
    a += 64;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheInsertLookup)->Arg(64)->Arg(1024);

void BM_EventQueue(benchmark::State& state) {
  EventQueue q;
  Cycles t = 0;
  int sink = 0;
  for (auto _ : state) {
    q.schedule(t + 5, [&sink] { ++sink; });
    q.schedule(t + 3, [&sink] { ++sink; });
    q.run_one();
    q.run_one();
    t += 10;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_EventQueue);

void BM_CoherenceReadHit(benchmark::State& state) {
  MachineSpec cfg;
  cfg.num_procs = 64;
  cfg.procs_per_cluster = 4;
  cfg.cache.per_proc_bytes = 0;
  AddressSpace as;
  const Addr base = as.alloc(1 << 20, "bench");
  CoherenceController coh(std::make_shared<const MachineSpec>(cfg), as);
  (void)coh.read(0, base, 0);  // warm the line
  Cycles now = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(coh.read(0, base, now++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoherenceReadHit);

void BM_CoherenceCommunicationMiss(benchmark::State& state) {
  MachineSpec cfg;
  cfg.num_procs = 64;
  cfg.procs_per_cluster = 1;
  cfg.cache.per_proc_bytes = 0;
  AddressSpace as;
  const Addr base = as.alloc(1 << 20, "bench");
  CoherenceController coh(std::make_shared<const MachineSpec>(cfg), as);
  Cycles now = 0;
  for (auto _ : state) {
    // Write from cluster 0 invalidates, read from cluster 1 misses.
    benchmark::DoNotOptimize(coh.write(0, base, now));
    benchmark::DoNotOptimize(coh.read(1, base, now + 200));
    now += 400;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_CoherenceCommunicationMiss);

void BM_EndToEndSim(benchmark::State& state) {
  const unsigned ppc = static_cast<unsigned>(state.range(0));
  const auto style = static_cast<ClusterStyle>(state.range(1));
  std::uint64_t refs = 0;
  for (auto _ : state) {
    refs += end_to_end_once(style, ppc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(refs));
  state.SetLabel("simulated refs/s");
}
BENCHMARK(BM_EndToEndSim)
    ->ArgNames({"ppc", "org"})
    ->Args({1, static_cast<int>(ClusterStyle::SharedCache)})
    ->Args({8, static_cast<int>(ClusterStyle::SharedCache)})
    ->Args({1, static_cast<int>(ClusterStyle::SharedMemory)})
    ->Args({8, static_cast<int>(ClusterStyle::SharedMemory)})
    ->Unit(benchmark::kMillisecond);

/// --json mode: measure each end-to-end configuration `repeat` times for at
/// least `min_seconds` of wall time each, and report the median pass (by
/// throughput). Besides the four fft baseline rows, two `/contention` rows
/// track the queued contention model's overhead, and per-organization radix
/// and barnes rows cover a scatter-heavy and a pointer-chasing workload.
/// The `_paper` rows run fmm and ocean at the paper's Table 2 problem sizes
/// in full detail, each paired with a `/sampled` row that replays the same
/// run from a warm-state checkpoint with one detailed tail interval — the
/// tracked speedup of interval sampling (docs/PERFORMANCE.md).
int json_main(const std::string& path, unsigned repeat) {
  using clock = std::chrono::steady_clock;
  constexpr double min_seconds = 1.0;
  std::vector<bench::PerfRecord> rows;
  // Warm-up once (page cache, allocator, checkpoint writes), then `repeat`
  // timed passes of >= min_seconds each; record the median pass.
  auto measure = [&](const char* name, auto&& once) {
    once();
    std::vector<bench::PerfRecord> passes;
    for (unsigned rep = 0; rep < repeat; ++rep) {
      std::uint64_t refs = 0;
      const auto start = clock::now();
      double elapsed = 0;
      do {
        refs += once();
        elapsed = std::chrono::duration<double>(clock::now() - start).count();
      } while (elapsed < min_seconds);
      bench::PerfRecord r;
      r.name = name;
      r.simulated_refs = refs;
      r.wall_seconds = elapsed;
      r.sim_refs_per_sec = static_cast<double>(refs) / elapsed;
      passes.push_back(std::move(r));
    }
    std::nth_element(passes.begin(), passes.begin() + passes.size() / 2,
                     passes.end(),
                     [](const bench::PerfRecord& a, const bench::PerfRecord& b) {
                       return a.sim_refs_per_sec < b.sim_refs_per_sec;
                     });
    bench::PerfRecord median = passes[passes.size() / 2];
    std::printf("%-46s %12.0f sim refs/s  (median of %u; %llu refs in %.2fs)\n",
                median.name.c_str(), median.sim_refs_per_sec, repeat,
                static_cast<unsigned long long>(median.simulated_refs),
                median.wall_seconds);
    rows.push_back(std::move(median));
  };
  struct EndToEnd {
    ClusterStyle style;
    unsigned ppc;
    bool contention;
    const char* app;
    const char* name;
  };
  const EndToEnd configs[] = {
      {ClusterStyle::SharedCache, 1, false, "fft",
       "end_to_end/shared_cache/ppc1"},
      {ClusterStyle::SharedCache, 8, false, "fft",
       "end_to_end/shared_cache/ppc8"},
      {ClusterStyle::SharedMemory, 1, false, "fft",
       "end_to_end/shared_memory/ppc1"},
      {ClusterStyle::SharedMemory, 8, false, "fft",
       "end_to_end/shared_memory/ppc8"},
      {ClusterStyle::SharedCache, 8, true, "fft",
       "end_to_end/shared_cache/ppc8/contention"},
      {ClusterStyle::SharedMemory, 8, true, "fft",
       "end_to_end/shared_memory/ppc8/contention"},
      {ClusterStyle::SharedCache, 8, false, "radix",
       "end_to_end/shared_cache/ppc8/radix"},
      {ClusterStyle::SharedMemory, 8, false, "radix",
       "end_to_end/shared_memory/ppc8/radix"},
      {ClusterStyle::SharedCache, 8, false, "barnes",
       "end_to_end/shared_cache/ppc8/barnes"},
      {ClusterStyle::SharedMemory, 8, false, "barnes",
       "end_to_end/shared_memory/ppc8/barnes"},
  };
  for (const EndToEnd& c : configs) {
    ContentionSpec spec;
    spec.enabled = c.contention;
    measure(c.name, [&] {
      return end_to_end_once(c.style, c.ppc, spec, nullptr, c.app);
    });
  }

  // Paper-scale pairs: full detail vs checkpointed interval sampling on the
  // same configuration. The sampled row warms to all-but-1/64 of the run,
  // simulates one 16K-reference detailed tail, and uses a 256K-cycle warming
  // quantum; its warm-up pass writes the warm-state checkpoint, so every
  // timed pass fast-forwards from it — the steady-state workflow of a
  // checkpointed parameter sweep. fmm and ocean are the pinned apps because
  // their miss-rate taxonomy stays within tolerance at this configuration
  // (mp3d's write-sharing ping-pong does not survive coarse warming;
  // docs/PERFORMANCE.md "Sampling accuracy").
  struct SampledPair {
    ClusterStyle style;
    const char* app;
    const char* name;
    const char* sampled_name;
  };
  const SampledPair paper_configs[] = {
      {ClusterStyle::SharedCache, "fmm",
       "end_to_end/shared_cache/ppc8/fmm_paper",
       "end_to_end/shared_cache/ppc8/fmm_paper/sampled"},
      {ClusterStyle::SharedMemory, "fmm",
       "end_to_end/shared_memory/ppc8/fmm_paper",
       "end_to_end/shared_memory/ppc8/fmm_paper/sampled"},
      {ClusterStyle::SharedCache, "ocean",
       "end_to_end/shared_cache/ppc8/ocean_paper",
       "end_to_end/shared_cache/ppc8/ocean_paper/sampled"},
  };
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path ckpt_dir = fs::temp_directory_path() / "csim_perf_ckpt";
  fs::remove_all(ckpt_dir, ec);  // never fast-forward from a stale build
  fs::create_directories(ckpt_dir, ec);
  for (const SampledPair& c : paper_configs) {
    const MachineSpec full = MachineSpecBuilder{}
                                 .procs(64)
                                 .procs_per_cluster(8)
                                 .style(c.style)
                                 .cache_kb(16)
                                 .build();
    std::uint64_t total = 0;
    measure(c.name, [&] {
      auto app = make_app(c.app, ProblemScale::Paper);
      const SimResult r = simulate(*app, full);
      total = r.totals.reads + r.totals.writes;
      return total;
    });
    const MachineSpec sampled = MachineSpecBuilder{full}
                                    .sample(total - total / 128, 16384, 0)
                                    .warm_quantum(Cycles{1} << 18)
                                    .checkpoint_dir(ckpt_dir.string())
                                    .build();
    measure(c.sampled_name, [&] {
      auto app = make_app(c.app, ProblemScale::Paper);
      const SimResult r = simulate(*app, sampled);
      return r.totals.reads + r.totals.writes;
    });
  }
  fs::remove_all(ckpt_dir, ec);

  bench::write_perf_json(
      path, "end-to-end simulation throughput (64 procs, 16 KB caches; "
            "test scale, plus paper-scale full/sampled pairs)", rows);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

/// --trace-out / --metrics-interval / crash-safety-flag mode: one observed
/// end-to-end run (shared-cache, ppc 8) through run_sweep, so the journal,
/// deadline, retry, and fault-plan flags behave exactly as in csim_cli.
int observed_main(const cli::ObsArgs& args) {
  SweepRequest req;
  req.make_app = [] { return make_app("fft", ProblemScale::Test); };
  req.configs.push_back(MachineSpecBuilder{}
                            .procs(64)
                            .procs_per_cluster(8)
                            .style(ClusterStyle::SharedCache)
                            .cache_kb(16)
                            .contention(args.contention)
                            .build());
  req.make_observer = args.observer_factory(req.configs.size());
  args.apply(req);
  const bool policy_active = !req.policy.journal_dir.empty() ||
                             req.policy.faults != nullptr ||
                             req.policy.row_deadline_seconds > 0 ||
                             req.policy.max_retries > 0;

  const SweepResult sweep = run_sweep(req);
  const std::size_t failures = write_failures(std::cerr, sweep.rows);
  if (policy_active) write_outcomes(std::cerr, sweep);
  if (failures != 0 || sweep.rows.empty()) return 1;

  const SimResult& r = sweep.rows.front();
  const std::uint64_t refs = r.totals.reads + r.totals.writes;
  std::printf("observed end_to_end/shared_cache/ppc8%s: %llu refs\n",
              args.contention.enabled ? "/contention" : "",
              static_cast<unsigned long long>(refs));
  if (!args.trace_out.empty()) std::printf("wrote %s\n", args.trace_out.c_str());
  if (args.metrics_interval != 0) {
    std::printf("wrote %s.csv and %s.json\n", args.metrics_out.c_str(),
                args.metrics_out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace csim

int main(int argc, char** argv) {
  csim::cli::ObsArgs obs_args;  // same flag spellings as csim_cli
  // --repeat applies to --json mode and may appear on either side of it.
  unsigned repeat = 3;
  std::string json_path;
  bool json_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--repeat") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--repeat: missing count\n");
        return 2;
      }
      const long v = std::strtol(argv[++i], nullptr, 10);
      if (v < 1 || v > 1000) {
        std::fprintf(stderr, "--repeat: bad count '%s' (want 1..1000)\n",
                     argv[i]);
        return 2;
      }
      repeat = static_cast<unsigned>(v);
      continue;
    }
    if (a == "--json") {
      // The path operand is optional; a following flag is not a path.
      json_mode = true;
      const bool has_path =
          i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--";
      json_path = has_path ? argv[++i] : "BENCH_perf.json";
      continue;
    }
    try {
      obs_args.consume(argc, argv, i);
    } catch (const csim::ConfigError& e) {
      std::fprintf(stderr, "%s\n%s", e.what(), csim::cli::ObsArgs::usage());
      return 2;
    }
  }
  if (obs_args.shard_set) {
    // The observed run is one fixed row — there is nothing to partition.
    std::fprintf(stderr, "--shard is not supported by perf_micro\n");
    return 2;
  }
  if (json_mode) return csim::json_main(json_path, repeat);
  const bool policy_flags = !obs_args.policy.journal_dir.empty() ||
                            obs_args.fault_plan != nullptr ||
                            obs_args.policy.row_deadline_seconds > 0 ||
                            obs_args.policy.max_retries > 0;
  if (obs_args.trace_out.empty() && obs_args.metrics_interval == 0 &&
      !obs_args.contention.enabled && !policy_flags) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  return csim::observed_main(obs_args);
}
