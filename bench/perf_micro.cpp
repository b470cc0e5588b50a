// The tracked end-to-end perf baseline (docs/PERFORMANCE.md §4): simulated
// references per second of whole runs, the number the CI perf gate
// (tools/perf_check) compares against the committed BENCH_perf.json.
//
//   perf_micro --json [path] [--repeat N]
//
// writes the report to `path` (default BENCH_perf.json). `--repeat N`
// (default 3) measures each configuration N times and reports the median
// pass, damping scheduler and frequency noise on shared CI runners. To
// observe or journal one run, use csim_cli's flags on the same
// configuration.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/apps/app.hpp"
#include "src/core/error.hpp"
#include "src/core/simulator.hpp"
#include "src/report/cli_args.hpp"

namespace csim {
namespace {

/// One end-to-end run: `app_name` at test scale on 64 processors with 16 KB
/// caches — the tracked perf-baseline configuration. Returns retired
/// references.
std::uint64_t end_to_end_once(ClusterStyle style, unsigned ppc,
                              ContentionSpec contention, const char* app_name) {
  auto app = make_app(app_name, ProblemScale::Test);
  const MachineSpec cfg = MachineSpecBuilder{}
                              .procs(64)
                              .procs_per_cluster(ppc)
                              .style(style)
                              .cache_kb(16)
                              .contention(contention)
                              .build();
  const SimResult r = simulate(*app, cfg);
  return r.totals.reads + r.totals.writes;
}

/// Measures each end-to-end configuration `repeat` times for at least
/// `min_seconds` of wall time each, and reports the median pass (by
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
      return end_to_end_once(c.style, c.ppc, spec, c.app);
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

}  // namespace
}  // namespace csim

int main(int argc, char** argv) {
  const auto usage = [&] {
    std::fprintf(stderr, "usage: %s --json [path] [--repeat N]\n",
                 argc > 0 ? argv[0] : "perf_micro");
    return 2;
  };
  unsigned repeat = 3;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--json") {
      // The path operand is optional; a following flag is not a path.
      const bool has_path =
          i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--";
      json_path = has_path ? argv[++i] : "BENCH_perf.json";
    } else if (a == "--repeat" && i + 1 < argc) {
      try {
        const std::uint64_t n = csim::cli::parse_u64("--repeat", argv[++i]);
        if (n < 1 || n > 1000) {
          throw csim::ConfigError("--repeat: out of range (1..1000)");
        }
        repeat = static_cast<unsigned>(n);
      } catch (const csim::ConfigError& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return usage();
      }
    } else {
      return usage();
    }
  }
  if (json_path.empty()) return usage();
  return csim::json_main(json_path, repeat);
}
