// clusterbench: runs one workload of the clustersim benchmark.
//
//   clusterbench --workload NAME --seed N --seconds S --trace 0|1
//                [--scratch DIR]
//   clusterbench --self-test [--scratch DIR]
//   clusterbench --list-metrics
//
// Checkpoints go to a fresh directory the run makes inside DIR (default
// .bench_build) and removes when it ends.
//
// --trace 0 times untraced passes of the workload for S seconds and prints
// the end-to-end metrics; --trace 1 repeats (untraced pass, traced pass,
// always-hit floor pass) for S seconds and prints the per-layer metrics.
// Both check every row: a row fails if it throws, fails Program::verify(),
// or its result digest differs from the recorded one (seed 0), from the
// same row in another pass, or (fast-forward rows) from its warming row.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <stdlib.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "clusterbench/metrics.hpp"
#include "clusterbench/workloads.hpp"
#include "src/obs/build_info.hpp"
#include "src/obs/manifest.hpp"

#ifndef CLUSTERBENCH_BUILD_TYPE
#define CLUSTERBENCH_BUILD_TYPE "unknown"
#endif

namespace clusterbench {

int run_self_test(const std::string& scratch_dir);

namespace {

constexpr unsigned kSetupRepsPerPass = 5;

/// The clock probe: a chain of kProbeLinks dependent 64-bit multiply-adds,
/// kCyclesPerLink core cycles each (a 3-cycle multiply feeding a 1-cycle add
/// on current x86 cores), so it takes the same cycles at any clock.
constexpr unsigned kProbeLinks = 1u << 22;
constexpr double kCyclesPerLink = 4;
/// The core clock that end-to-end times are scaled to.
constexpr double kReferenceHz = 2.5e9;

/// The calling thread's core clock right now, in Hz, from the duration of
/// the probe chain.
double core_clock_hz() {
  std::uint64_t a = 1;
  const Clock::time_point t0 = Clock::now();
  for (unsigned i = 0; i < kProbeLinks; ++i) {
    a = a * 6364136223846793005ULL + 1442695040888963407ULL;
    __asm__ __volatile__("" : "+r"(a));  // each link waits for the last
  }
  return kCyclesPerLink * kProbeLinks / seconds_since(t0);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  bool list_metrics = false;
  std::string scratch = ".bench_build";  // parent of the run's scratch dir
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "clusterbench: %s\n"
               "usage: clusterbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scratch DIR]\n"
               "       clusterbench --self-test [--scratch DIR]\n"
               "       clusterbench --list-metrics\n",
               error.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (arg == "--scratch") {
        o.scratch = value();
      } else if (arg == "--self-test") {
        o.self_test = true;
      } else if (arg == "--list-metrics") {
        o.list_metrics = true;
      } else {
        usage("unknown argument '" + arg + "'");
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!o.self_test && !o.list_metrics) {
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
      usage("--workload must be one of ocean_stream, mp3d_share, "
            "barnes_chase, fmm_sampled");
    }
    if (!(o.seconds > 0)) usage("--seconds must be positive");
  }
  return o;
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

void print_provenance() {
  const std::string build_type = CLUSTERBENCH_BUILD_TYPE;
  std::printf("provenance: host_cores=%u compiler=\"%s\" build_type=%s "
              "git=%s\n",
              std::max(1u, std::thread::hardware_concurrency()), compiler(),
              build_type.c_str(),
              std::string(csim::obs::git_describe()).c_str());
  if (build_type != "Release") {
    std::printf("WARNING: not a Release build; host times are not "
                "comparable with Release figures (docs/PERFORMANCE.md)\n");
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The value a quarter of the way up `v` (nearest rank).
double lower_quartile(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 4];
}

template <typename F>
double median_of(const std::vector<Pass>& passes, F&& f) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(f(p));
  return median(std::move(v));
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Row outcomes over every pass of the run, and the digest each row label
/// must reproduce.
class RowChecker {
 public:
  RowChecker(std::string workload, std::uint64_t seed)
      : workload_(std::move(workload)), seed_(seed) {}

  /// `compare_digests` is false for floor passes, whose memory differs.
  void add(const Pass& pass, const char* kind, bool compare_digests) {
    for (const RowRecord& r : pass.rows) {
      ++attempted_;
      if (!r.ok) {
        fail(std::string(kind) + " row " + r.label + ": " + r.error);
        continue;
      }
      if (!compare_digests) continue;
      // A fast-forward row must reproduce its warming row exactly.
      std::string key = r.label;
      if (key.size() > 3 && key.compare(key.size() - 3, 3, "/ff") == 0) {
        key.replace(key.size() - 3, 3, "/warm");
      }
      const auto [it, first] = digests_.emplace(key, r.digest);
      if (first) {
        std::printf("row %-36s digest %s\n", r.label.c_str(),
                    csim::obs::digest_hex(r.digest).c_str());
        if (seed_ == 0) check_recorded(r);
      } else if (it->second != r.digest) {
        fail(std::string(kind) + " row " + r.label + ": digest " +
             csim::obs::digest_hex(r.digest) + " differs from " +
             csim::obs::digest_hex(it->second));
      }
    }
  }

  /// A failure that is not tied to one row (an identity that did not hold).
  void fail(const std::string& what) {
    ++failed_;
    std::printf("FAILED: %s\n", what.c_str());
  }
  void count_row() { ++attempted_; }

  [[nodiscard]] unsigned attempted() const { return attempted_; }
  [[nodiscard]] unsigned failed() const { return failed_; }

 private:
  void check_recorded(const RowRecord& r) {
    const auto want = expected_digest(workload_, r.label);
    if (!want) {
      fail("row " + r.label + ": no recorded seed-0 digest");
    } else if (*want != r.digest) {
      fail("row " + r.label + ": digest " + csim::obs::digest_hex(r.digest) +
           " differs from the recorded " + csim::obs::digest_hex(*want));
    }
  }

  std::string workload_;
  std::uint64_t seed_;
  std::map<std::string, std::uint64_t> digests_;
  unsigned attempted_ = 0;
  unsigned failed_ = 0;
};

/// Worst relative error of the sampled rows against their full-detail
/// references, in simulated cycles and in read misses.
std::pair<double, double> sampling_error(const Workload& w, const Pass& pass) {
  double cycles = 0;
  double read_misses = 0;
  std::size_t row = 0;
  for (std::size_t g = 0; g < w.groups.size(); ++g) {
    const RowRecord& s = pass.rows[row];
    row += w.groups[g].size();
    if (g >= w.references.size() || !s.ok) continue;
    const csim::SimResult& full = w.references[g];
    const auto rel = [](double a, double b) {
      return b != 0 ? std::abs(a - b) / b : 0.0;
    };
    cycles = std::max(cycles, rel(static_cast<double>(s.wall_time),
                                  static_cast<double>(full.wall_time)));
    read_misses = std::max(
        read_misses, rel(static_cast<double>(s.read_misses),
                         static_cast<double>(full.totals.read_misses)));
  }
  return {cycles, read_misses};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

using Metrics = std::map<std::string, double, std::less<>>;

/// Runs `round` (one measurement round) repeatedly for about `seconds`: a
/// new round starts only while it should still end inside the budget, going
/// by the last round's duration, and at least `min_rounds` rounds run.
template <typename Round>
void repeat_for(double seconds, unsigned min_rounds, Round&& round) {
  const Clock::time_point t0 = Clock::now();
  for (unsigned n = 1;; ++n) {
    const double before = seconds_since(t0);
    round();
    const double now = seconds_since(t0);
    if (n >= min_rounds && now + (now - before) > seconds) return;
  }
}

/// An untimed first pass: allocator growth and first-touch page faults
/// belong to set-up, not to the timed passes. Its rows are checked too.
void warm_up(const Workload& w, RowChecker& rows) {
  rows.add(run_pass(w), "warm-up", true);
}

Metrics end_to_end(const Workload& w, const Options& o, RowChecker& rows) {
  // A shared host's core clock follows its neighbours' load, and host times
  // follow the clock, so every timing is scaled to kReferenceHz by the clock
  // measured next to it.
  //
  // Set-up takes milliseconds, so it is sampled after every pass (whose
  // checkpoints the fast-forward rows load): its samples then span the whole
  // run instead of one moment of host load.
  std::vector<double> setup;
  const auto sample_setup = [&] {
    for (unsigned i = 0; i < kSetupRepsPerPass; ++i) {
      const double s = measure_setup(w);
      setup.push_back(s * core_clock_hz() / kReferenceHz);
    }
  };
  warm_up(w, rows);
  sample_setup();
  std::vector<Pass> passes;
  std::vector<double> clock_hz;  // per pass, the mean of the clocks around it
  repeat_for(o.seconds, 3, [&] {
    const double before = core_clock_hz();
    passes.push_back(run_pass(w));
    clock_hz.push_back((before + core_clock_hz()) / 2);
    rows.add(passes.back(), "untraced", true);
    sample_setup();
  });

  if (!w.references.empty()) {
    const auto [cycles, misses] = sampling_error(w, passes.front());
    std::printf("sampling error vs full detail: cycles %.6f, read misses "
                "%.6f (reported by --trace 1)\n",
                cycles, misses);
  }
  // Other tenants also contend for the shared caches and memory, which
  // slows passes by up to half in phases the clock does not show. That only
  // ever adds time, so the metrics take the fastest quarter of the passes.
  std::vector<double> wall;
  std::vector<double> row_s;  // Σ SimResult::host_seconds per pass
  std::printf("%zu passes, host seconds @ core GHz:", passes.size());
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    const double scale = clock_hz[i] / kReferenceHz;
    std::printf(" %.4f@%.2f", p.wall_s, clock_hz[i] / 1e9);
    wall.push_back(p.wall_s * scale);
    row_s.push_back(p.row_host_seconds() * scale);
  }
  std::printf("\nunscaled medians: wall_s %.6f sim_refs_per_s %.6g\n",
              median_of(passes, [](const Pass& p) { return p.wall_s; }),
              median_of(passes, [](const Pass& p) {
                return ratio(static_cast<double>(p.refs()),
                             p.row_host_seconds());
              }));
  return {
      {"wall_s", lower_quartile(wall)},
      // Every pass retires the same references (its digests are checked).
      {"sim_refs_per_s", ratio(static_cast<double>(passes.front().refs()),
                               lower_quartile(row_s))},
      {"setup_s", lower_quartile(setup)},
      {"peak_rss_mb", peak_rss_mb()},
  };
}

/// Counts of a traced pass that must repeat exactly from pass to pass.
std::vector<std::uint64_t> count_signature(const LayerCounts& c) {
  std::vector<std::uint64_t> v(c.by_kind.begin(), c.by_kind.end());
  for (std::uint64_t x :
       {c.read_calls, c.write_calls, c.protocol.refs, c.protocol.hits,
        c.detail_refs, c.warm_refs, c.warm_calls, c.events, c.slices}) {
    v.push_back(x);
  }
  return v;
}

Metrics per_layer(const Workload& w, const Options& o, RowChecker& rows) {
  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  std::vector<Pass> floor;
  warm_up(w, rows);
  repeat_for(o.seconds, 1, [&] {
    untraced.push_back(run_pass(w));
    rows.add(untraced.back(), "untraced", true);
    traced.push_back(run_traced_pass(w));
    rows.add(traced.back(), "traced", true);
    floor.push_back(run_floor_pass(w));
    rows.add(floor.back(), "floor", false);
  });

  const Pass& t = traced.front();
  const LayerCounts& c = t.layers;
  for (const std::string& broken : c.broken_identities()) rows.fail(broken);
  if (c.events != t.events()) {
    rows.fail("observer event count differs from SimResult::events");
  }
  for (const Pass& p : traced) {
    if (count_signature(p.layers) != count_signature(c)) {
      rows.fail("traced counts differ between passes");
    }
  }

  const double events = static_cast<double>(t.events());
  const double calls = static_cast<double>(c.calls());
  const double untraced_s = median_of(untraced, [](const Pass& p) { return p.wall_s; });
  const double traced_s = median_of(traced, [](const Pass& p) { return p.wall_s; });
  const double mem_s = median_of(traced, [](const Pass& p) { return p.layers.mem_s(); });
  const auto kind = [&](csim::AccessResult::Kind k) {
    return static_cast<double>(c.kind(k));
  };
  using K = csim::AccessResult::Kind;
  const auto [cycles_err, misses_err] =
      w.references.empty() ? std::pair<double, double>{0, 0}
                           : sampling_error(w, untraced.front());
  return {
      {"apps.floor_s", median_of(floor, [](const Pass& p) { return p.wall_s; })},
      {"core.events", events},
      {"core.events_per_ref", ratio(events, static_cast<double>(t.refs()))},
      {"core.slices", static_cast<double>(c.slices)},
      {"core.self_s",
       median_of(traced, [](const Pass& p) { return p.wall_s - p.layers.mem_s(); })},
      {"host_ns_per_event", ratio(untraced_s * 1e9, events)},
      {"filter.hit_share", ratio(static_cast<double>(c.filter_hits()),
                                 static_cast<double>(c.detail_refs))},
      {"mem.calls", calls},
      {"mem.read_calls", static_cast<double>(c.read_calls)},
      {"mem.write_calls", static_cast<double>(c.write_calls)},
      {"mem.hit_calls", kind(K::Hit)},
      {"mem.nearhit_calls", kind(K::NearHit)},
      {"mem.merge_calls", kind(K::Merge)},
      {"mem.read_miss_calls", kind(K::ReadMiss)},
      {"mem.write_miss_calls", kind(K::WriteMiss)},
      {"mem.upgrade_calls", kind(K::UpgradeMiss)},
      {"mem.s", mem_s},
      {"mem.hit_s", median_of(traced, [](const Pass& p) { return p.layers.hit_s; })},
      {"mem.miss_s", median_of(traced, [](const Pass& p) { return p.layers.miss_s; })},
      {"mem.ns_per_call", ratio(mem_s * 1e9, calls)},
      {"warm.refs", static_cast<double>(c.warm_refs)},
      {"warm.calls", static_cast<double>(c.warm_calls)},
      {"warm_filter.hit_share",
       c.warm_refs != 0 ? 1 - static_cast<double>(c.warm_calls) /
                                  static_cast<double>(c.warm_refs)
                        : 0},
      {"warm.s", median_of(traced, [](const Pass& p) { return p.layers.warm_s; })},
      {"ckpt.capture_s",
       median_of(traced, [](const Pass& p) { return p.layers.capture_s; })},
      {"ckpt.restore_s",
       median_of(traced, [](const Pass& p) { return p.layers.restore_s; })},
      {"ff.s", median_of(traced, [](const Pass& p) { return p.layers.ff_s; })},
      {"detail.s", median_of(traced, [](const Pass& p) { return p.layers.detail_s; })},
      {"sweep.overhead_s", median_of(untraced,
                               [](const Pass& p) {
                                 return p.wall_s - p.row_host_seconds();
                               })},
      {"trace_overhead_s", traced_s - untraced_s},
      {"sampled_cycles_err", cycles_err},
      {"sampled_read_miss_err", misses_err},
  };
}

template <std::size_t N>
void print_result(const Metrics& m, const MetricDef (&defs)[N],
                  const RowChecker& rows) {
  for (const MetricDef& d : defs) {
    const auto it = m.find(d.name);
    if (it == m.end()) {
      throw std::logic_error("metric " + std::string(d.name) + " missing");
    }
    std::printf("%-24s %.9g %s\n", it->first.c_str(), it->second,
                std::string(d.unit).c_str());
  }
  std::printf("failed rows: %u of %u (%.1f%%)\n", rows.failed(),
              rows.attempted(),
              100.0 * ratio(rows.failed(), rows.attempted()));
  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
              "\"metrics\": {",
              rows.failed() == 0 ? "true" : "false", rows.attempted(),
              rows.failed());
  const char* sep = "";
  for (const MetricDef& d : defs) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                std::string(d.name).c_str(), m.find(d.name)->second,
                std::string(d.unit).c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

/// A fresh directory under `parent` for the run's checkpoints, removed on
/// every exit path. Nothing else under `parent` is touched.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string path =
        (std::filesystem::path(parent) / "clusterbench-XXXXXX").string();
    if (mkdtemp(path.data()) == nullptr) {
      throw std::runtime_error("cannot create a scratch directory in " + parent);
    }
    path_ = std::move(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

int run(const Options& o) {
  if (o.list_metrics) {
    for (const MetricDef& d : kEndToEnd) std::printf("end_to_end %s\n", d.name.data());
    for (const MetricDef& d : kPerLayer) std::printf("per_layer %s\n", d.name.data());
    return 0;
  }
  print_provenance();
  const ScratchDir scratch(o.scratch);
  if (o.self_test) return run_self_test(scratch.path());

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  if (o.workload == "ocean_stream" && o.seed != 0) {
    std::printf("note: ocean's reference stream does not depend on the seed; "
                "every seed reproduces the seed-0 digests\n");
  }
  const Workload w = make_workload(o.workload, o.seed, false, scratch.path());
  RowChecker rows(o.workload, o.seed);
  for (std::size_t i = 0; i < w.references.size(); ++i) rows.count_row();
  if (o.trace) {
    print_result(per_layer(w, o, rows), kPerLayer, rows);
  } else {
    print_result(end_to_end(w, o, rows), kEndToEnd, rows);
  }
  return 0;
}

}  // namespace
}  // namespace clusterbench

int main(int argc, char** argv) {
  const clusterbench::Options o = clusterbench::parse(argc, argv);
  try {
    return clusterbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clusterbench: %s\n", e.what());
    return 1;
  }
}
