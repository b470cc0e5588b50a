// Cross-configuration properties of the full simulator: invariants the
// paper's methodology depends on, checked over every application.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/analysis/working_set.hpp"
#include "src/apps/app.hpp"
#include "src/report/experiment.hpp"
#include "src/trace/trace.hpp"

namespace csim {
namespace {

MachineSpec mc(unsigned procs, unsigned ppc, std::size_t cache_bytes) {
  MachineSpec c;
  c.num_procs = procs;
  c.procs_per_cluster = ppc;
  c.cache.per_proc_bytes = cache_bytes;
  return c;
}

class PerApp : public ::testing::TestWithParam<std::string> {};

TEST_P(PerApp, DeterministicAcrossIdenticalRuns) {
  auto a1 = make_app(GetParam(), ProblemScale::Test);
  auto a2 = make_app(GetParam(), ProblemScale::Test);
  const SimResult r1 = simulate(*a1, mc(16, 4, 8 * 1024));
  const SimResult r2 = simulate(*a2, mc(16, 4, 8 * 1024));
  EXPECT_EQ(r1.wall_time, r2.wall_time);
  EXPECT_EQ(r1.totals.reads, r2.totals.reads);
  EXPECT_EQ(r1.totals.read_misses, r2.totals.read_misses);
  EXPECT_EQ(r1.totals.invalidations, r2.totals.invalidations);
  for (unsigned p = 0; p < 16; ++p) {
    EXPECT_EQ(r1.per_proc[p].cpu, r2.per_proc[p].cpu);
  }
}

TEST_P(PerApp, ReferenceCountIndependentOfClustering) {
  std::uint64_t refs = 0;
  for (unsigned ppc : {1u, 2u, 8u}) {
    auto a = make_app(GetParam(), ProblemScale::Test);
    const SimResult r = simulate(*a, mc(16, ppc, 0));
    const std::uint64_t now = r.totals.reads + r.totals.writes;
    if (refs == 0) {
      refs = now;
    } else {
      EXPECT_EQ(now, refs) << "the address stream must not depend on ppc";
    }
  }
}

TEST_P(PerApp, MergesWithoutClusteringOnlyFromOwnWriteFills) {
  // With one processor per cluster, a merge can only happen when a read
  // joins the processor's *own* outstanding write-miss fill (the paper
  // explicitly counts reads on pending READ or WRITE fills as MERGE
  // misses). Apps that never read a freshly write-missed line must show
  // zero merges; all others are bounded by their write misses.
  auto a = make_app(GetParam(), ProblemScale::Test);
  const SimResult r = simulate(*a, mc(16, 1, 0));
  EXPECT_LE(r.totals.merges, r.totals.write_misses);
  const std::string n = GetParam();
  if (n == "fft" || n == "lu" || n == "barnes" || n == "fmm" ||
      n == "raytrace" || n == "volrend") {
    EXPECT_EQ(r.totals.merges, 0u);
  }
}

TEST_P(PerApp, InfiniteCacheNeverEvicts) {
  auto a = make_app(GetParam(), ProblemScale::Test);
  const SimResult r = simulate(*a, mc(16, 2, 0));
  EXPECT_EQ(r.totals.evictions, 0u);
}

TEST_P(PerApp, FiniteCapacityOnlyAddsMisses) {
  auto big = make_app(GetParam(), ProblemScale::Test);
  auto small = make_app(GetParam(), ProblemScale::Test);
  const SimResult r_inf = simulate(*big, mc(16, 2, 0));
  const SimResult r_4k = simulate(*small, mc(16, 2, 4 * 1024));
  EXPECT_GE(r_4k.totals.read_misses, r_inf.totals.read_misses);
  // Evictions write dirty lines home, which can make later misses *cheaper*
  // (30 vs 100 cycles), so a small speedup is legitimate; a large one is not.
  EXPECT_GE(r_4k.wall_time, r_inf.wall_time * 90 / 100);
}

TEST_P(PerApp, SingleClusterInfiniteCacheMissesAllCold) {
  // With one cluster holding every processor and an infinite cache there is
  // nobody to invalidate a copy, so every miss is a compulsory (cold) miss.
  auto a = make_app(GetParam(), ProblemScale::Test);
  const SimResult r = simulate(*a, mc(16, 16, 0));
  EXPECT_EQ(r.totals.total_misses(), r.totals.cold_misses);
  EXPECT_EQ(r.totals.invalidations, 0u);
}

TEST_P(PerApp, SingleClusterMissesMatchLruStackDistance) {
  // One cluster holding every processor has no coherence traffic, so its
  // fully associative LRU cache must miss on exactly the references that are
  // cold or have an LRU stack distance of at least its line count (Mattson
  // et al.), counted over the same reference stream. Every reference counts,
  // merged reads included: they touch the line (docs/PROTOCOL.md).
  for (const std::size_t kb : {1u, 4u}) {
    const MachineSpec cfg = mc(8, 8, kb * 1024);
    auto a = make_app(GetParam(), ProblemScale::Test);
    const SimResult r = simulate(*a, cfg);
    auto b = make_app(GetParam(), ProblemScale::Test);
    const Trace trace = record_trace(*b, cfg);

    StackDistance stack;
    std::uint64_t lru_misses = 0;
    for (const TraceRecord& t : trace.records()) {
      const std::size_t d =
          stack.touch(t.addr & ~Addr{cfg.cache.line_bytes - 1});
      if (d == SIZE_MAX || d >= cfg.cluster_cache_lines()) ++lru_misses;
    }
    EXPECT_EQ(r.totals.read_misses + r.totals.write_misses, lru_misses)
        << kb << " KB";
  }
}

TEST_P(PerApp, ClusteringNeverIncreasesInfiniteCacheMisses) {
  // With fully associative infinite caches there is no destructive
  // interference, so total misses must be non-increasing in cluster size
  // (modulo tiny timing-dependent invalidation differences; allow 2%).
  std::uint64_t prev = ~0ull;
  for (unsigned ppc : {1u, 2u, 4u, 8u}) {
    auto a = make_app(GetParam(), ProblemScale::Test);
    const SimResult r = simulate(*a, mc(16, ppc, 0));
    const std::uint64_t m = r.totals.total_misses();
    EXPECT_LE(m, prev + prev / 50) << "ppc=" << ppc;
    prev = m;
  }
}

TEST_P(PerApp, TimeBucketsConserve) {
  auto a = make_app(GetParam(), ProblemScale::Test);
  const SimResult r = simulate(*a, mc(16, 4, 16 * 1024));
  for (const auto& b : r.per_proc) {
    EXPECT_EQ(b.total(), r.wall_time);
  }
  EXPECT_EQ(r.aggregate().total(), r.wall_time * 16);
}

TEST_P(PerApp, HitsPlusMissesPlusMergesEqualAccesses) {
  auto a = make_app(GetParam(), ProblemScale::Test);
  const SimResult r = simulate(*a, mc(16, 4, 8 * 1024));
  EXPECT_EQ(r.totals.read_hits + r.totals.read_misses + r.totals.merges,
            r.totals.reads);
  EXPECT_EQ(r.totals.write_hits + r.totals.write_misses +
                r.totals.upgrade_misses,
            r.totals.writes);
}

TEST_P(PerApp, PerClusterCountersSumToTotals) {
  auto a = make_app(GetParam(), ProblemScale::Test);
  const SimResult r = simulate(*a, mc(16, 4, 8 * 1024));
  MissCounters sum{};
  for (const auto& c : r.per_cluster) sum += c;
  EXPECT_EQ(sum.reads, r.totals.reads);
  EXPECT_EQ(sum.read_misses, r.totals.read_misses);
  EXPECT_EQ(sum.invalidations, r.totals.invalidations);
}

TEST_P(PerApp, WorksAtSixtyFourProcessors) {
  auto a = make_app(GetParam(), ProblemScale::Test);
  const SimResult r = simulate(*a, mc(64, 8, 0));
  EXPECT_GT(r.wall_time, 0u);
  EXPECT_EQ(r.per_proc.size(), 64u);
  EXPECT_EQ(r.per_cluster.size(), 8u);
}

INSTANTIATE_TEST_SUITE_P(AllApps, PerApp, ::testing::ValuesIn(app_names()),
                         [](const auto& info) { return info.param; });

TEST(ClusteringShape, OceanLoadStallShrinksWithClusterSize) {
  // The paper's headline Ocean result: near-neighbour communication is
  // captured by the cluster, so load stall falls markedly with cluster size.
  auto sweep = sweep_clusters(
      [] { return make_app("ocean", ProblemScale::Test); }, 0, {1, 8});
  const Cycles load1 = sweep[0].aggregate().load;
  const Cycles load8 = sweep[1].aggregate().load;
  EXPECT_LT(load8 * 2, load1)
      << "8-way clustering must at least halve Ocean's load stall";
}

TEST(ClusteringShape, FftAllToAllBenefitsLittle) {
  auto sweep = sweep_clusters(
      [] { return make_app("fft", ProblemScale::Test); }, 0, {1, 8});
  const double t1 = static_cast<double>(sweep[0].aggregate().total());
  const double t8 = static_cast<double>(sweep[1].aggregate().total());
  EXPECT_GT(t8 / t1, 0.75) << "all-to-all communication is reduced only by "
                              "(P-C)/(P-1); FFT must stay close to flat "
                              "(threshold loose at tiny Test scale)";
}

TEST(ClusteringShape, MergesAppearUnderClustering) {
  auto sweep = sweep_clusters(
      [] { return make_app("lu", ProblemScale::Test); }, 0, {1, 2});
  EXPECT_EQ(sweep[0].totals.merges, 0u);
  EXPECT_GT(sweep[1].totals.merges, 0u)
      << "LU cluster-mates fetch the diagonal block at the same time";
}

}  // namespace
}  // namespace csim
