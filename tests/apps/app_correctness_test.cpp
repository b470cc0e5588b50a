// Deep per-application correctness: the workloads really compute what they
// claim (this is what makes their reference streams credible).
#include <gtest/gtest.h>

#include <cmath>

#include "src/apps/barnes.hpp"
#include "src/apps/fft.hpp"
#include "src/apps/fmm.hpp"
#include "src/apps/lu.hpp"
#include "src/apps/mp3d.hpp"
#include "src/apps/ocean.hpp"
#include "src/apps/octree.hpp"
#include "src/apps/partition.hpp"
#include "src/apps/prng.hpp"
#include "src/apps/radix.hpp"
#include "src/apps/raytrace.hpp"
#include "src/apps/volrend.hpp"
#include "src/core/simulator.hpp"

namespace csim {
namespace {

MachineSpec mc(unsigned procs = 16, unsigned ppc = 2,
                 std::size_t cache = 0) {
  MachineSpec c;
  c.num_procs = procs;
  c.procs_per_cluster = ppc;
  c.cache.per_proc_bytes = cache;
  return c;
}

// --- Partition helpers -----------------------------------------------------

TEST(Partition, BlockPartitionCoversExactly) {
  for (std::size_t n : {1ul, 7ul, 64ul, 1000ul}) {
    for (unsigned P : {1u, 3u, 16u, 64u}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (ProcId p = 0; p < P; ++p) {
        const BlockRange r = block_partition(n, P, p);
        EXPECT_EQ(r.begin, prev_end);
        prev_end = r.end;
        covered += r.size();
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(Partition, ProcGridFactorsSquarely) {
  EXPECT_EQ(make_proc_grid(64).rows, 8u);
  EXPECT_EQ(make_proc_grid(64).cols, 8u);
  EXPECT_EQ(make_proc_grid(16).rows, 4u);
  EXPECT_EQ(make_proc_grid(32).rows * make_proc_grid(32).cols, 32u);
  EXPECT_EQ(make_proc_grid(1).rows, 1u);
}

TEST(Partition, TilesCoverDomain) {
  const ProcGrid g = make_proc_grid(16);
  std::vector<int> hit(100 * 100, 0);
  for (ProcId p = 0; p < 16; ++p) {
    const Tile t = tile_of(100, 100, g, p);
    for (std::size_t r = t.row_begin; r < t.row_end; ++r) {
      for (std::size_t c = t.col_begin; c < t.col_end; ++c) {
        ++hit[r * 100 + c];
      }
    }
  }
  for (int h : hit) EXPECT_EQ(h, 1);
}

TEST(Partition, CyclicTilesCoverDomainOnce) {
  const ProcGrid g = make_proc_grid(16);
  std::vector<int> hit(64 * 64, 0);
  for (ProcId p = 0; p < 16; ++p) {
    for (const Tile& t : cyclic_tiles(64, 64, 8, g, p)) {
      for (std::size_t r = t.row_begin; r < t.row_end; ++r) {
        for (std::size_t c = t.col_begin; c < t.col_end; ++c) {
          ++hit[r * 64 + c];
        }
      }
    }
  }
  for (int h : hit) EXPECT_EQ(h, 1);
}

TEST(Prng, DeterministicAndDistinctStreams) {
  Rng a(1), b(1), c(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool differs = false;
  Rng a2(1);
  for (int i = 0; i < 10; ++i) differs |= (a2.next() != c.next());
  EXPECT_TRUE(differs);
}

TEST(Prng, UniformInRange) {
  Rng r(42);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(r.below(17), 17u);
  }
}

// --- Octree ----------------------------------------------------------------

TEST(Octree, PartitionsPointsExactly) {
  Rng rng(7);
  std::vector<Vec3> pts;
  for (int i = 0; i < 500; ++i) {
    pts.push_back(Vec3{rng.uniform(), rng.uniform(), rng.uniform()});
  }
  PointOctree t;
  t.build(pts, {}, 8);
  EXPECT_EQ(t.point_order().size(), pts.size());
  std::vector<int> seen(pts.size(), 0);
  for (int i : t.point_order()) ++seen[static_cast<std::size_t>(i)];
  for (int s : seen) EXPECT_EQ(s, 1);
  EXPECT_NEAR(t.root().mass, 500.0, 1e-9);
}

TEST(Octree, LeavesRespectCapacity) {
  Rng rng(9);
  std::vector<Vec3> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back(Vec3{rng.uniform(), rng.uniform(), rng.uniform()});
  }
  PointOctree t;
  t.build(pts, {}, 4);
  for (const auto& n : t.nodes()) {
    if (n.leaf()) {
      EXPECT_LE(n.num_points, 4);
    }
  }
}

TEST(Octree, CenterOfMassIsWeightedAverage) {
  std::vector<Vec3> pts = {{0, 0, 0}, {1, 0, 0}};
  std::vector<double> m = {1.0, 3.0};
  PointOctree t;
  t.build(pts, m, 1);
  EXPECT_NEAR(t.root().com.x, 0.75, 1e-12);
  EXPECT_NEAR(t.root().mass, 4.0, 1e-12);
}

// --- Applications ----------------------------------------------------------

TEST(AppLu, FactorizationVerifiesAgainstReconstruction) {
  LuApp app(LuConfig::preset(ProblemScale::Test));
  EXPECT_NO_THROW(simulate(app, mc()));  // verify() runs inside
}

TEST(AppLu, RejectsBadBlockSize) {
  LuConfig c;
  c.n = 100;
  c.block = 16;
  LuApp app(c);
  EXPECT_THROW(simulate(app, mc()), std::invalid_argument);
}

TEST(AppFft, MatchesDirectDftAtTestScale) {
  FftApp app(FftConfig::preset(ProblemScale::Test));
  EXPECT_NO_THROW(simulate(app, mc()));
}

TEST(AppFft, RejectsNonSquareSize) {
  FftConfig c;
  c.n = 1000;
  FftApp app(c);
  EXPECT_THROW(simulate(app, mc()), std::invalid_argument);
}

TEST(AppOcean, ResidualFalls) {
  OceanApp app(OceanConfig::preset(ProblemScale::Test));
  (void)simulate(app, mc());
  EXPECT_GT(app.initial_residual(), 0.0);
  EXPECT_LT(app.final_residual(), 0.9 * app.initial_residual());
}

TEST(AppOcean, SmallProblemHalvesTheInteriorAndRunsOn64Processors) {
  EXPECT_EQ(OceanConfig::small_problem(ProblemScale::Default).n, 66u);
  const OceanConfig c = OceanConfig::small_problem(ProblemScale::Test);
  EXPECT_EQ(c.n, 18u);
  // fig3_ocean_small --test: 16 interior rows over an 8x8 processor grid.
  OceanApp app(c);
  EXPECT_NO_THROW(simulate(app, mc(64, 8)));  // verify() runs inside
  EXPECT_LT(app.final_residual(), app.initial_residual());
}

TEST(AppOcean, RejectsBadMultigridDepth) {
  OceanConfig c;
  c.n = 34;  // interior 32
  c.mg_levels = 6;
  OceanApp app(c);
  EXPECT_THROW(simulate(app, mc()), std::invalid_argument);
}

TEST(AppRadix, SortsAndPreservesMultiset) {
  RadixApp app(RadixConfig::preset(ProblemScale::Test));
  EXPECT_NO_THROW(simulate(app, mc()));  // verify(): sorted + permutation
}

TEST(AppRadix, RejectsNonPowerOfTwoRadix) {
  RadixConfig c;
  c.radix = 100;
  RadixApp app(c);
  EXPECT_THROW(simulate(app, mc()), std::invalid_argument);
}

TEST(AppBarnes, ForcesMatchDirectSummation) {
  BarnesConfig c = BarnesConfig::preset(ProblemScale::Test);
  BarnesApp app(c);
  (void)simulate(app, mc());
  // Spot-check beyond the built-in verify threshold: median error small.
  double total_err = 0;
  int n = 0;
  for (std::size_t i = 0; i < c.bodies; i += 10, ++n) {
    const Vec3 bh = app.bh_accel(i);
    const Vec3 ref = app.direct_accel(i);
    total_err += std::sqrt((bh - ref).norm2()) /
                 (std::sqrt(ref.norm2()) + 1e-12);
  }
  EXPECT_LT(total_err / n, 0.1) << "mean BH force error vs direct sum";
}

TEST(AppFmm, CoverageInvariantHolds) {
  FmmApp app(FmmConfig::preset(ProblemScale::Test));
  EXPECT_NO_THROW(simulate(app, mc()));
}

TEST(AppMp3d, ConservesParticles) {
  Mp3dApp app(Mp3dConfig::preset(ProblemScale::Test));
  EXPECT_NO_THROW(simulate(app, mc()));
}

TEST(AppRaytrace, ImageIdenticalAcrossMachineConfigs) {
  // The rendered image is a function of the scene only — machine
  // organization must not change the computation's result.
  RaytraceApp a(RaytraceConfig::preset(ProblemScale::Test));
  (void)simulate(a, mc(16, 1, 0));
  const auto h1 = a.image_checksum();
  RaytraceApp b(RaytraceConfig::preset(ProblemScale::Test));
  (void)simulate(b, mc(16, 8, 4 * 1024));
  EXPECT_EQ(h1, b.image_checksum());
  EXPECT_GT(a.hit_count(), 0u);
}

TEST(AppVolrend, ImageIdenticalAcrossMachineConfigs) {
  VolrendApp a(VolrendConfig::preset(ProblemScale::Test));
  (void)simulate(a, mc(16, 1, 0));
  const auto h1 = a.image_checksum();
  VolrendApp b(VolrendConfig::preset(ProblemScale::Test));
  (void)simulate(b, mc(16, 8, 4 * 1024));
  EXPECT_EQ(h1, b.image_checksum());
}

TEST(AppVolrend, EarlyTerminationAndSkippingActive) {
  VolrendApp app(VolrendConfig::preset(ProblemScale::Default));
  (void)simulate(app, mc(16, 2, 0));
  EXPECT_GT(app.early_terminations(), 0u);
  EXPECT_GT(app.blocks_skipped(), 0u);
  EXPECT_GT(app.samples_taken(), 0u);
}

TEST(AppRegistry, AllNinePresentAndConstructible) {
  const auto names = app_names();
  ASSERT_EQ(names.size(), 9u);
  for (const auto& n : names) {
    EXPECT_NE(make_app(n, ProblemScale::Test), nullptr);
  }
  EXPECT_THROW(make_app("nonexistent"), std::invalid_argument);
}

TEST(AppScales, PaperPresetsMatchTable2) {
  // Table 2 of the paper.
  EXPECT_EQ(BarnesConfig::preset(ProblemScale::Paper).bodies, 8192u);
  EXPECT_EQ(FftConfig::preset(ProblemScale::Paper).n, 65536u);
  EXPECT_EQ(FmmConfig::preset(ProblemScale::Paper).bodies, 8192u);
  EXPECT_EQ(LuConfig::preset(ProblemScale::Paper).n, 512u);
  EXPECT_EQ(LuConfig::preset(ProblemScale::Paper).block, 16u);
  EXPECT_EQ(Mp3dConfig::preset(ProblemScale::Paper).particles, 50000u);
  EXPECT_EQ(OceanConfig::preset(ProblemScale::Paper).n, 130u);
  EXPECT_EQ(RadixConfig::preset(ProblemScale::Paper).n, 262144u);
  EXPECT_EQ(RadixConfig::preset(ProblemScale::Paper).radix, 256u);
  EXPECT_EQ(OceanConfig::small_problem(ProblemScale::Paper).n, 66u);
}

}  // namespace
}  // namespace csim
