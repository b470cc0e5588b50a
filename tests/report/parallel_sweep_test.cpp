// Parallel experiment sweeps must be bit-identical to serial simulation:
// each run is an isolated, deterministic, single-threaded simulation.
#include <gtest/gtest.h>

#include "src/apps/app.hpp"
#include "src/report/experiment.hpp"

namespace csim {
namespace {

TEST(ParallelSweep, MatchesSerialRuns) {
  auto factory = [] { return make_app("radix", ProblemScale::Test); };
  const auto sweep = sweep_clusters(factory, 8 * 1024, {1, 2, 4, 8});
  ASSERT_EQ(sweep.size(), 4u);
  for (const SimResult& r : sweep) {
    auto app = factory();
    const SimResult serial = simulate(*app, r.config);
    EXPECT_EQ(serial.wall_time, r.wall_time)
        << r.config.procs_per_cluster << "ppc";
    EXPECT_EQ(serial.totals.read_misses, r.totals.read_misses);
    EXPECT_EQ(serial.totals.merges, r.totals.merges);
  }
}

TEST(ParallelSweep, RunSweepPreservesOrder) {
  SweepRequest req;
  req.make_app = [] { return make_app("fft", ProblemScale::Test); };
  for (unsigned ppc : {8u, 1u, 4u, 2u}) {  // deliberately shuffled
    req.configs.push_back(paper_machine(ppc, 0));
  }
  const SweepResult res = run_sweep(req);
  ASSERT_EQ(res.size(), 4u);
  EXPECT_TRUE(res.all_ok());
  EXPECT_EQ(res.rows[0].config.procs_per_cluster, 8u);
  EXPECT_EQ(res.rows[1].config.procs_per_cluster, 1u);
  EXPECT_EQ(res.rows[2].config.procs_per_cluster, 4u);
  EXPECT_EQ(res.rows[3].config.procs_per_cluster, 2u);
}

TEST(ParallelSweep, CapturesFactoryFailuresInsteadOfThrowing) {
  // Graceful degradation: a throwing factory yields an ok == false row with
  // the diagnostics attached, not a sweep-wide exception.
  SweepRequest req;
  req.make_app = []() -> std::unique_ptr<Program> {
    throw std::runtime_error("factory failure");
  };
  req.configs = {paper_machine(1, 0)};
  const SweepResult res = run_sweep(req);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_FALSE(res.all_ok());
  ASSERT_EQ(res.failures(), 1u);
  EXPECT_FALSE(res.rows[0].ok);
  EXPECT_EQ(res.rows[0].error_kind, "exception");
  EXPECT_NE(res.rows[0].error.find("factory failure"), std::string::npos);
}

TEST(ParallelSweep, MinimalSweepRequestPreservesRowOrder) {
  // The smallest possible request — just make_app + configs — must keep
  // returning rows in request order (the contract the removed run_configs
  // shims used to provide).
  const auto results =
      run_sweep(SweepRequest{[] { return make_app("fft", ProblemScale::Test); },
                             {paper_machine(2, 0), paper_machine(1, 0)}})
          .rows;
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].config.procs_per_cluster, 2u);
  EXPECT_EQ(results[1].config.procs_per_cluster, 1u);
}

// One single-threaded row per host core: the pool is never wider than the
// host or the runnable rows, and never zero.
TEST(ParallelSweep, PoolWidthIsBoundedByRowsAndHostCores) {
  EXPECT_EQ(sweep_pool_width(16, 8), 8u);
  EXPECT_EQ(sweep_pool_width(4, 8), 4u);
  EXPECT_EQ(sweep_pool_width(3, 32), 3u);
  EXPECT_EQ(sweep_pool_width(0, 8), 1u);
  EXPECT_EQ(sweep_pool_width(5, 0), 1u);  // degenerate host report
}

}  // namespace
}  // namespace csim
