// Analysis-layer tests: bank conflicts (Table 4 exact), latency expansion
// (Table 5 substitute), shared-cache cost estimator (Tables 6/7 machinery).
#include <gtest/gtest.h>

#include "src/analysis/bank_conflict.hpp"
#include "src/analysis/latency_expansion.hpp"
#include "src/analysis/shared_cache_cost.hpp"

namespace csim {
namespace {

TEST(BankConflict, Table4Exact) {
  const auto rows = bank_conflict_table();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_DOUBLE_EQ(rows[0].collision_probability, 0.0);
  EXPECT_NEAR(rows[1].collision_probability, 0.125, 5e-4);
  EXPECT_NEAR(rows[2].collision_probability, 0.176, 5e-4);
  EXPECT_NEAR(rows[3].collision_probability, 0.199, 5e-4);
  EXPECT_EQ(rows[1].banks, 8u);
  EXPECT_EQ(rows[2].banks, 16u);
  EXPECT_EQ(rows[3].banks, 32u);
}

TEST(BankConflict, EdgeCases) {
  EXPECT_DOUBLE_EQ(bank_conflict_probability(0, 8), 0.0);
  EXPECT_DOUBLE_EQ(bank_conflict_probability(16, 1), 0.0);
  EXPECT_DOUBLE_EQ(bank_conflict_probability(1, 8), 1.0)
      << "one bank, several processors: certain collision";
}

TEST(BankConflict, MonotonicInProcsAndBanks) {
  for (unsigned n = 2; n <= 16; ++n) {
    EXPECT_GT(bank_conflict_probability(32, n + 1),
              bank_conflict_probability(32, n));
  }
  for (unsigned m = 2; m <= 64; m *= 2) {
    EXPECT_LT(bank_conflict_probability(m * 2, 8),
              bank_conflict_probability(m, 8));
  }
}

TEST(LatencyExpansion, UnitAtOneCycle) {
  LatencyExpansionModel m;
  EXPECT_DOUBLE_EQ(m.factor(1), 1.0);
  EXPECT_DOUBLE_EQ(m.factor(0), 1.0);
}

TEST(LatencyExpansion, MonotonicInLatency) {
  LatencyExpansionModel m;
  m.loads_per_cycle = 0.25;
  EXPECT_GT(m.factor(2), m.factor(1));
  EXPECT_GT(m.factor(3), m.factor(2));
  EXPECT_GT(m.factor(4), m.factor(3));
}

TEST(LatencyExpansion, ScalesWithLoadDensity) {
  LatencyExpansionModel lo, hi;
  lo.loads_per_cycle = 0.1;
  hi.loads_per_cycle = 0.3;
  EXPECT_GT(hi.factor(3), lo.factor(3));
}

TEST(LatencyExpansion, PaperTableContents) {
  ASSERT_EQ(paper_table5().size(), 6u);
  const auto lu = paper_expansion("lu");
  ASSERT_TRUE(lu.has_value());
  EXPECT_DOUBLE_EQ(lu->f2, 1.055);
  EXPECT_DOUBLE_EQ(lu->factor(4), 1.173);
  EXPECT_DOUBLE_EQ(lu->factor(1), 1.0);
  EXPECT_FALSE(paper_expansion("fft").has_value());
}

TEST(LatencyExpansion, FitReproducesPaperRowsClosely) {
  for (const auto& row : paper_table5()) {
    const LatencyExpansionModel fit = fit_model_to(row);
    EXPECT_NEAR(fit.factor(2), row.f2, 0.01) << row.app;
    EXPECT_NEAR(fit.factor(3), row.f3, 0.01) << row.app;
    EXPECT_NEAR(fit.factor(4), row.f4, 0.01) << row.app;
  }
}

TEST(SharedCacheCost, HitLatencyMatchesTable1) {
  EXPECT_EQ(SharedCacheCostModel::shared_hit_latency(1), 1u);
  EXPECT_EQ(SharedCacheCostModel::shared_hit_latency(2), 2u);
  EXPECT_EQ(SharedCacheCostModel::shared_hit_latency(4), 3u);
  EXPECT_EQ(SharedCacheCostModel::shared_hit_latency(8), 3u);
}

TEST(SharedCacheCost, NoCostAtOneWay) {
  SharedCacheCostModel m;
  EXPECT_DOUBLE_EQ(m.multiplier("lu", 0.25, 1), 1.0);
}

TEST(SharedCacheCost, CostsGrowWithClusterSize) {
  SharedCacheCostModel m;
  const double m2 = m.multiplier("lu", 0.25, 2);
  const double m4 = m.multiplier("lu", 0.25, 4);
  const double m8 = m.multiplier("lu", 0.25, 8);
  EXPECT_GT(m2, 1.0);
  EXPECT_GT(m4, m2);
  EXPECT_GT(m8, m4) << "8-way has same hit latency but more bank conflicts";
}

TEST(SharedCacheCost, PaperFactorPreferenceFallsBackToModel) {
  SharedCacheCostModel with_paper;
  SharedCacheCostModel model_only;
  model_only.prefer_paper_factors = false;
  // lu is in Table 5: values differ unless rho happens to match.
  EXPECT_NE(with_paper.multiplier("lu", 0.05, 4),
            model_only.multiplier("lu", 0.05, 4));
  // fft is not in Table 5: both paths use the analytic model.
  EXPECT_DOUBLE_EQ(with_paper.multiplier("fft", 0.2, 4),
                   model_only.multiplier("fft", 0.2, 4));
}

TEST(SharedCacheCost, PaperLuMultipliersMatchHandComputation) {
  // 4-way: L=3, C=0.176; F(3)=1.114, F(4)=1.173 for lu.
  SharedCacheCostModel m;
  const double expect = (1 - 0.176) * 1.114 + 0.176 * 1.173;
  EXPECT_NEAR(m.multiplier("lu", 0.0, 4), expect, 2e-3);
}

TEST(SharedCacheCost, MakeCostRowNormalizes) {
  SimResult a, b;
  a.app_name = b.app_name = "fft";
  a.config.procs_per_cluster = 1;
  b.config.procs_per_cluster = 4;
  a.per_proc.push_back(TimeBuckets{1000, 0, 0, 0});
  b.per_proc.push_back(TimeBuckets{900, 0, 0, 0});
  a.totals.reads = b.totals.reads = 100;
  const auto row = make_cost_row({a, b}, SharedCacheCostModel{});
  EXPECT_DOUBLE_EQ(row.sim_ratio[0], 1.0);
  EXPECT_DOUBLE_EQ(row.sim_ratio[1], 0.9);
  EXPECT_DOUBLE_EQ(row.relative_time[0], 1.0);
  EXPECT_GT(row.relative_time[1], row.sim_ratio[1])
      << "4-way multiplier must add cost";
}

TEST(SharedCacheCost, MakeCostRowRejectsMixedApps) {
  std::vector<SimResult> mixed(2);
  mixed[0].app_name = "fft";
  mixed[1].app_name = "lu";
  for (SimResult& r : mixed) r.per_proc.push_back(TimeBuckets{1, 0, 0, 0});
  EXPECT_THROW(make_cost_row(mixed, SharedCacheCostModel{}),
               std::invalid_argument);
  EXPECT_THROW(make_cost_row({}, SharedCacheCostModel{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace csim
