// Report-layer tests: text tables, figure rendering, CSV, bench options.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "src/core/error.hpp"
#include "src/report/experiment.hpp"
#include "src/report/figures.hpp"
#include "src/report/table.hpp"

namespace csim {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"app", "value"});
  t.add_row({"lu", "1.05"});
  t.add_row({"ocean", "0.99"});
  const std::string s = t.str();
  EXPECT_NE(s.find("app"), std::string::npos);
  EXPECT_NE(s.find("ocean"), std::string::npos);
  EXPECT_NE(s.find("1.05"), std::string::npos);
  // Header, separator, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(TextTable, HandlesShortRows) {
  TextTable t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NO_THROW((void)t.str());
}

TEST(Fmt, Formats) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(1.0, 0), "1");
  EXPECT_EQ(fmt_pct(0.977), "97.7");
}

SimResult fake_result(unsigned ppc, Cycles cpu, Cycles load, Cycles merge,
                      Cycles sync) {
  SimResult r;
  r.app_name = "fake";
  r.config.procs_per_cluster = ppc;
  r.per_proc.push_back(TimeBuckets{cpu, load, merge, sync});
  r.wall_time = cpu + load + merge + sync;
  return r;
}

/// A sweep of `rows` with default outcomes (ok, one attempt).
SweepResult sweep_of(std::vector<SimResult> rows) {
  SweepResult s;
  s.rows = std::move(rows);
  return s;
}

TEST(Figures, FirstBarIsHundred) {
  const auto bars =
      bars_from_sweep({fake_result(1, 60, 30, 0, 10), fake_result(2, 60, 15, 5, 10)});
  const std::string s = render_figure("test", bars);
  EXPECT_NE(s.find("100.0"), std::string::npos);
  EXPECT_NE(s.find("90.0"), std::string::npos);  // second bar total
  EXPECT_NE(s.find("1p"), std::string::npos);
  EXPECT_NE(s.find("2p"), std::string::npos);
}

TEST(Figures, GroupsRenormalize) {
  std::vector<FigureBar> bars;
  bars.push_back(FigureBar{"a/1p", TimeBuckets{200, 0, 0, 0}, true});
  bars.push_back(FigureBar{"a/2p", TimeBuckets{100, 0, 0, 0}, false});
  bars.push_back(FigureBar{"b/1p", TimeBuckets{50, 0, 0, 0}, true});
  bars.push_back(FigureBar{"b/2p", TimeBuckets{25, 0, 0, 0}, false});
  const std::string s = render_figure("test", bars);
  // Both groups show 100.0 then 50.0.
  std::size_t first100 = s.find("100.0");
  std::size_t second100 = s.find("100.0", first100 + 1);
  EXPECT_NE(second100, std::string::npos)
      << "each group must be normalized to its own first bar";
}

TEST(Experiment, PaperMachineDefaults) {
  const MachineSpec cfg = paper_machine(4, 16 * 1024);
  EXPECT_EQ(cfg.num_procs, 64u);
  EXPECT_EQ(cfg.procs_per_cluster, 4u);
  EXPECT_EQ(cfg.cache.line_bytes, 64u);
  EXPECT_EQ(cfg.cache.associativity, 0u);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Experiment, BenchOptionsParse) {
  const char* argv1[] = {"bench", "--paper"};
  auto o1 = BenchOptions::parse(2, const_cast<char**>(argv1));
  EXPECT_EQ(o1.scale, ProblemScale::Paper);
  const char* argv2[] = {"bench", "--test"};
  auto o2 = BenchOptions::parse(2, const_cast<char**>(argv2));
  EXPECT_EQ(o2.scale, ProblemScale::Test);
  auto o3 = BenchOptions::parse(1, nullptr);
  EXPECT_EQ(o3.scale, ProblemScale::Default);
}

TEST(Experiment, BenchOptionsRejectUnknownFlag) {
  // --procs is gone: every bench runs the 64-processor paper machine.
  for (const char* flag : {"--bogus", "--procs"}) {
    const char* argv[] = {"bench", flag, "16"};
    try {
      BenchOptions::parse_checked(3, const_cast<char**>(argv));
      FAIL() << "expected ConfigError for " << flag;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos);
    }
  }
}

TEST(Experiment, BenchOptionsParseCheckedAcceptsValidInput) {
  const char* argv[] = {"bench", "--paper"};
  const auto o = BenchOptions::parse_checked(2, const_cast<char**>(argv));
  EXPECT_EQ(o.scale, ProblemScale::Paper);
}

TEST(Experiment, CsvHasHeaderAndRows) {
  std::ostringstream os;
  write_csv(os, sweep_of({fake_result(1, 10, 5, 0, 1),
                          fake_result(2, 10, 3, 1, 1)}));
  const std::string s = os.str();
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 3);
  EXPECT_NE(s.find("app,scale,procs,ppc"), std::string::npos);
  EXPECT_NE(s.find("fake"), std::string::npos);
}

TEST(Experiment, CsvCarriesProblemScale) {
  SimResult paper = fake_result(1, 10, 5, 0, 1);
  paper.scale = ProblemScale::Paper;
  SimResult test = fake_result(2, 10, 3, 1, 1);
  test.scale = ProblemScale::Test;
  std::ostringstream os;
  write_csv(os, sweep_of({paper, test}));
  const std::string s = os.str();
  EXPECT_NE(s.find("fake,paper,"), std::string::npos);
  EXPECT_NE(s.find("fake,test,"), std::string::npos);
  EXPECT_EQ(s.find("default"), std::string::npos)
      << "scale must come from the result, not a hard-coded literal";
}

TEST(Experiment, CsvSkipsFailedRowsAndFailureTableIsQuietWhenClean) {
  SimResult ok = fake_result(1, 10, 5, 0, 1);
  SimResult bad = fake_result(2, 10, 3, 1, 1);
  bad.ok = false;
  bad.error_kind = "deadlock";
  bad.error = "deadlock: stuck";
  std::ostringstream csv;
  write_csv(csv, sweep_of({ok, bad}));
  const std::string s = csv.str();
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 2)
      << "header plus the one successful row";
  std::ostringstream clean;
  EXPECT_EQ(write_failures(clean, {ok}), 0u);
  EXPECT_TRUE(clean.str().empty());
  std::ostringstream dirty;
  EXPECT_EQ(write_failures(dirty, {ok, bad}), 1u);
  EXPECT_NE(dirty.str().find("deadlock"), std::string::npos);
}

TEST(Experiment, SweepRunsEveryClusterSize) {
  auto sweep = sweep_clusters(
      [] { return make_app("fft", ProblemScale::Test); }, 0, {1, 2});
  ASSERT_EQ(sweep.size(), 2u);
  EXPECT_EQ(sweep[0].config.procs_per_cluster, 1u);
  EXPECT_EQ(sweep[1].config.procs_per_cluster, 2u);
  EXPECT_EQ(sweep[0].totals.reads, sweep[1].totals.reads)
      << "same program, same reference count";
}

}  // namespace
}  // namespace csim
