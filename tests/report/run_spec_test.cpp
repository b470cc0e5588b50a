// RunSpec (src/report/run_spec.hpp): the one row-assembly path shared by
// csim_cli flags and the service JSON protocol. The round-trip tests pin
// the contract that makes the two drivers equivalent: serializing a spec
// and parsing it back yields the same spec, and the same spec always
// yields the same MachineSpec rows.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/error.hpp"
#include "src/report/json.hpp"
#include "src/report/run_spec.hpp"

namespace csim {
namespace {

RunSpec roundtrip(const RunSpec& spec) {
  return RunSpec::from_json(json::parse(spec.to_json()));
}

TEST(RunSpec, DefaultRoundTripsThroughJson) {
  const RunSpec spec;
  EXPECT_EQ(roundtrip(spec), spec);
}

TEST(RunSpec, EveryFieldRoundTripsThroughJson) {
  RunSpec spec;
  spec.app = "barnes";
  spec.scale = ProblemScale::Paper;
  spec.procs = 32;
  spec.ppcs = {2, 8};
  spec.cache_kb = 16;
  spec.assoc = 4;
  spec.line_bytes = 32;
  spec.style = ClusterStyle::SharedMemory;
  spec.quantum = 1;
  spec.hit_costs = true;
  EXPECT_EQ(roundtrip(spec), spec);
}

TEST(RunSpec, ConfigsBuildOneRowPerClusterSize) {
  RunSpec spec;
  spec.procs = 16;
  spec.ppcs = {1, 4};
  spec.cache_kb = 16;
  const std::vector<MachineSpec> rows = spec.configs();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].procs_per_cluster, 1u);
  EXPECT_EQ(rows[1].procs_per_cluster, 4u);
  for (const MachineSpec& cfg : rows) {
    EXPECT_EQ(cfg.num_procs, 16u);
    EXPECT_EQ(cfg.cache.per_proc_bytes, 16u * 1024);
  }
}

TEST(RunSpec, SameSpecSameRows) {
  // The CLI and the service must agree row-for-row when given the same
  // fields; MachineSpec equality is the strongest form of that statement.
  RunSpec spec;
  spec.app = "fft";
  spec.cache_kb = 16;
  spec.hit_costs = true;
  const RunSpec again = roundtrip(spec);
  EXPECT_EQ(spec.configs(), again.configs());
}

TEST(RunSpec, FromJsonRejectsContradictions) {
  EXPECT_THROW((void)RunSpec::from_json(json::parse("{\"app\": \"nope\"}")),
               ConfigError);
  EXPECT_THROW((void)RunSpec::from_json(json::parse("7")), ConfigError);
}

}  // namespace
}  // namespace csim
