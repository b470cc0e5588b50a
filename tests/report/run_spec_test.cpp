// RunSpec (src/report/run_spec.hpp): configs() is the one builder path from
// csim_cli's row flags to run_sweep's rows.
#include <gtest/gtest.h>

#include <vector>

#include "src/report/run_spec.hpp"

namespace csim {
namespace {

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

}  // namespace
}  // namespace csim
