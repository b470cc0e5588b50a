#include "src/core/machine.hpp"

#include <gtest/gtest.h>

namespace csim {
namespace {

MachineSpec base() {
  MachineSpec c;
  c.num_procs = 64;
  c.procs_per_cluster = 4;
  c.cache.per_proc_bytes = 16 * 1024;
  return c;
}

TEST(MachineSpec, ClusterMath) {
  const MachineSpec c = base();
  EXPECT_EQ(c.num_clusters(), 16u);
  EXPECT_EQ(c.cluster_of(0), 0u);
  EXPECT_EQ(c.cluster_of(3), 0u);
  EXPECT_EQ(c.cluster_of(4), 1u);
  EXPECT_EQ(c.cluster_of(63), 15u);
  EXPECT_EQ(c.cluster_cache_bytes(), 64u * 1024);
  EXPECT_EQ(c.cluster_cache_lines(), 1024u);
}

TEST(MachineSpec, ValidAcceptsPaperConfigs) {
  for (unsigned ppc : {1u, 2u, 4u, 8u}) {
    for (std::size_t kb : {0ul, 4ul, 16ul, 32ul}) {
      MachineSpec c = base();
      c.procs_per_cluster = ppc;
      c.cache.per_proc_bytes = kb * 1024;
      EXPECT_NO_THROW(c.validate()) << ppc << " " << kb;
    }
  }
}

TEST(MachineSpec, RejectsNonDividingClusterSize) {
  MachineSpec c = base();
  c.procs_per_cluster = 5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(MachineSpec, RejectsZeroProcs) {
  MachineSpec c = base();
  c.num_procs = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(MachineSpec, RejectsNonPowerOfTwoLine) {
  MachineSpec c = base();
  c.cache.line_bytes = 48;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(MachineSpec, RejectsPageSmallerThanLine) {
  MachineSpec c = base();
  c.page_bytes = 32;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(MachineSpec, RejectsCacheNotMultipleOfLine) {
  MachineSpec c = base();
  c.cache.per_proc_bytes = 1000;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(MachineSpec, RejectsBadAssociativity) {
  MachineSpec c = base();
  c.cache.associativity = 7;  // 1024 lines not divisible by 7
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(MachineSpec, RejectsZeroQuantumAndHitLatency) {
  MachineSpec c = base();
  c.runahead_quantum = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = base();
  c.hit_latency = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(MachineSpec, RejectsMoreThan64Clusters) {
  MachineSpec c = base();
  c.num_procs = 128;
  c.procs_per_cluster = 1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(MachineSpec, ZeroBanksOnlyValidWhenNoModelUsesBanks) {
  MachineSpec c = base();
  c.banks_per_proc = 0;
  EXPECT_NO_THROW(c.validate());
  c.contention.enabled = true;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = base();
  c.banks_per_proc = 0;
  c.model_shared_hit_costs = true;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(MachineSpec, Label) {
  MachineSpec c = base();
  EXPECT_EQ(c.label(), "64p/4ppc/16KB");
  c.cache.per_proc_bytes = 0;
  EXPECT_EQ(c.label(), "64p/4ppc/inf");
}

TEST(LatencyModel, Table1Values) {
  const LatencyModel m;
  EXPECT_EQ(m.of(LatencyClass::LocalClean), 30u);
  EXPECT_EQ(m.of(LatencyClass::LocalDirtyRemote), 100u);
  EXPECT_EQ(m.of(LatencyClass::RemoteClean), 100u);
  EXPECT_EQ(m.of(LatencyClass::RemoteDirtyThird), 150u);
}

TEST(LatencyModel, ClassNames) {
  EXPECT_EQ(to_string(LatencyClass::LocalClean), "local-clean");
  EXPECT_EQ(to_string(LatencyClass::RemoteDirtyThird), "remote-dirty-third");
}

}  // namespace
}  // namespace csim
