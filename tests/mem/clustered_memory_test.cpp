// Protocol tests for the shared-main-memory cluster organization
// (ClusteredMemorySystem): snoop transfers, attraction memory, bus
// invalidations, ownership kept within the cluster, the absence of
// destructive interference, and the per-line hit-filter kills.
#include "src/mem/clustered_memory.hpp"

#include <gtest/gtest.h>

#include "src/apps/app.hpp"
#include "src/core/simulator.hpp"
#include "tests/mem/hint_generations.hpp"

namespace csim {
namespace {

using Kind = AccessResult::Kind;

class ClusteredMemoryFixture : public ::testing::Test {
 protected:
  ClusteredMemoryFixture() {
    cfg_.num_procs = 8;
    cfg_.procs_per_cluster = 4;  // clusters {0..3}, {4..7}
    cfg_.cluster_style = ClusterStyle::SharedMemory;
    cfg_.cache.per_proc_bytes = 0;  // infinite private caches by default
    base_ = as_.alloc(2 * 4096, "mem");
    as_.place(base_, 4096, 0);         // page 0 home: cluster 0
    as_.place(base_ + 4096, 4096, 4);  // page 1 home: cluster 1
  }
  Addr page(unsigned c) const { return base_ + c * 4096; }
  void make(std::size_t private_bytes = 0) {
    cfg_.cache.per_proc_bytes = private_bytes;
    mem_ = std::make_unique<ClusteredMemorySystem>(
        std::make_shared<const MachineSpec>(cfg_), as_);
  }
  std::vector<std::uint64_t> generations() const {
    return test::all_generations(*mem_, cfg_.num_clusters());
  }

  MachineSpec cfg_;
  AddressSpace as_;
  Addr base_ = 0;
  std::unique_ptr<ClusteredMemorySystem> mem_;
};

TEST_F(ClusteredMemoryFixture, ColdReadIsGlobalMiss) {
  make();
  const auto r = mem_->read(0, page(0), 0);
  EXPECT_EQ(r.kind, Kind::ReadMiss);
  EXPECT_EQ(r.latency, 30u);  // local home
  EXPECT_TRUE(mem_->in_attraction(0, page(0)));
}

TEST_F(ClusteredMemoryFixture, PeerSuppliesViaSnoop) {
  make();
  const auto m = mem_->read(0, page(0), 0);
  const auto s = mem_->read(1, page(0), m.ready_at + 1);
  EXPECT_EQ(s.kind, Kind::NearHit);
  EXPECT_EQ(s.latency, LatencyModel{}.snoop_transfer);
  EXPECT_EQ(mem_->cluster_counters(0).snoop_transfers, 1u);
  EXPECT_EQ(mem_->cluster_counters(0).read_misses, 1u)
      << "the snoop transfer is not a global miss";
}

TEST_F(ClusteredMemoryFixture, ClusterMemorySuppliesWhenNoPeerCopy) {
  make(64);  // one-line private caches force fallback to attraction memory
  const auto m = mem_->read(0, page(0), 0);
  // Proc 0 evicts the line from its private cache by reading another line.
  (void)mem_->read(0, page(0) + 64, m.ready_at + 1);
  // Proc 1 now finds no peer copy but the line is in the cluster memory.
  const auto g = mem_->read(1, page(0), m.ready_at + 300);
  EXPECT_EQ(g.kind, Kind::NearHit);
  EXPECT_EQ(g.latency, LatencyModel{}.cluster_memory);
  EXPECT_EQ(mem_->cluster_counters(0).cluster_memory_hits, 1u);
}

TEST_F(ClusteredMemoryFixture, OtherClusterStillMissesRemotely) {
  make();
  (void)mem_->read(0, page(0), 0);
  const auto r = mem_->read(4, page(0), 500);
  EXPECT_EQ(r.kind, Kind::ReadMiss);
  EXPECT_EQ(r.lclass, LatencyClass::RemoteClean);
}

TEST_F(ClusteredMemoryFixture, MergeOnClusterFill) {
  make();
  (void)mem_->read(0, page(0), 0);
  const auto g = mem_->read(1, page(0), 5);  // before the fill arrives
  EXPECT_EQ(g.kind, Kind::Merge);
  EXPECT_EQ(mem_->cluster_counters(0).merges, 1u);
}

TEST_F(ClusteredMemoryFixture, WriteUpgradeInvalidatesPeersOnBus) {
  make();
  auto m = mem_->read(0, page(0), 0);
  (void)mem_->read(1, page(0), m.ready_at + 1);
  (void)mem_->write(0, page(0), m.ready_at + 100);
  EXPECT_EQ(mem_->cluster_counters(0).upgrade_misses, 1u);
  EXPECT_GE(mem_->cluster_counters(0).bus_invalidations, 1u);
  // Peer re-misses in its private cache but is served inside the cluster:
  // ownership stayed within the cluster (cache-to-cache transfer).
  const auto s = mem_->read(1, page(0), m.ready_at + 200);
  EXPECT_EQ(s.kind, Kind::NearHit);
  EXPECT_EQ(s.latency, LatencyModel{}.snoop_transfer);
}

TEST_F(ClusteredMemoryFixture, OwnershipKeptWithinClusterOnPeerWrite) {
  make();
  auto m = mem_->write(0, page(0), 0);  // cluster 0 exclusive
  // A different proc of the same cluster writes: no directory action, just a
  // bus transfer; the directory still shows cluster 0 exclusive.
  (void)mem_->write(1, page(0), m.ready_at + 1);
  EXPECT_EQ(mem_->directory().peek(page(0)).state, DirState::Exclusive);
  EXPECT_EQ(mem_->directory().peek(page(0)).owner(), 0u);
  EXPECT_EQ(mem_->cluster_counters(0).upgrade_misses, 0u)
      << "intra-cluster ownership transfer must not upgrade at the directory";
}

TEST_F(ClusteredMemoryFixture, RemoteInvalidationPurgesWholeCluster) {
  make();
  auto m = mem_->read(0, page(0), 0);
  (void)mem_->read(1, page(0), m.ready_at + 1);
  (void)mem_->write(4, page(0), m.ready_at + 100);  // other cluster writes
  EXPECT_EQ(mem_->cluster_counters(0).invalidations, 1u);
  EXPECT_FALSE(mem_->in_attraction(0, page(0)));
  const auto r = mem_->read(0, page(0), m.ready_at + 500);
  EXPECT_EQ(r.kind, Kind::ReadMiss) << "attraction copy must be gone";
}

TEST_F(ClusteredMemoryFixture, ReadDowngradesRemoteOwnerCluster) {
  make();
  auto w = mem_->write(4, page(0), 0);
  (void)mem_->read(0, page(0), w.ready_at + 1);
  EXPECT_EQ(mem_->directory().peek(page(0)).state, DirState::Shared);
  // The former owner still hits locally.
  const auto h = mem_->read(4, page(0), w.ready_at + 300);
  EXPECT_EQ(h.kind, Kind::Hit);
}

TEST_F(ClusteredMemoryFixture, PrivateEvictionFallsBackToAttraction) {
  make(64);  // one line per private cache
  auto m = mem_->read(0, page(0), 0);
  (void)mem_->read(0, page(0) + 64, m.ready_at + 1);  // evicts line 0
  EXPECT_TRUE(mem_->in_attraction(0, page(0)))
      << "attraction memory is effectively infinite";
  EXPECT_GE(mem_->cluster_counters(0).evictions, 1u);
  // Re-read: cluster memory, not a global miss.
  const auto g = mem_->read(0, page(0), m.ready_at + 300);
  EXPECT_EQ(g.kind, Kind::NearHit);
}

TEST_F(ClusteredMemoryFixture, NoDestructiveInterferenceBetweenPeers) {
  // "In clustered memory systems destructive interference does not exist,
  // since the caches are separate." Proc 1 streaming many lines must not
  // evict proc 0's working line.
  make(2 * 64);
  auto m = mem_->read(0, page(0), 0);
  Cycles t = m.ready_at + 1;
  for (unsigned i = 1; i < 32; ++i) {
    t = mem_->read(1, page(0) + i * 64, t).ready_at + 1;
  }
  const auto h = mem_->read(0, page(0), t);
  EXPECT_EQ(h.kind, Kind::Hit)
      << "peer streaming must not displace another processor's private line";
}

// Per-line hit-filter generations (docs/PERFORMANCE.md §3): each kill bumps
// the affected line's counter in the affected cluster and no other counter,
// so a kill in one counter leaves hints under another alive.
TEST_F(ClusteredMemoryFixture, PrivateEvictionKillsOnlyTheVictimsHints) {
  make(64);  // one line per private cache
  const Cycles t = mem_->read(0, page(0), 0).ready_at + 1;
  const auto before = generations();
  (void)mem_->read(0, page(0) + 64, t);  // page(0) falls back to attraction
  test::expect_one_kill(before, generations(), 0, page(0));
}

TEST_F(ClusteredMemoryFixture, OwnerDemotionKillsOnlyItsHintsForTheLine) {
  make();
  const Cycles t = mem_->write(4, page(0), 0).ready_at + 1;  // cluster 1 owns
  const auto before = generations();
  (void)mem_->read(0, page(0), t);  // demotes cluster 1's copies
  test::expect_one_kill(before, generations(), 1, page(0));
}

TEST_F(ClusteredMemoryFixture, RemoteInvalidationKillsOnlyThePurgedHints) {
  make();
  const Cycles t = mem_->read(0, page(0), 0).ready_at + 1;
  const auto before = generations();
  (void)mem_->write(4, page(0), t);  // purges cluster 0's copies
  test::expect_one_kill(before, generations(), 0, page(0));
}

TEST_F(ClusteredMemoryFixture, WriteAllocateFromClusterMemoryIsHidden) {
  make(64);
  auto m = mem_->read(0, page(0), 0);
  (void)mem_->read(0, page(0) + 64, m.ready_at + 1);  // evict to attraction
  const auto w = mem_->write(0, page(0), m.ready_at + 300);
  EXPECT_TRUE(w.kind == Kind::UpgradeMiss || w.kind == Kind::Hit);
}

class SharedMemoryApps : public ::testing::TestWithParam<std::string> {};

TEST_P(SharedMemoryApps, RunsAndVerifies) {
  auto app = make_app(GetParam(), ProblemScale::Test);
  MachineSpec cfg;
  cfg.num_procs = 16;
  cfg.procs_per_cluster = 4;
  cfg.cluster_style = ClusterStyle::SharedMemory;
  cfg.cache.per_proc_bytes = 4 * 1024;
  const SimResult r = simulate(*app, cfg);
  EXPECT_GT(r.wall_time, 0u);
  for (const auto& b : r.per_proc) EXPECT_EQ(b.total(), r.wall_time);
}

TEST_P(SharedMemoryApps, SameReferenceStreamAsSharedCache) {
  auto a = make_app(GetParam(), ProblemScale::Test);
  auto b = make_app(GetParam(), ProblemScale::Test);
  MachineSpec sc;
  sc.num_procs = 16;
  sc.procs_per_cluster = 4;
  sc.cache.per_proc_bytes = 8 * 1024;
  MachineSpec sm = sc;
  sm.cluster_style = ClusterStyle::SharedMemory;
  const SimResult rc = simulate(*a, sc);
  const SimResult rm = simulate(*b, sm);
  EXPECT_EQ(rc.totals.reads, rm.totals.reads);
  EXPECT_EQ(rc.totals.writes, rm.totals.writes);
}

INSTANTIATE_TEST_SUITE_P(AllApps, SharedMemoryApps,
                         ::testing::ValuesIn(app_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace csim
