// Protocol tests for CoherenceController: the Table 1 latency matrix, miss
// taxonomy, instantaneous invalidations, merge semantics, pending-line
// invalidation, downgrades, replacement hints, and the per-line hit-filter
// kills.
#include "src/mem/coherence.hpp"

#include <gtest/gtest.h>

#include "tests/mem/hint_generations.hpp"

namespace csim {
namespace {

using Kind = AccessResult::Kind;

// 4 clusters of 1 proc, one page per cluster home via explicit placement.
class CoherenceFixture : public ::testing::Test {
 protected:
  CoherenceFixture() {
    cfg_.num_procs = 4;
    cfg_.procs_per_cluster = 1;
    cfg_.cache.per_proc_bytes = 0;  // infinite unless a test overrides
    base_ = as_.alloc(4 * 4096, "mem");
    for (ProcId p = 0; p < 4; ++p) as_.place(page(p), 4096, p);
  }
  Addr page(unsigned c) const { return base_ + c * 4096; }

  void make(std::size_t per_proc_bytes = 0) {
    cfg_.cache.per_proc_bytes = per_proc_bytes;
    coh_ = std::make_unique<CoherenceController>(
        std::make_shared<const MachineSpec>(cfg_), as_);
  }
  std::vector<std::uint64_t> generations() const {
    return test::all_generations(*coh_, cfg_.num_clusters());
  }

  MachineSpec cfg_;
  AddressSpace as_;
  Addr base_ = 0;
  std::unique_ptr<CoherenceController> coh_;
};

TEST_F(CoherenceFixture, ColdReadAtHomeIsLocalClean30) {
  make();
  const auto r = coh_->read(0, page(0), 0);
  EXPECT_EQ(r.kind, Kind::ReadMiss);
  EXPECT_EQ(r.lclass, LatencyClass::LocalClean);
  EXPECT_EQ(r.latency, 30u);
  EXPECT_EQ(coh_->cluster_counters(0).cold_misses, 1u);
}

TEST_F(CoherenceFixture, ColdReadRemoteHomeIs100) {
  make();
  const auto r = coh_->read(0, page(1), 0);
  EXPECT_EQ(r.lclass, LatencyClass::RemoteClean);
  EXPECT_EQ(r.latency, 100u);
}

TEST_F(CoherenceFixture, LocalHomeDirtyRemoteIs100) {
  make();
  (void)coh_->write(1, page(0), 0);     // cluster 1 owns cluster 0's line
  const auto r = coh_->read(0, page(0), 500);
  EXPECT_EQ(r.kind, Kind::ReadMiss);
  EXPECT_EQ(r.lclass, LatencyClass::LocalDirtyRemote);
  EXPECT_EQ(r.latency, 100u);
}

TEST_F(CoherenceFixture, RemoteHomeDirtyThirdPartyIs150) {
  make();
  (void)coh_->write(2, page(1), 0);     // third party owns
  const auto r = coh_->read(0, page(1), 500);
  EXPECT_EQ(r.lclass, LatencyClass::RemoteDirtyThird);
  EXPECT_EQ(r.latency, 150u);
}

TEST_F(CoherenceFixture, RemoteHomeDirtyAtHomeIsTwoHops100) {
  make();
  (void)coh_->write(1, page(1), 0);     // home itself owns
  const auto r = coh_->read(0, page(1), 500);
  EXPECT_EQ(r.lclass, LatencyClass::RemoteClean);
  EXPECT_EQ(r.latency, 100u);
}

TEST_F(CoherenceFixture, ReadAfterFillHits) {
  make();
  const auto m = coh_->read(0, page(0), 0);
  const auto h = coh_->read(0, page(0), m.ready_at + 1);
  EXPECT_EQ(h.kind, Kind::Hit);
  EXPECT_EQ(coh_->cluster_counters(0).read_hits, 1u);
}

TEST_F(CoherenceFixture, ReadBeforeFillMerges) {
  make();
  const auto m = coh_->read(0, page(0), 0);
  const auto g = coh_->read(0, page(0), 10);
  EXPECT_EQ(g.kind, Kind::Merge);
  EXPECT_EQ(g.ready_at, m.ready_at);
  EXPECT_EQ(coh_->cluster_counters(0).merges, 1u);
}

TEST_F(CoherenceFixture, SameLineDifferentWordsShareTheLine) {
  make();
  (void)coh_->read(0, page(0), 0);
  const auto h = coh_->read(0, page(0) + 32, 100);
  EXPECT_EQ(h.kind, Kind::Hit) << "spatial prefetching within the line";
}

TEST_F(CoherenceFixture, WriteMissFetchesExclusiveAndIsHidden) {
  make();
  const auto w = coh_->write(0, page(1), 0);
  EXPECT_EQ(w.kind, Kind::WriteMiss);
  EXPECT_EQ(w.lclass, LatencyClass::RemoteClean);
  // A read after the fill hits on the exclusive copy.
  const auto h = coh_->read(0, page(1), w.ready_at + 1);
  EXPECT_EQ(h.kind, Kind::Hit);
  // Directory says cluster 0 is exclusive owner.
  EXPECT_EQ(coh_->directory().peek(page(1)).state, DirState::Exclusive);
  EXPECT_EQ(coh_->directory().peek(page(1)).owner(), 0u);
}

TEST_F(CoherenceFixture, WriteToSharedLineIsUpgrade) {
  make();
  auto r = coh_->read(0, page(0), 0);
  const auto u = coh_->write(0, page(0), r.ready_at + 1);
  EXPECT_EQ(u.kind, Kind::UpgradeMiss);
  EXPECT_EQ(coh_->cluster_counters(0).upgrade_misses, 1u);
  EXPECT_EQ(coh_->directory().peek(page(0)).state, DirState::Exclusive);
}

TEST_F(CoherenceFixture, UpgradeInvalidatesOtherSharersInstantly) {
  make();
  auto r0 = coh_->read(0, page(0), 0);
  auto r1 = coh_->read(1, page(0), 0);
  (void)coh_->write(0, page(0), std::max(r0.ready_at, r1.ready_at) + 1);
  EXPECT_EQ(coh_->cluster_counters(1).invalidations, 1u);
  // Cluster 1 re-misses; the data is dirty at the home cluster itself, so
  // the home satisfies the request in two hops (100 cycles).
  const auto r = coh_->read(1, page(0), 1000);
  EXPECT_EQ(r.kind, Kind::ReadMiss);
  EXPECT_EQ(r.lclass, LatencyClass::RemoteClean);
}

TEST_F(CoherenceFixture, ReadDowngradesRemoteExclusiveToShared) {
  make();
  auto w = coh_->write(1, page(0), 0);
  (void)coh_->read(0, page(0), w.ready_at + 1);
  const DirEntry e = coh_->directory().peek(page(0));
  EXPECT_EQ(e.state, DirState::Shared);
  EXPECT_TRUE(e.has(0));
  EXPECT_TRUE(e.has(1));
  // The former owner still hits (kept a SHARED copy).
  const auto h = coh_->read(1, page(0), w.ready_at + 500);
  EXPECT_EQ(h.kind, Kind::Hit);
}

TEST_F(CoherenceFixture, InvalidationKillsPendingFill) {
  make();
  (void)coh_->read(0, page(0), 0);        // fill in flight until t=30
  (void)coh_->write(1, page(0), 5);       // instantly invalidates the fill
  // After the fill time, cluster 0 must *miss* again (install suppressed).
  const auto r = coh_->read(0, page(0), 200);
  EXPECT_EQ(r.kind, Kind::ReadMiss);
  EXPECT_EQ(coh_->cluster_counters(0).invalidations, 1u);
}

TEST_F(CoherenceFixture, PendingExclusiveFillAbsorbsStores) {
  make();
  (void)coh_->write(0, page(1), 0);
  const auto w2 = coh_->write(0, page(1), 10);  // before the fill arrives
  EXPECT_EQ(w2.kind, Kind::Hit);
  EXPECT_EQ(coh_->cluster_counters(0).write_hits, 1u);
}

TEST_F(CoherenceFixture, WriteUpgradesOwnPendingSharedFill) {
  make();
  (void)coh_->read(0, page(0), 0);             // SHARED fill in flight
  const auto u = coh_->write(0, page(0), 10);  // upgrade the pending fill
  EXPECT_EQ(u.kind, Kind::UpgradeMiss);
  // After fill the line is EXCLUSIVE: another write hits.
  const auto w = coh_->write(0, page(0), 100);
  EXPECT_EQ(w.kind, Kind::Hit);
}

TEST_F(CoherenceFixture, PendingSharedDowngradeOnConcurrentWriteMiss) {
  make();
  // Cluster 0's write-miss fill is in flight; cluster 1 reads: the pending
  // EXCLUSIVE install must be downgraded to SHARED.
  (void)coh_->write(0, page(0), 0);
  (void)coh_->read(1, page(0), 10);
  const auto u = coh_->write(0, page(0), 200);  // line installed SHARED now
  EXPECT_EQ(u.kind, Kind::UpgradeMiss)
      << "owner's fill was downgraded, so the later store upgrades";
}

TEST_F(CoherenceFixture, EvictionSendsReplacementHint) {
  make(2 * 64);  // two lines per cluster cache
  auto r = coh_->read(0, page(0), 0);
  Cycles t = r.ready_at + 1;
  (void)coh_->read(0, page(0) + 64, t);
  t += 200;
  (void)coh_->read(0, page(0) + 128, t);  // evicts page(0) line 0
  t += 200;
  // Lazy install happens on the next access; settle everything:
  (void)coh_->read(0, page(0) + 128, t);
  EXPECT_GE(coh_->cluster_counters(0).evictions, 1u);
  EXPECT_EQ(coh_->directory().peek(page(0)).count(), 0u)
      << "replacement hint must remove the cluster from the sharer vector";
}

// Per-line hit-filter generations (docs/PERFORMANCE.md §3): each kill bumps
// the affected line's counter in the affected cluster and no other counter,
// so a kill in one counter leaves hints under another alive.
TEST_F(CoherenceFixture, EvictionKillsOnlyTheVictimsHints) {
  make(2 * 64);  // two lines per cluster cache
  Cycles t = coh_->read(0, page(0), 0).ready_at + 1;
  t = coh_->read(0, page(0) + 64, t).ready_at + 1;
  const auto before = generations();
  (void)coh_->read(0, page(0) + 128, t);  // evicts page(0)'s first line
  test::expect_one_kill(before, generations(), 0, page(0));
}

TEST_F(CoherenceFixture, DemotionKillsOnlyTheOwnersHintsForTheLine) {
  make();
  const Cycles t = coh_->write(1, page(0), 0).ready_at + 1;  // 1 owns it
  const auto before = generations();
  (void)coh_->read(0, page(0), t);  // demotes cluster 1's copy
  test::expect_one_kill(before, generations(), 1, page(0));
}

TEST_F(CoherenceFixture, InvalidationKillsOnlyTheDroppedLinesHints) {
  make();
  const Cycles t = coh_->read(0, page(0), 0).ready_at + 1;
  const auto before = generations();
  (void)coh_->write(1, page(0), t);  // drops cluster 0's copy
  test::expect_one_kill(before, generations(), 0, page(0));
}

TEST_F(CoherenceFixture, ColdMissesCountedOncePerLine) {
  make();
  (void)coh_->read(0, page(0), 0);
  (void)coh_->read(1, page(0), 0);  // cold for the machine? No: second access
  EXPECT_EQ(coh_->cluster_counters(0).cold_misses +
                coh_->cluster_counters(1).cold_misses,
            1u);
}

TEST_F(CoherenceFixture, HomeAssignmentUsesPlacement) {
  make();
  for (unsigned c = 0; c < 4; ++c) {
    EXPECT_EQ(coh_->home_of(page(c)), c);
  }
}

TEST_F(CoherenceFixture, CountersAggregate) {
  make();
  (void)coh_->read(0, page(0), 0);
  (void)coh_->write(1, page(1), 0);
  const MissCounters t = coh_->totals();
  EXPECT_EQ(t.reads, 1u);
  EXPECT_EQ(t.writes, 1u);
  EXPECT_EQ(t.read_misses, 1u);
  EXPECT_EQ(t.write_misses, 1u);
  EXPECT_EQ(t.total_misses(), 2u);
}

TEST_F(CoherenceFixture, SharedClusterCacheServesClusterMates) {
  cfg_.num_procs = 4;
  cfg_.procs_per_cluster = 2;  // procs {0,1} share, {2,3} share
  make();
  const auto m = coh_->read(0, page(0), 0);
  const auto h = coh_->read(1, page(0), m.ready_at + 1);
  EXPECT_EQ(h.kind, Kind::Hit) << "cluster-mate must hit on the shared copy";
  const auto m2 = coh_->read(2, page(0), m.ready_at + 1);
  EXPECT_EQ(m2.kind, Kind::ReadMiss) << "other cluster still misses";
}

}  // namespace
}  // namespace csim
