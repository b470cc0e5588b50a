// CoherenceController: the invalidation-based directory protocol over shared
// cluster caches, implementing the paper's simulated architecture (Fig. 1).
//
// Protocol summary (Section 3.1 of the paper):
//  - Cache states INVALID / SHARED / EXCLUSIVE; directory NOT_CACHED /
//    SHARED / EXCLUSIVE (full bit vector of clusters, replacement hints).
//  - READ misses fetch in SHARED and stall the processor for the Table 1
//    latency. WRITE and UPGRADE misses are fully hidden (store buffers +
//    relaxed consistency) but still transfer ownership and create an
//    in-flight fill (WRITE) that later reads can MERGE on.
//  - Invalidations are instantaneous, and may invalidate a pending line.
//  - Directory/ownership transitions and cache-line allocation (with the
//    victim eviction) happen at request time; only the data arrival is
//    delayed, tracked by the MSHR for merge accounting.
#pragma once

#include <memory>
#include <vector>

#include "src/core/flat_map.hpp"
#include "src/core/machine.hpp"
#include "src/core/stats.hpp"
#include "src/core/types.hpp"
#include "src/mem/address_space.hpp"
#include "src/mem/cache.hpp"
#include "src/mem/directory.hpp"
#include "src/mem/memory_system.hpp"
#include "src/mem/mshr.hpp"

namespace csim {

class ContentionModel;

class CoherenceController final : public MemorySystem {
 public:
  /// Takes the run's shared immutable spec (no per-class config copy; every
  /// component of a run sees the same MachineSpec). Simulator::run builds
  /// one through make_memory_system (src/mem/memory_system.hpp).
  CoherenceController(std::shared_ptr<const MachineSpec> spec,
                      const AddressSpace& as);

  // Out of line: ContentionModel is only forward-declared here.
  ~CoherenceController() override;

  /// Processor `p` reads address `a` at time `now`.
  AccessResult read(ProcId p, Addr a, Cycles now) override;

  /// Processor `p` writes address `a` at time `now`.
  AccessResult write(ProcId p, Addr a, Cycles now) override;

  [[nodiscard]] const MissCounters& cluster_counters(
      ClusterId c) const override {
    return counters_[c];
  }
  [[nodiscard]] MissCounters totals() const override;

  /// Opts into the processor hit-filter fast path (docs/PERFORMANCE.md):
  /// repeat hits short-circuited by the processor bump these counters
  /// directly. Disabled under the contention model — every access must pass
  /// through its cluster's bank queue, so none may be short-circuited.
  [[nodiscard]] MissCounters* hot_counters(ClusterId c) noexcept override {
    return contention_ ? nullptr : &counters_[c];
  }

  /// Per-cluster hit-filter generation (docs/PERFORMANCE.md): bumped by
  /// invalidations, evictions, and owner downgrades hitting the cluster's
  /// cache. A hint can only go stale through one of those events — a fill
  /// for a hinted line would require the line to have left the cache first —
  /// so no per-access bump is needed; LRU exactness is the processor's job
  /// via touch_cache().
  [[nodiscard]] const std::uint64_t* generation_addr(
      ClusterId c) const noexcept override {
    return &gen_[c];
  }

  /// Bounded cluster caches are LRU: the processor must touch the line on
  /// every filtered hit to keep eviction order bit-identical to the slow
  /// path. Infinite caches keep no replacement order — no touch needed.
  [[nodiscard]] CacheStorage* touch_cache(ProcId p) noexcept override {
    return cfg_.cache.infinite() ? nullptr
                                 : caches_[cfg_.cluster_of(p)].get();
  }

  /// Invariant audit (directory vs. cluster caches vs. MSHRs); throws
  /// ProtocolError on the first violation. See docs/ROBUSTNESS.md.
  void audit() const override;

  // --- Interval sampling (src/core/sampling.hpp) -------------------------
  void set_functional(bool on) override;
  bool capture_warm_state(WarmState& out) const override;
  bool restore_warm_state(const WarmState& ws) override;

  // --- Introspection for tests -------------------------------------------
  [[nodiscard]] const CacheStorage& cache(ClusterId c) const { return *caches_[c]; }
  [[nodiscard]] const Directory& directory() const { return dir_; }
  /// Test-only mutation hook: lets failure-injection tests corrupt directory
  /// state to prove audit() catches it. Never use outside tests.
  [[nodiscard]] Directory& mutable_directory_for_test() { return dir_; }
  [[nodiscard]] const MshrTable& mshrs(ClusterId c) const { return mshrs_[c]; }
  [[nodiscard]] ClusterId home_of(Addr a) { return homes_.home_of(a); }
  [[nodiscard]] const ContentionModel* contention_model() const {
    return contention_.get();
  }

 private:
  Addr line_of(Addr a) const noexcept { return a & ~Addr{cfg_.cache.line_bytes - 1}; }

  /// Classifies a miss per Table 1 and updates remote copies/directory for a
  /// read (fetch SHARED). `port_wait` is the already-paid bank queueing
  /// delay folded into the result's contention total.
  AccessResult handle_read_miss(ClusterId c, Addr line, Cycles now,
                                Cycles port_wait);

  /// Contention-model bank/bus acquisition for cluster `c` (0 when the
  /// model is disabled); accounts the wait into the cluster's counters.
  Cycles acquire_port(ClusterId c, Addr line, Cycles now);

  /// Invalidates every copy except `keep` (storage and pending fills),
  /// reporting the round to the observer at time `now`.
  void invalidate_others(Addr line, ClusterId keep, Cycles now);

  /// Installs a line into cluster `c`'s storage, processing any eviction.
  void install(ClusterId c, Addr line, LineState st);

  LatencyClass classify(ClusterId requester, Addr line, const DirEntry& e) const;

  std::shared_ptr<const MachineSpec> spec_;  // the run's shared immutable spec
  const MachineSpec& cfg_;                   // = *spec_
  bool functional_ = false;  // warming regime: timing-only work skipped
  std::unique_ptr<ContentionModel> contention_;  // null unless enabled
  AddressSpace::HomeMap homes_;
  Directory dir_;
  std::vector<std::unique_ptr<CacheStorage>> caches_;
  std::vector<MshrTable> mshrs_;
  std::vector<MissCounters> counters_;
  std::vector<std::uint64_t> gen_;  // per-cluster hit-filter generations
  FlatSet touched_lines_;  // cold-miss tracking
};

}  // namespace csim
