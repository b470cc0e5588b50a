// DirectoryMemory: the inter-cluster protocol both cluster organizations
// share (docs/PROTOCOL.md, "Common machinery").
//
// Between clusters the paper's two organizations run the same invalidation
// protocol over a full-bit-vector directory of clusters (Section 3.1):
//  - cache states INVALID / SHARED / EXCLUSIVE; directory NOT_CACHED /
//    SHARED / EXCLUSIVE with replacement hints;
//  - READ misses fetch in SHARED and stall the processor for the Table 1
//    latency; WRITE and UPGRADE misses are hidden by the store buffer but
//    still transfer ownership, and a WRITE miss leaves a fill in flight that
//    later reads MERGE on;
//  - invalidations are instantaneous and may kill a pending fill;
//  - directory and ownership transitions and line allocation (with the
//    victim eviction) happen at request time; only the data arrival is
//    delayed, tracked by the cluster's MSHR table.
//
// This base owns that protocol's state and steps: the MSHR-aware probe, port
// acquisition, the remote miss (fetch), the ownership transfer (upgrade), the
// invalidation round, the capacity and directory-state audit, and the shared
// half of warm-state capture and restore. The organizations differ only
// inside a cluster, which three hooks supply: install() places a fetched
// line, demote() downgrades an owner cluster's copies, and drop() removes a
// cluster's copies.
#pragma once

#include <memory>
#include <optional>
#include <string>
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

class DirectoryMemory : public MemorySystem {
 public:
  // Out of line: ContentionModel is only forward-declared here.
  ~DirectoryMemory() override;

  [[nodiscard]] const MissCounters& cluster_counters(
      ClusterId c) const override {
    return counters_[c];
  }
  [[nodiscard]] MissCounters totals() const override;

  /// Cluster `c`'s kHintGenerations hit-filter generations
  /// (docs/PERFORMANCE.md). kill_hint() bumps a line's counter on every
  /// event that takes the line away from, or downgrades it in, a cache of
  /// the cluster: invalidations, evictions, owner demotions and, for private
  /// caches, bus invalidations and snoop demotions. A hint can only go stale
  /// through one of those events for its own line (a fill for a hinted line
  /// would require the line to have left the cache first), so no per-access
  /// bump is needed; LRU exactness is the processor's job via touch_cache().
  [[nodiscard]] const std::uint64_t* generation_addr(
      ClusterId c) const noexcept override {
    return &gen_[std::size_t{c} * kHintGenerations];
  }

  /// Bounded caches are LRU: the processor must touch the line on every
  /// filtered hit to keep eviction order bit-identical to the slow path.
  /// Infinite caches keep no replacement order — no touch needed.
  [[nodiscard]] CacheStorage* touch_cache(ProcId p) noexcept override {
    return cfg_.cache.infinite() ? nullptr
                                 : caches_[p / procs_per_cache_].get();
  }

  /// Capacity and directory-state audit; each organization adds its
  /// residency checks. Throws ProtocolError on the first violation. See
  /// docs/ROBUSTNESS.md.
  void audit() const override;

  // --- Interval sampling (src/core/sampling.hpp) -------------------------
  void set_functional(bool on) override;
  bool capture_warm_state(WarmState& out) const override;
  bool restore_warm_state(const WarmState& ws) override;

  // --- Introspection for tests -------------------------------------------
  [[nodiscard]] const Directory& directory() const { return dir_; }
  /// Test-only mutation hook: lets failure-injection tests corrupt directory
  /// state to prove audit() catches it. Never use outside tests.
  [[nodiscard]] Directory& mutable_directory_for_test() { return dir_; }
  [[nodiscard]] const MshrTable& mshrs(ClusterId c) const { return mshrs_[c]; }
  [[nodiscard]] ClusterId home_of(Addr a) { return homes_.home_of(a); }
  [[nodiscard]] const ContentionModel* contention_model() const {
    return contention_.get();
  }

 protected:
  /// Takes the run's shared immutable spec (no per-class config copy; every
  /// component of a run sees the same MachineSpec). `style` picks the
  /// caches: one per cluster for SharedCache, one per processor for
  /// SharedMemory.
  DirectoryMemory(std::shared_ptr<const MachineSpec> spec,
                  const AddressSpace& as, ClusterStyle style);

  // --- Hooks: what differs between the organizations ---------------------

  /// Places a line fetched from outside the cluster for processor `p`.
  virtual void install(ProcId p, Addr line, LineState st) = 0;
  /// Downgrades owner cluster `o`'s copies of `line` to SHARED.
  virtual void demote(ClusterId o, Addr line) = 0;
  /// Removes cluster `x`'s copies of `line` (storage and pending fill);
  /// returns whether it had any.
  virtual bool drop(ClusterId x, Addr line) = 0;

  // --- Shared protocol steps ----------------------------------------------

  [[nodiscard]] Addr line_of(Addr a) const noexcept {
    return a & ~Addr{cfg_.cache.line_bytes - 1};
  }

  /// The MSHR-aware probe of `cache`, one of cluster `c`'s caches: the
  /// line's state, or nullopt when absent. Every hit is a reference and
  /// LRU-touches the line, merged reads included. A line whose fill is still
  /// in flight sets `pending` to the fill time; the entry of a fill that has
  /// arrived is released.
  std::optional<LineState> probe(CacheStorage& cache, ClusterId c, Addr line,
                                 Cycles now, Cycles& pending) {
    // Fast path: with no fill in flight in the cluster there is nothing to
    // merge on, so one fused lookup+touch replaces three probes.
    if (mshrs_[c].empty()) return cache.access(line);
    const std::optional<LineState> st = cache.lookup(line);
    if (!st) return st;
    if (MshrEntry* m = mshrs_[c].find(line)) {
      if (m->fill_time > now) {
        pending = m->fill_time;
      } else {
        mshrs_[c].release(line);  // the fill has arrived
      }
    }
    cache.touch(line);
    return st;
  }

  /// A read joining cluster `c`'s in-flight fill, complete at `fill`.
  AccessResult merge(ClusterId c, Cycles fill, Cycles port_wait) {
    ++counters_[c].merges;
    AccessResult r{AccessResult::Kind::Merge, 0, fill,
                   LatencyClass::LocalClean};
    r.contention = port_wait;
    return r;
  }

  /// A read that probe() found present: a merge when its fill is `pending`,
  /// else a hit. With no fill left, a repeat access while the hint holds is a
  /// plain hit: writes too, if EXCLUSIVE.
  AccessResult read_hit(ClusterId c, LineState st, Cycles pending,
                        Cycles port_wait) {
    if (pending != 0) return merge(c, pending, port_wait);
    ++counters_[c].read_hits;
    AccessResult r{AccessResult::Kind::Hit};
    r.hint = st == LineState::Exclusive ? MruHint::ReadWrite
                                        : MruHint::ReadOnly;
    r.contention = port_wait;
    return r;
  }

  /// A store to a line held EXCLUSIVE: buffered, a hit. A store to the
  /// cluster's own `pending` exclusive fill merges into it, and the line
  /// stays out of the hit filter until the fill arrives.
  AccessResult write_hit(ClusterId c, Cycles pending, Cycles port_wait) {
    ++counters_[c].write_hits;
    AccessResult r{AccessResult::Kind::Hit};
    r.hint = pending != 0 ? MruHint::None : MruHint::ReadWrite;
    r.contention = port_wait;
    return r;
  }

  /// Contention-model acquisition of cluster `c`'s port (the shared cache's
  /// bank or the cluster bus): the queueing delay, accounted into the
  /// cluster's counters. 0 when the model is off or while warming.
  Cycles acquire_port(ClusterId c, Addr line, Cycles now) {
    if (functional_ || !contention_) return 0;
    return queue_port(c, line, now);
  }

  /// The Table 1 remote miss of processor `p` to byte address `a` (in
  /// `line`): classify and count it, take the line SHARED or, if
  /// `exclusive`, EXCLUSIVE through the directory, install() it, queue at
  /// the home directory and the NIC, and arm the cluster's MSHR. `port_wait`
  /// is the already-paid port delay.
  AccessResult fetch(ProcId p, Addr a, Addr line, Cycles now, bool exclusive,
                     Cycles port_wait);

  /// UPGRADE: cluster `c` takes ownership of a line it holds SHARED. The
  /// latency is hidden by the store buffer, but the home directory
  /// controller is still occupied by the transfer. The caller sets its own
  /// copy's state.
  AccessResult upgrade(ClusterId c, Addr line, Cycles now, Cycles port_wait);

  [[noreturn]] static void violation(Addr line, const std::string& what);

  std::shared_ptr<const MachineSpec> spec_;  // the run's shared immutable spec
  const MachineSpec& cfg_;                   // = *spec_
  const ClusterStyle style_;
  const unsigned procs_per_cache_;  // ppc for a shared cache, 1 for private
  const unsigned line_shift_;       // log2(line_bytes)
  bool functional_ = false;  // warming regime: timing-only work skipped
  std::unique_ptr<ContentionModel> contention_;  // null unless enabled
  AddressSpace::HomeMap homes_;
  Directory dir_;                                      // cluster granularity
  std::vector<std::unique_ptr<CacheStorage>> caches_;  // per cluster or proc
  std::vector<MshrTable> mshrs_;                       // one per cluster
  std::vector<MissCounters> counters_;                 // one per cluster
  std::vector<std::uint64_t> gen_;  // kHintGenerations per cluster

  /// Kills every processor's hit-filter hint for `line` in cluster `c`
  /// (and, conservatively, those for the lines that share its counter).
  void kill_hint(ClusterId c, Addr line) noexcept {
    ++gen_[std::size_t{c} * kHintGenerations +
           hint_generation(line, line_shift_)];
  }

  FlatSet touched_lines_;  // cold-miss tracking

 private:
  Cycles queue_port(ClusterId c, Addr line, Cycles now);

  /// Ownership transfer to cluster `c`, whose directory entry is `e`: one
  /// invalidation round drops every other cluster's copies (reported to the
  /// observer at `now`), and the directory becomes EXCLUSIVE{c}. Inserts and
  /// erases no directory entry, so `e` stays valid.
  void take_ownership(ClusterId c, Addr line, DirEntry& e, Cycles now);
};

}  // namespace csim
