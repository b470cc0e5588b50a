// ClusteredMemorySystem: the paper's *shared main memory* cluster
// organization (Section 2).
//
// Each processor has a private cache; processors of a cluster sit on a
// snoopy bus backed by an effectively infinite COMA-style attraction memory.
// Between clusters, the directory protocol of DirectoryMemory keeps cluster
// copies coherent, as in the shared-cache organization.
//
// Paper semantics implemented here:
//  - "In a clustered memory architecture, the invalidations are sent to
//    processors that have copies, but ownership is kept within the cluster.
//    Subsequent accesses by other processors within the cluster are
//    satisfied by cache to cache transfers."
//  - "In a shared main memory cluster working sets are still duplicated but
//    the parts of the working set replaced by one processor may not have
//    been replaced by other processors, providing cache to cache sharing
//    opportunities."
//  - "In clustered memory systems destructive interference does not exist,
//    since the caches are separate."
//
// A read that misses the private cache is satisfied, in order of preference:
//  (1) by a peer cache on the bus   -> NearHit, snoop_transfer latency;
//  (2) by the cluster memory        -> NearHit, cluster_memory latency;
//  (3) remotely through the directory (Table 1 latencies, MERGE on
//      outstanding cluster fills, store-buffered writes) — a real miss.
#pragma once

#include <memory>
#include <vector>

#include "src/mem/directory_memory.hpp"

namespace csim {

class ClusteredMemorySystem final : public DirectoryMemory {
 public:
  /// Simulator::run builds one through make_memory_system
  /// (src/mem/memory_system.hpp).
  ClusteredMemorySystem(std::shared_ptr<const MachineSpec> spec,
                        const AddressSpace& as);

  AccessResult read(ProcId p, Addr a, Cycles now) override;
  AccessResult write(ProcId p, Addr a, Cycles now) override;

  /// Opts into the processor MRU fast path (docs/PERFORMANCE.md): repeat
  /// hits short-circuited by the processor bump these counters directly.
  /// Stays enabled under the contention model: a repeat private-cache hit
  /// never reaches the cluster bus, so short-circuiting it skips no queue.
  [[nodiscard]] MissCounters* hot_counters(ClusterId c) noexcept override {
    return &counters_[c];
  }

  /// Invariant audit (directory vs. attraction memories vs. private caches
  /// vs. MSHRs); throws ProtocolError on the first violation. See
  /// docs/ROBUSTNESS.md.
  void audit() const override;

  // --- Interval sampling: the attraction memories ride along --------------
  bool capture_warm_state(WarmState& out) const override;
  bool restore_warm_state(const WarmState& ws) override;

  // --- Introspection for tests -------------------------------------------
  [[nodiscard]] const CacheStorage& private_cache(ProcId p) const {
    return *caches_[p];
  }
  [[nodiscard]] bool in_attraction(ClusterId c, Addr a) const {
    return attraction_[c].contains(line_of(a));
  }

 private:
  /// Per-cluster per-line bus-level bookkeeping: which local processors hold
  /// a copy (bit per in-cluster processor index), and whether the cluster
  /// owns the line exclusively machine-wide.
  struct ClusterLine {
    std::uint64_t proc_copies = 0;
    bool cluster_exclusive = false;
  };
  using Attraction = FlatMap<ClusterLine>;

  /// `p`'s bit in a ClusterLine's proc_copies.
  [[nodiscard]] std::uint64_t proc_bit(ProcId p) const noexcept {
    return std::uint64_t{1} << (p % cfg_.procs_per_cluster);
  }

  /// Calls `fn` on the private cache of each cluster-`c` processor in
  /// `copies`.
  template <class Fn>
  void for_each_copy(ClusterId c, std::uint64_t copies, Fn fn) {
    const ProcId base = c * cfg_.procs_per_cluster;
    while (copies) {
      const unsigned li = static_cast<unsigned>(__builtin_ctzll(copies));
      copies &= copies - 1;
      fn(*caches_[base + li]);
    }
  }

  /// A fetched line enters the attraction memory and `p`'s private cache.
  void install(ProcId p, Addr line, LineState st) override;
  /// The owner cluster keeps a SHARED copy: every private copy is demoted.
  void demote(ClusterId o, Addr line) override;
  /// Purges every copy of `line` in cluster `x` (bus and attraction).
  bool drop(ClusterId x, Addr line) override;

  /// Installs into `p`'s private cache; evicted victims fall back to the
  /// attraction memory (still within the cluster, no directory hint).
  void install_private(ProcId p, Addr line, LineState st);

  /// Demotes the private copies in `copies` of cluster `c` to SHARED.
  void share_copies(ClusterId c, Addr line, std::uint64_t copies);
  /// Erases the private copies in `copies` of cluster `c` off the bus.
  void erase_copies(ClusterId c, Addr line, std::uint64_t copies);

  std::vector<Attraction> attraction_;  // one per cluster
};

}  // namespace csim
