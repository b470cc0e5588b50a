// CoherenceController: the paper's *shared cache* cluster organization
// (Section 2, Fig. 1): the processors of a cluster share one cache, and the
// directory protocol of DirectoryMemory keeps the cluster caches coherent.
//
// A write that finds the line SHARED is an UPGRADE; a store to the cluster's
// own in-flight exclusive fill is a write hit, and a read of any in-flight
// fill is a MERGE. An evicted line sends the directory a replacement hint.
#pragma once

#include <memory>

#include "src/mem/directory_memory.hpp"

namespace csim {

class CoherenceController final : public DirectoryMemory {
 public:
  /// Simulator::run builds one through make_memory_system
  /// (src/mem/memory_system.hpp).
  CoherenceController(std::shared_ptr<const MachineSpec> spec,
                      const AddressSpace& as);

  /// Processor `p` reads address `a` at time `now`.
  AccessResult read(ProcId p, Addr a, Cycles now) override;

  /// Processor `p` writes address `a` at time `now`.
  AccessResult write(ProcId p, Addr a, Cycles now) override;

  /// Opts into the processor hit-filter fast path (docs/PERFORMANCE.md):
  /// repeat hits short-circuited by the processor bump these counters
  /// directly. Disabled under the contention model — every access must pass
  /// through its cluster's bank queue, so none may be short-circuited.
  [[nodiscard]] MissCounters* hot_counters(ClusterId c) noexcept override {
    return contention_ ? nullptr : &counters_[c];
  }

  /// Invariant audit (directory vs. cluster caches vs. MSHRs); throws
  /// ProtocolError on the first violation. See docs/ROBUSTNESS.md.
  void audit() const override;

  // --- Introspection for tests -------------------------------------------
  [[nodiscard]] const CacheStorage& cache(ClusterId c) const {
    return *caches_[c];
  }

 private:
  void install(ProcId p, Addr line, LineState st) override;
  void demote(ClusterId o, Addr line) override;
  bool drop(ClusterId x, Addr line) override;
};

}  // namespace csim
