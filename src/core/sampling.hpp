// SamplingController: the regime scheduler for interval-sampled runs
// (SamplingSpec; docs/PERFORMANCE.md "Sampled simulation").
//
// One controller is owned by Simulator::run for the duration of a sampled
// run and consulted by every processor on every retired reference. It
// tracks the global retired-reference count, flips the run between
// regimes at the configured boundaries, toggles the memory system's
// functional mode, accumulates the per-processor TimeBuckets deltas of
// each detailed interval (the extrapolation inputs), and polls the host
// wall-clock deadline / cycle budget every poll stride (kPollMinRefs
// doubling to kPollMaxRefs) references so the
// watchdogs fire inside the warming retirement loop too — warming retires
// millions of references between event-queue entries, where the event-loop
// watchdog cannot see.
//
// Regimes:
//   Warming      functional warming: memory state updated, flat hit cost,
//                no stalls, no latency/contention/MSHR timing.
//   FastForward  checkpoint-restore replay: identical timing to Warming but
//                no memory-system calls at all (the warmup-boundary state
//                arrives from the checkpoint instead). Clocks, slice
//                schedules, and sync interleavings are bit-identical to
//                Warming because warming's timing never depends on memory
//                state — that invariant is what makes restore exact.
//   Detail       full event-driven simulation, exactly the sampling-off
//                path.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/machine.hpp"
#include "src/core/stats.hpp"

namespace csim {

class MemorySystem;

class SamplingController {
 public:
  enum class Regime : std::uint8_t { Warming, FastForward, Detail };

  /// Watchdog poll stride bounds (satellite of the event-loop poll, which
  /// fires every 4096 events). The stride starts at the minimum and doubles
  /// to the maximum, because it is also the hard cap on warming batch size
  /// (max_batch): small early polls keep tiny runs and tight budgets
  /// fast-failing, large late strides stop the poll from chopping
  /// multi-million-reference streaming runs into 4K-reference batches.
  /// Warming retires tens of millions of references per second, so 64K
  /// references is well under a host millisecond between polls. The stride
  /// sequence depends only on retired-reference counts, keeping Warming and
  /// FastForward replay bit-identical.
  static constexpr std::uint64_t kPollMinRefs = 4096;
  static constexpr std::uint64_t kPollMaxRefs = 65536;

  /// `fast_forward`: start in FastForward (a checkpoint will be installed at
  /// the warmup boundary) instead of Warming. `host_start` anchors the
  /// max_host_seconds deadline to the same clock origin as the event loop's.
  SamplingController(const MachineSpec& cfg, MemorySystem* mem,
                     bool fast_forward,
                     std::chrono::steady_clock::time_point host_start);

  /// Per-processor raw bucket bindings, in processor order. Must be called
  /// before the first reference retires.
  void bind_buckets(std::vector<const TimeBuckets*> buckets);

  /// Called once, at the first Warming/FastForward -> Detail transition
  /// (the warmup boundary): save (Warming) or install (FastForward) the
  /// checkpoint. Runs before the memory system leaves functional mode.
  template <typename Fn>
  void set_warmup_boundary_hook(Fn&& fn) {
    boundary_hook_ = std::forward<Fn>(fn);
  }

  [[nodiscard]] Regime regime() const noexcept { return regime_; }
  [[nodiscard]] bool detail() const noexcept {
    return regime_ == Regime::Detail;
  }
  [[nodiscard]] bool fast_forward() const noexcept {
    return regime_ == Regime::FastForward;
  }
  /// The runahead quantum for the current regime.
  [[nodiscard]] Cycles quantum() const noexcept {
    return detail() ? cfg_->runahead_quantum : cfg_->sampling.warm_quantum;
  }
  [[nodiscard]] std::uint64_t refs() const noexcept { return refs_; }
  /// Detailed references retired so far, including the open interval (the
  /// interval-metrics sampler reads this mid-run).
  [[nodiscard]] std::uint64_t detailed_refs_so_far() const noexcept {
    return detailed_refs_ + (detail() ? refs_ - detail_enter_refs_ : 0);
  }

  /// Max references a warming batch may retire before it must call
  /// on_refs(): never crosses a regime boundary or a watchdog poll point.
  [[nodiscard]] std::uint64_t max_batch() const noexcept {
    const std::uint64_t cap = next_boundary_ < next_poll_ ? next_boundary_
                                                          : next_poll_;
    // Boundaries and polls trigger eagerly, so cap > refs_ always holds; the
    // floor of 1 only guards the batch loop against a zero-length batch.
    return cap > refs_ ? cap - refs_ : 1;
  }

  /// Account `n` just-retired references (n <= max_batch() for n > 1).
  /// `now` is the retiring processor's local clock, for the cycle-budget
  /// watchdog. May flip the regime (affects the *next* reference) and may
  /// throw TimeoutError / LivelockError from the watchdog poll.
  void on_refs(std::uint64_t n, Cycles now) {
    refs_ += n;
    if (refs_ >= next_poll_) poll(now);
    if (refs_ >= next_boundary_) advance_regime();
  }
  void on_ref(Cycles now) { on_refs(1, now); }

  /// Run-end accounting: closes an open detailed interval and returns the
  /// extrapolation inputs.
  struct Accounting {
    std::uint64_t total_refs = 0;
    std::uint64_t detailed_refs = 0;
    /// Per-processor buckets accumulated inside detailed intervals only.
    std::vector<TimeBuckets> detail_buckets;
  };
  [[nodiscard]] Accounting finish();

 private:
  void advance_regime();
  void enter_detail();
  void leave_detail();
  void poll(Cycles now);
  /// Start of detailed interval `k`, or UINT64_MAX when there is none.
  [[nodiscard]] std::uint64_t interval_start(std::uint64_t k) const;

  const MachineSpec* cfg_;
  MemorySystem* mem_;
  Regime regime_;
  std::uint64_t refs_ = 0;
  std::uint64_t next_boundary_ = 0;
  std::uint64_t next_poll_ = kPollMinRefs;
  std::uint64_t poll_stride_ = kPollMinRefs;
  std::uint64_t interval_index_ = 0;  ///< detailed intervals entered so far
  std::uint64_t detail_enter_refs_ = 0;
  std::uint64_t detailed_refs_ = 0;
  bool boundary_hook_fired_ = false;
  std::function<void()> boundary_hook_;
  std::vector<const TimeBuckets*> buckets_;
  std::vector<TimeBuckets> detail_snapshot_;
  std::vector<TimeBuckets> detail_buckets_;
  std::chrono::steady_clock::time_point host_start_;
};

}  // namespace csim
