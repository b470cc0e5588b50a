// Passive probes for the benchmark's traced run.
//
// LayerProbe is a forwarding MemorySystem decorator around the real memory
// system of a row (CoherenceController or ClusteredMemorySystem). Unlike a
// filter-off decorator it also forwards the hit-filter hooks
// (generation_addr, hot_counters, touch_cache) and the sampling hooks
// (set_functional, capture_/restore_warm_state), so the processor hit filter
// and interval sampling behave exactly as in an untraced run. It counts the
// read/write calls that reach the memory system by AccessResult::Kind, times
// the detailed-regime calls, reads the memory system's own counters at every
// regime switch, and splits a sampled row's host time at the warmup boundary.
//
// CoreProbe is an Observer that counts events and processor slices and hands
// the run's SamplingController to the LayerProbe, which reads the retired
// reference count at every regime switch.
//
// AlwaysHitMemory answers every access with a Hit and no protocol state; a
// row run against it costs only the application's own host compute plus
// coroutine switching (the app floor).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/simulator.hpp"
#include "src/mem/memory_system.hpp"
#include "src/obs/observer.hpp"

namespace clusterbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline constexpr std::size_t kNumKinds = 6;  // AccessResult::Kind values

/// The memory system's own counters (MissCounters summed over clusters) that
/// the identities compare with the probe's call counts. The processor hit
/// filter bumps `refs` and `hits` itself, without a call.
struct ProtocolCounts {
  std::uint64_t refs = 0;       ///< reads + writes
  std::uint64_t hits = 0;       ///< read_hits + write_hits
  std::uint64_t near_hits = 0;  ///< snoop_transfers + cluster_memory_hits
  std::uint64_t merges = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t upgrades = 0;

  [[nodiscard]] static ProtocolCounts of(const csim::MissCounters& m) noexcept;
  /// Adds `now - start` field by field.
  void add_span(const ProtocolCounts& start, const ProtocolCounts& now) noexcept;
};

/// Counts and host times one traced pass accumulates over its rows.
struct LayerCounts {
  /// Detailed-regime calls that reached the memory system, counted on entry.
  std::uint64_t read_calls = 0;
  std::uint64_t write_calls = 0;
  /// The same calls by the AccessResult::Kind they returned.
  std::array<std::uint64_t, kNumKinds> by_kind{};
  /// The memory system's counters, advanced over detailed-regime spans only.
  ProtocolCounts protocol;
  /// References retired in the detailed regime (every reference of an
  /// unsampled row), as the sampling controller or SimResult counts them.
  std::uint64_t detail_refs = 0;
  /// References retired, and calls made, while warming in-process.
  std::uint64_t warm_refs = 0;
  std::uint64_t warm_calls = 0;
  std::uint64_t events = 0;  ///< counted by CoreProbe
  std::uint64_t slices = 0;  ///< counted by CoreProbe
  double hit_s = 0;          ///< host time in Hit/NearHit calls
  double miss_s = 0;         ///< host time in every other kind of call
  double capture_s = 0;
  double restore_s = 0;
  double warm_s = 0;    ///< row start .. warmup boundary, warming rows
  double ff_s = 0;      ///< row start .. warmup boundary, fast-forward rows
  double detail_s = 0;  ///< warmup boundary .. row end, sampled rows

  [[nodiscard]] std::uint64_t calls() const noexcept {
    return read_calls + write_calls;
  }
  [[nodiscard]] std::uint64_t kind(csim::AccessResult::Kind k) const noexcept {
    return by_kind[static_cast<std::size_t>(k)];
  }
  /// Detailed references the hit filter served: hits the memory system's
  /// counters recorded beyond the Hit calls it answered.
  [[nodiscard]] std::uint64_t filter_hits() const noexcept {
    return protocol.hits - kind(csim::AccessResult::Kind::Hit);
  }
  [[nodiscard]] double mem_s() const noexcept { return hit_s + miss_s; }

  /// Checks the call counts against the memory system's counters and the
  /// retired references; returns one line per identity that does not hold.
  [[nodiscard]] std::vector<std::string> broken_identities() const;
};

class LayerProbe final : public csim::MemorySystem {
 public:
  /// Builds the real memory system for `spec` over the address-space layout
  /// that `layout_app` allocates. Allocation is deterministic, so a second
  /// instance of the row's program yields the same layout the simulated
  /// instance gets inside Simulator::run.
  LayerProbe(const std::shared_ptr<const csim::MachineSpec>& spec,
             csim::Program& layout_app, LayerCounts& counts);

  /// Brackets one Simulator::run. end_row takes the run's result because the
  /// sampling controller is gone once run() returns.
  void begin_row();
  void end_row(const csim::SimResult& r);
  /// Called from CoreProbe::on_run_begin (null on unsampled rows).
  void bind_sampling(const csim::SamplingController* s);

  csim::AccessResult read(csim::ProcId p, csim::Addr a,
                          csim::Cycles now) override;
  csim::AccessResult write(csim::ProcId p, csim::Addr a,
                           csim::Cycles now) override;
  [[nodiscard]] const csim::MissCounters& cluster_counters(
      csim::ClusterId c) const override {
    return inner_->cluster_counters(c);
  }
  [[nodiscard]] csim::MissCounters totals() const override {
    return inner_->totals();
  }
  void audit() const override { inner_->audit(); }
  [[nodiscard]] const std::uint64_t* generation_addr(
      csim::ClusterId c) const noexcept override {
    return inner_->generation_addr(c);
  }
  [[nodiscard]] csim::CacheStorage* touch_cache(
      csim::ProcId p) noexcept override {
    return inner_->touch_cache(p);
  }
  [[nodiscard]] csim::MissCounters* hot_counters(
      csim::ClusterId c) noexcept override {
    return inner_->hot_counters(c);
  }
  void set_functional(bool on) override;
  bool capture_warm_state(csim::WarmState& out) const override;
  bool restore_warm_state(const csim::WarmState& ws) override;

 private:
  void record(const csim::AccessResult& r, Clock::time_point t0);
  [[nodiscard]] std::uint64_t refs_now() const noexcept;
  [[nodiscard]] ProtocolCounts protocol_now() const {
    return ProtocolCounts::of(inner_->totals());
  }

  csim::AddressSpace layout_;  // the inner system's home map refers to it
  std::unique_ptr<csim::MemorySystem> inner_;
  LayerCounts* counts_;
  const csim::SamplingController* sampling_ = nullptr;
  bool functional_ = false;
  bool fast_forward_ = false;  // the current functional span is a replay
  bool replayed_ = false;      // the row opened in fast-forward
  bool boundary_seen_ = false;
  std::uint64_t mark_ = 0;  // reference count at the last regime switch
  ProtocolCounts span_start_;  // memory-system counters at the last switch
  Clock::time_point row_start_{};
  Clock::time_point boundary_{};
};

class CoreProbe final : public csim::Observer {
 public:
  CoreProbe(LayerProbe& mem, LayerCounts& counts)
      : mem_(&mem), counts_(&counts) {}

  void on_run_begin(const RunBinding& b) override {
    mem_->bind_sampling(b.sampling);
  }
  void on_event_dispatched(csim::Cycles, std::uint64_t) override {
    ++counts_->events;
  }
  void on_slice(csim::ProcId, csim::Cycles, csim::Cycles) override {
    ++counts_->slices;
  }

 private:
  LayerProbe* mem_;
  LayerCounts* counts_;
};

class AlwaysHitMemory final : public csim::MemorySystem {
 public:
  explicit AlwaysHitMemory(const csim::MachineSpec& spec)
      : procs_per_cluster_(spec.procs_per_cluster),
        counters_(spec.num_clusters()) {}

  csim::AccessResult read(csim::ProcId p, csim::Addr, csim::Cycles) override {
    csim::MissCounters& c = counters_[p / procs_per_cluster_];
    ++c.reads;
    ++c.read_hits;
    return {};
  }
  csim::AccessResult write(csim::ProcId p, csim::Addr, csim::Cycles) override {
    csim::MissCounters& c = counters_[p / procs_per_cluster_];
    ++c.writes;
    ++c.write_hits;
    return {};
  }
  [[nodiscard]] const csim::MissCounters& cluster_counters(
      csim::ClusterId c) const override {
    return counters_[c];
  }
  [[nodiscard]] csim::MissCounters totals() const override {
    csim::MissCounters t;
    for (const csim::MissCounters& c : counters_) t += c;
    return t;
  }

 private:
  unsigned procs_per_cluster_;
  std::vector<csim::MissCounters> counters_;
};

}  // namespace clusterbench
