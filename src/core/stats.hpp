// Simulation statistics: per-processor time buckets and miss taxonomy.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/machine.hpp"
#include "src/core/types.hpp"

namespace csim {

/// The execution-time components of the paper's stacked bars, plus the
/// contention-stall bucket of the opt-in queued-resource model.
struct TimeBuckets {
  Cycles cpu = 0;    ///< busy cycles (includes 1-cycle cache hits)
  Cycles load = 0;   ///< read-miss stall cycles
  Cycles merge = 0;  ///< merge-miss stall cycles (waiting on another
                     ///< processor's in-flight fill)
  Cycles sync = 0;   ///< barrier / lock wait (incl. final-barrier wait)
  Cycles contention = 0;  ///< queueing-delay stalls (bank / directory / NIC
                          ///< waits; always 0 unless ContentionSpec::enabled)

  [[nodiscard]] Cycles total() const noexcept;
  bool operator==(const TimeBuckets&) const noexcept = default;
  TimeBuckets& operator+=(const TimeBuckets& o) noexcept;
  TimeBuckets& operator-=(const TimeBuckets& o) noexcept;
};

/// Every TimeBuckets field, in the one order that total(), +=, -=, sampling
/// extrapolation, the result digest (src/obs/manifest.hpp) and the journal
/// codec walk. The order is part of every result digest and of the on-disk
/// record layout.
inline constexpr Cycles TimeBuckets::*kTimeBucketFields[] = {
    &TimeBuckets::cpu, &TimeBuckets::load, &TimeBuckets::merge,
    &TimeBuckets::sync, &TimeBuckets::contention};
static_assert(sizeof(TimeBuckets) == 8 * std::size(kTimeBucketFields),
              "a TimeBuckets field is missing from kTimeBucketFields");

inline Cycles TimeBuckets::total() const noexcept {
  Cycles t = 0;
  for (const auto field : kTimeBucketFields) t += this->*field;
  return t;
}
inline TimeBuckets& TimeBuckets::operator+=(const TimeBuckets& o) noexcept {
  for (const auto field : kTimeBucketFields) this->*field += o.*field;
  return *this;
}
inline TimeBuckets& TimeBuckets::operator-=(const TimeBuckets& o) noexcept {
  for (const auto field : kTimeBucketFields) this->*field -= o.*field;
  return *this;
}

/// Reference / miss counters, aggregated machine-wide (the paper reports
/// machine-level behaviour; per-cluster splits are available via
/// SimResult::per_cluster).
struct MissCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_hits = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t upgrade_misses = 0;  ///< write found line SHARED
  std::uint64_t merges = 0;          ///< reads merged on an in-flight fill
  std::uint64_t cold_misses = 0;     ///< first-ever access to the line
  std::uint64_t invalidations = 0;   ///< cluster copies destroyed
  std::uint64_t evictions = 0;       ///< capacity replacements
  // Shared-main-memory cluster organization only:
  std::uint64_t snoop_transfers = 0;     ///< served cache-to-cache on the bus
  std::uint64_t cluster_memory_hits = 0; ///< served by the attraction memory
  std::uint64_t bus_invalidations = 0;   ///< peer private-cache copies killed
  // Contention model only (ContentionSpec::enabled); otherwise all zero:
  std::uint64_t bank_conflicts = 0;   ///< accesses that waited on a busy bank/bus
  std::uint64_t bank_wait_cycles = 0; ///< cycles spent waiting on banks/bus
  std::uint64_t dir_wait_cycles = 0;  ///< cycles waiting on the home directory
  std::uint64_t nic_wait_cycles = 0;  ///< cycles waiting on network interfaces
  std::array<std::uint64_t, kNumLatencyClasses> by_class{};

  MissCounters& operator+=(const MissCounters& o) noexcept;
  bool operator==(const MissCounters&) const noexcept = default;

  [[nodiscard]] std::uint64_t total_misses() const noexcept {
    return read_misses + write_misses;
  }
  [[nodiscard]] double read_miss_rate() const noexcept {
    return reads ? static_cast<double>(read_misses) / static_cast<double>(reads) : 0.0;
  }
};

/// Every scalar MissCounters field, in the one order that operator+=, the
/// result digest (src/obs/manifest.hpp) and the record files
/// (src/core/record_file.hpp) walk; `by_class` follows them. The order is
/// part of every result digest and of the on-disk record layout.
inline constexpr std::uint64_t MissCounters::*kMissCounterFields[] = {
    &MissCounters::reads, &MissCounters::writes, &MissCounters::read_hits,
    &MissCounters::write_hits, &MissCounters::read_misses,
    &MissCounters::write_misses, &MissCounters::upgrade_misses,
    &MissCounters::merges, &MissCounters::cold_misses,
    &MissCounters::invalidations, &MissCounters::evictions,
    &MissCounters::snoop_transfers, &MissCounters::cluster_memory_hits,
    &MissCounters::bus_invalidations, &MissCounters::bank_conflicts,
    &MissCounters::bank_wait_cycles, &MissCounters::dir_wait_cycles,
    &MissCounters::nic_wait_cycles};
static_assert(sizeof(MissCounters) ==
                  8 * (std::size(kMissCounterFields) + kNumLatencyClasses),
              "a MissCounters field is missing from kMissCounterFields");

/// Result of one simulation run. A failed run (captured by run_sweep's
/// graceful degradation) has ok == false, empty statistics, and the error
/// fields describing the SimError that killed it.
struct SimResult {
  MachineSpec config{};
  std::string app_name;
  ProblemScale scale = ProblemScale::Default;
  Cycles wall_time = 0;
  std::uint64_t events = 0;  ///< events the queue dispatched during the run
  double host_seconds = 0;   ///< real (wall-clock) time the run took to simulate
  std::vector<TimeBuckets> per_proc;
  std::vector<MissCounters> per_cluster;
  MissCounters totals{};

  bool ok = true;          ///< false: the run threw instead of completing
  std::string error_kind;  ///< to_string(SimErrorKind), or "exception"
  std::string error;       ///< full what(), including the machine snapshot

  // --- Interval sampling (SamplingSpec; all defaults when sampling is off) --
  /// True when the run used interval sampling: miss counters are exact, but
  /// wall_time / per_proc buckets are extrapolated from the detailed
  /// intervals.
  bool sampled = false;
  /// References measured in detailed intervals (<= totals.reads + writes).
  std::uint64_t detailed_refs = 0;
  /// detailed_refs / total retired references; 0 when the run ended before
  /// any detailed interval (buckets are then raw warming time, unscaled).
  double coverage = 0;

  /// Sum of per-processor buckets. With final-barrier accounting,
  /// aggregate().total() == num_procs * wall_time.
  [[nodiscard]] TimeBuckets aggregate() const;

  /// Loads per CPU-busy cycle (input to the Section 6 hit-time estimator).
  [[nodiscard]] double loads_per_cpu_cycle() const;
};

}  // namespace csim
