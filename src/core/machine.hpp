// MachineSpec: the full description of a simulated machine — topology
// (processors, clustering), cache geometry, Table 1 latencies, and the
// opt-in contention model. One immutable MachineSpec, shared by the run
// (std::shared_ptr<const MachineSpec>), drives the simulator, both memory
// system organizations, and the profilers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/types.hpp"
#include "src/mem/latency.hpp"

namespace csim {

/// Geometry of the (cluster-shared) cache.
struct CacheConfig {
  /// Capacity *per processor* in bytes; a cluster of C processors shares a
  /// cache of C * per_proc_bytes. 0 means infinite.
  std::size_t per_proc_bytes = 0;
  /// Cache line size in bytes (power of two).
  unsigned line_bytes = 64;
  /// Set associativity; 0 means fully associative (the paper's choice).
  unsigned associativity = 0;

  [[nodiscard]] bool infinite() const noexcept { return per_proc_bytes == 0; }

  bool operator==(const CacheConfig&) const noexcept = default;
};

/// Which level of the hierarchy the cluster shares (paper Section 2).
enum class ClusterStyle : std::uint8_t {
  SharedCache,   ///< processors share one cluster cache (the paper's focus)
  SharedMemory,  ///< private caches + snoopy bus + attraction memory
};

/// Opt-in event-driven contention model (DESIGN.md "Contention model").
///
/// When enabled, three classes of queued occupancy resources augment the
/// fixed Table 1 latency model with simulated queueing delay:
///  - the per-cluster shared-cache banks (SharedCache style) or cluster bus
///    (SharedMemory style): every access occupies its bank/bus for
///    `bank_busy` cycles; a FIFO backlog stalls later arrivals — the
///    in-engine counterpart of the Section 6 / Table 4 bank-conflict model;
///  - the directory controller at a line's home cluster: every miss
///    occupies it for `directory_busy` cycles;
///  - the network interface of the requesting cluster: every remote hop
///    occupies it for `nic_busy` cycles.
/// Only the *waiting* time is charged to the requester (the service time is
/// already part of the hit / Table 1 latency); waits land in the
/// TimeBuckets::contention bucket and the MissCounters contention fields.
/// With `enabled == false` (the default) results are bit-identical to the
/// model-free simulator (pinned by the golden digest suite).
struct ContentionSpec {
  bool enabled = false;
  /// Busy time, in cycles, a shared-cache bank (or the cluster bus) is held
  /// per access.
  Cycles bank_busy = 1;
  /// Busy time of the home directory controller per miss it services.
  Cycles directory_busy = 4;
  /// Busy time of the cluster network interface per remote hop.
  Cycles nic_busy = 6;

  bool operator==(const ContentionSpec&) const noexcept = default;
};

/// Opt-in interval sampling (docs/PERFORMANCE.md "Sampled simulation").
///
/// When enabled, a run alternates between two regimes keyed off the global
/// retired-reference count: **functional warming** (caches, directory/snoop
/// state, and sync semantics are updated, but every access is charged the
/// flat hit latency and never stalls — no latency model, no contention, no
/// MSHR timing) and **detailed intervals** (full event-driven simulation,
/// exactly the sampling-off path). Miss counters stay exact — warming counts
/// real hits and misses — while TimeBuckets are extrapolated from the
/// detailed intervals (SimResult::sampled / coverage / detailed_refs).
///
/// The schedule: warm for `warmup_refs`, then run detailed intervals of
/// `detail_refs` references starting every `period_refs` references (or at
/// the explicit `detail_at` points). `detail_refs == 0` means "detailed from
/// the first interval start to the end of the run" — the checkpoint-only
/// mode, where sampling buys warm-state reuse but full measurement.
///
/// With `checkpoint_dir` set, the memory state at the warmup boundary is
/// saved to `<dir>/<16-hex warm_config_digest>.csc` and later runs that
/// share the digest (same warmup-determining knobs; see
/// obs::warm_config_digest) fast-forward to the boundary by replaying the
/// application with no memory simulation at all and installing the
/// checkpointed state — bit-identical to warming in-process.
///
/// With `enabled == false` (the default) results are bit-identical to the
/// sampling-free simulator (pinned by the golden digest suite).
struct SamplingSpec {
  bool enabled = false;
  /// References functionally warmed before the first detailed interval.
  std::uint64_t warmup_refs = 0;
  /// Length of each detailed interval, in references. 0 = detailed from the
  /// first interval start to the end of the run.
  std::uint64_t detail_refs = 0;
  /// Distance between detailed-interval *starts*, in references. 0 = a
  /// single detailed interval (then warming to the end, unless
  /// detail_refs == 0 made it run detailed to the end).
  std::uint64_t period_refs = 0;
  /// Explicit detailed-interval start points (global retired-ref counts,
  /// strictly increasing, all >= warmup_refs). When non-empty, overrides
  /// period_refs. Chosen e.g. from IntervalSampler phase boundaries.
  std::vector<std::uint64_t> detail_at;
  /// Runahead quantum used while warming / fast-forwarding. Warming never
  /// stalls, so slices can be much longer than the detailed quantum without
  /// changing what the detailed intervals measure. Longer slices buy
  /// warming throughput (fewer event-queue round trips, less hit-filter
  /// generation churn: measured 1.7-2.5x at 64K on barrier-heavy apps at
  /// Default scale) but coarsen the warm interleaving, which distorts the
  /// warmed state on small problems; the default suits Test-scale runs,
  /// large-scale sweeps should raise it along with the problem. Part of
  /// the warm digest: changing it re-keys checkpoints.
  Cycles warm_quantum = 4096;
  /// Directory for warm-state checkpoints (.csc). Empty = no checkpointing.
  /// A cache location, not part of the configuration identity: excluded
  /// from config/result digests.
  std::string checkpoint_dir;

  bool operator==(const SamplingSpec&) const noexcept = default;
};

/// Full description of the simulated machine.
struct MachineSpec {
  unsigned num_procs = 64;
  unsigned procs_per_cluster = 1;
  ClusterStyle cluster_style = ClusterStyle::SharedCache;
  /// SharedCache: per-processor share of the cluster cache.
  /// SharedMemory: each processor's private cache.
  CacheConfig cache{};
  LatencyModel latency{};
  /// Flat cache hit latency charged by the event simulator, in cycles.
  Cycles hit_latency = 1;
  /// Model shared-cache hit costs *inside* the simulation instead of the
  /// paper's post-hoc Section 6 estimation: every cache access is charged
  /// the Table 1 shared-cache hit latency for this cluster size, plus one
  /// cycle on a (pseudo-random) bank conflict with probability from the
  /// Table 4 model. Used by bench/validation_hit_cost.
  bool model_shared_hit_costs = false;
  unsigned banks_per_proc = 4;
  /// Queued-resource contention model (disabled by default).
  ContentionSpec contention{};
  /// Page granularity of home assignment (first-touch round robin).
  unsigned page_bytes = 4096;
  /// Max cycles a processor may run ahead on purely local operations before
  /// yielding to the global event queue. 1 = strict global ordering.
  Cycles runahead_quantum = 32;

  // --- Robustness knobs (see docs/ROBUSTNESS.md) ---------------------------
  /// Watchdog: abort with LivelockError once simulated time exceeds this
  /// many cycles. 0 = unlimited.
  std::uint64_t max_cycles = 0;
  /// Watchdog: abort with LivelockError after this many events. 0 = unlimited.
  std::uint64_t max_events = 0;
  /// Livelock detector: abort if this many consecutive events execute without
  /// simulated time advancing (the queue churning at a fixed cycle forever).
  /// 0 disables; the default is far above any legitimate same-cycle burst.
  std::uint64_t no_progress_events = 1u << 22;
  /// Run the coherence invariant audit (MemorySystem::audit) every N events
  /// during the simulation. 0 = audit at end of run only (always done).
  std::uint64_t audit_interval = 0;
  /// Watchdog: abort with TimeoutError once the run has consumed this much
  /// host (real) wall-clock time, in seconds. 0 = unlimited. Unlike the
  /// cycle/event budgets this depends on the host machine, so it never
  /// changes simulation results — only whether a run is allowed to finish.
  /// run_sweep uses it to enforce per-row deadlines (SweepPolicy).
  double max_host_seconds = 0;

  /// Opt-in interval sampling with warm-state checkpoints (disabled by
  /// default; bit-identical to the sampling-free simulator when off).
  SamplingSpec sampling{};

  [[nodiscard]] unsigned num_clusters() const noexcept {
    return num_procs / procs_per_cluster;
  }
  [[nodiscard]] ClusterId cluster_of(ProcId p) const noexcept {
    return p / procs_per_cluster;
  }
  [[nodiscard]] std::size_t cluster_cache_bytes() const noexcept {
    return cache.per_proc_bytes * procs_per_cluster;
  }
  [[nodiscard]] std::size_t cluster_cache_lines() const noexcept {
    return cluster_cache_bytes() / cache.line_bytes;
  }

  /// Table 1 hit latency of a shared cache for this cluster size (1/2/3/3).
  [[nodiscard]] Cycles shared_cache_hit_latency() const noexcept {
    if (procs_per_cluster <= 1) return 1;
    return procs_per_cluster == 2 ? 2 : 3;
  }

  /// Banks of the shared cluster cache under the contention model
  /// (Table 4's m = 4n; a 1-processor cluster still has banks_per_proc
  /// banks — with one requester it simply never conflicts).
  [[nodiscard]] unsigned cluster_banks() const noexcept {
    return banks_per_proc * procs_per_cluster;
  }

  /// Throws ConfigError (a std::invalid_argument) if the configuration is
  /// inconsistent.
  void validate() const;

  /// e.g. "64p/4ppc/16KB" — used in reports.
  [[nodiscard]] std::string label() const;

  bool operator==(const MachineSpec&) const = default;
};

/// Builder-style construction path for MachineSpec: the single way drivers
/// (csim_cli, perf_micro, the examples) and tests assemble configurations.
/// Every setter returns *this for chaining; build() validates and returns a
/// value, build_shared() the immutable shared form the run owns.
///
///   auto spec = MachineSpecBuilder{}
///                   .procs(64).procs_per_cluster(4).cache_kb(16)
///                   .style(ClusterStyle::SharedCache)
///                   .contention_enabled()
///                   .build();
class MachineSpecBuilder {
 public:
  MachineSpecBuilder() = default;
  /// Start from an existing spec (e.g. paper_machine) and tweak.
  explicit MachineSpecBuilder(MachineSpec base) : s_(base) {}

  MachineSpecBuilder& procs(unsigned n) {
    s_.num_procs = n;
    return *this;
  }
  MachineSpecBuilder& procs_per_cluster(unsigned ppc) {
    s_.procs_per_cluster = ppc;
    return *this;
  }
  MachineSpecBuilder& style(ClusterStyle st) {
    s_.cluster_style = st;
    return *this;
  }
  MachineSpecBuilder& cache_bytes(std::size_t per_proc) {
    s_.cache.per_proc_bytes = per_proc;
    return *this;
  }
  MachineSpecBuilder& cache_kb(std::size_t kb) { return cache_bytes(kb * 1024); }
  MachineSpecBuilder& line_bytes(unsigned b) {
    s_.cache.line_bytes = b;
    return *this;
  }
  MachineSpecBuilder& associativity(unsigned a) {
    s_.cache.associativity = a;
    return *this;
  }
  MachineSpecBuilder& latency(const LatencyModel& m) {
    s_.latency = m;
    return *this;
  }
  MachineSpecBuilder& hit_latency(Cycles c) {
    s_.hit_latency = c;
    return *this;
  }
  MachineSpecBuilder& model_shared_hit_costs(bool on = true) {
    s_.model_shared_hit_costs = on;
    return *this;
  }
  MachineSpecBuilder& banks_per_proc(unsigned b) {
    s_.banks_per_proc = b;
    return *this;
  }
  MachineSpecBuilder& contention(const ContentionSpec& c) {
    s_.contention = c;
    return *this;
  }
  /// Convenience: enable the contention model with its default busy times.
  MachineSpecBuilder& contention_enabled(bool on = true) {
    s_.contention.enabled = on;
    return *this;
  }
  MachineSpecBuilder& page_bytes(unsigned b) {
    s_.page_bytes = b;
    return *this;
  }
  MachineSpecBuilder& runahead_quantum(Cycles q) {
    s_.runahead_quantum = q;
    return *this;
  }
  MachineSpecBuilder& max_cycles(std::uint64_t c) {
    s_.max_cycles = c;
    return *this;
  }
  MachineSpecBuilder& max_events(std::uint64_t e) {
    s_.max_events = e;
    return *this;
  }
  MachineSpecBuilder& audit_interval(std::uint64_t n) {
    s_.audit_interval = n;
    return *this;
  }
  MachineSpecBuilder& max_host_seconds(double s) {
    s_.max_host_seconds = s;
    return *this;
  }
  MachineSpecBuilder& sampling(const SamplingSpec& s) {
    s_.sampling = s;
    return *this;
  }
  /// Convenience: enable periodic sampling (warm `warmup` refs, then measure
  /// `detail` refs every `period` refs; period 0 = a single interval).
  MachineSpecBuilder& sample(std::uint64_t warmup, std::uint64_t detail,
                             std::uint64_t period = 0) {
    s_.sampling.enabled = true;
    s_.sampling.warmup_refs = warmup;
    s_.sampling.detail_refs = detail;
    s_.sampling.period_refs = period;
    return *this;
  }
  MachineSpecBuilder& checkpoint_dir(std::string dir) {
    s_.sampling.checkpoint_dir = std::move(dir);
    return *this;
  }
  MachineSpecBuilder& warm_quantum(Cycles q) {
    s_.sampling.warm_quantum = q;
    return *this;
  }

  /// Validates and returns the spec by value (throws ConfigError).
  [[nodiscard]] MachineSpec build() const {
    s_.validate();
    return s_;
  }
  /// Returns the spec without validating. For sweep drivers that want an
  /// invalid configuration to degrade into an ok == false row inside
  /// run_sweep (Simulator validates again) rather than abort the sweep.
  [[nodiscard]] MachineSpec build_unchecked() const { return s_; }
  /// Validates and returns the immutable shared form the run owns.
  [[nodiscard]] std::shared_ptr<const MachineSpec> build_shared() const {
    s_.validate();
    return std::make_shared<const MachineSpec>(s_);
  }

 private:
  MachineSpec s_{};
};

}  // namespace csim
