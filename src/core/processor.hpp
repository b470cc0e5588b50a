// Proc: the per-processor execution context visible to application code.
//
// Application coroutines interact with the simulated machine exclusively
// through this interface:
//
//   co_await p.read(addr);     // load: may stall (miss/merge)
//   co_await p.write(addr);    // store: never stalls (store buffer)
//   co_await p.compute(n);     // n cycles of pure computation
//   co_await p.barrier(bar);   // global or phase barrier
//   co_await p.acquire(lock);  // FIFO lock
//   p.release(lock);
//
// Timing model: each operation advances this processor's local clock.
// Purely local operations (hits, computes, writes) may run ahead of global
// time by up to `runahead_quantum` cycles before the processor yields to the
// event queue; anything that stalls always yields. Read hits cost
// `hit_latency` busy cycles; read misses stall for the Table 1 latency
// (charged to the load bucket); reads joining an in-flight fill charge the
// merge bucket; barrier/lock waits charge the sync bucket.
#pragma once

#include <array>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <optional>

#include "src/core/machine.hpp"
#include "src/core/event_queue.hpp"
#include "src/core/sampling.hpp"
#include "src/core/sim_task.hpp"
#include "src/core/stats.hpp"
#include "src/core/types.hpp"
#include "src/mem/memory_system.hpp"

namespace csim {

class Barrier;
class Lock;
class Observer;

class Proc : public EventQueue::Resumable {
 public:
  /// What a suspended processor is waiting for (diagnostics: the Simulator
  /// renders this into MachineSnapshot / DeadlockError messages).
  enum class WaitKind : std::uint8_t {
    None,     ///< runnable (between slices) or never suspended
    Barrier,  ///< parked in a Barrier's waiter list
    Lock,     ///< queued on a contended Lock
    Memory,   ///< stalled on an outstanding miss / merged fill
  };
  struct WaitInfo {
    WaitKind kind = WaitKind::None;
    const class Barrier* barrier = nullptr;  ///< set when kind == Barrier
    const class Lock* lock = nullptr;        ///< set when kind == Lock
    Addr addr = 0;                           ///< set when kind == Memory
    Cycles ready_at = 0;                     ///< fill time (kind == Memory)
    Cycles since = 0;                        ///< local clock at suspension
  };

  Proc(const MachineSpec& cfg, EventQueue& q, MemorySystem& coh,
       ProcId id)
      : cfg_(&cfg), queue_(&q), coh_(&coh), id_(id),
        cluster_(cfg.cluster_of(id)),
        line_mask_(~Addr{cfg.cache.line_bytes - 1}),
        hot_(coh.hot_counters(cfg.cluster_of(id))),
        rng_state_(0x9e3779b9u ^ (id * 2654435761u)) {
    if (hot_ != nullptr) {
      gen_ = coh.generation_addr(cluster_);
      touch_cache_ = coh.touch_cache(id_);
    }
    table_.line_shift =
        static_cast<unsigned>(std::countr_zero(cfg.cache.line_bytes));
    if (cfg.model_shared_hit_costs && cfg.procs_per_cluster > 1) {
      const unsigned n = cfg.procs_per_cluster;
      const double m = static_cast<double>(cfg.banks_per_proc) * n;
      double miss = 1.0;
      for (unsigned i = 1; i < n; ++i) miss *= (m - 1.0) / m;
      conflict_threshold_ =
          static_cast<std::uint64_t>((1.0 - miss) * 4294967296.0);
    }
  }

  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  [[nodiscard]] ProcId id() const noexcept { return id_; }
  [[nodiscard]] ClusterId cluster() const noexcept { return cluster_; }
  [[nodiscard]] unsigned nprocs() const noexcept { return cfg_->num_procs; }
  [[nodiscard]] Cycles now() const noexcept { return now_; }
  [[nodiscard]] const TimeBuckets& buckets() const noexcept { return buckets_; }
  [[nodiscard]] const MachineSpec& config() const noexcept { return *cfg_; }
  /// Current wait state; WaitKind::None while runnable. Stable after the
  /// event queue drains, which is what deadlock diagnostics read.
  [[nodiscard]] const WaitInfo& wait() const noexcept { return wait_; }

  /// Generic suspension awaiter: if `ready` is false the coroutine parks and
  /// is resumed (via the event queue) at `resume_at`.
  struct OpAwaiter {
    Proc* p;
    Cycles resume_at = 0;
    bool ready = true;
    bool await_ready() const noexcept { return ready; }
    void await_suspend(std::coroutine_handle<> h) const {
      p->schedule_resume(resume_at, h);
    }
    void await_resume() const noexcept {}
  };

  OpAwaiter read(Addr a) {
    OpAwaiter aw{this};
    aw.ready = access(a, false, aw.resume_at);
    return aw;
  }
  OpAwaiter write(Addr a) {
    OpAwaiter aw{this};
    aw.ready = access(a, true, aw.resume_at);
    return aw;
  }
  OpAwaiter compute(Cycles n) {
    OpAwaiter aw{this};
    aw.ready = do_compute(n, aw.resume_at);
    return aw;
  }

  // --- Run-length access streams (docs/PERFORMANCE.md) --------------------

  /// One step of a run element: a strided read/write stream or a fixed
  /// per-element compute burst.
  struct RunOp {
    enum class Kind : std::uint8_t { Read, Write, Compute };
    Addr base = 0;    ///< Compute: busy cycles per element
    Addr stride = 0;  ///< element i accesses base + i*stride (Compute: unused)
    Kind kind = Kind::Read;
    static constexpr RunOp read(Addr base, Addr stride = 0) noexcept {
      return {base, stride, Kind::Read};
    }
    static constexpr RunOp write(Addr base, Addr stride = 0) noexcept {
      return {base, stride, Kind::Write};
    }
    static constexpr RunOp compute(Cycles cycles) noexcept {
      return {cycles, 0, Kind::Compute};
    }
  };

  /// Issues a run: `count` elements, each executing `ops` in order (reads and
  /// writes at base + i*stride, computes of a fixed per-element cost).
  /// Awaiting the result retires the whole run exactly as the equivalent
  /// per-reference co_await loop would — same references, same order, same
  /// cycle accounting, same event schedule — but in a tight retirement loop
  /// that re-enters the scheduler only at a miss, merge, or quantum expiry
  /// instead of crossing a coroutine frame per reference. The awaitable must
  /// be co_awaited immediately: a Proc has one live run at a time.
  OpAwaiter run(std::initializer_list<RunOp> ops, std::uint32_t count);

  /// Capacity of a run's per-element op list (sized for the widest workload
  /// stencil — Ocean's restriction); longer lists must be chunked by the app.
  static constexpr unsigned kMaxRunOps = 20;

  /// As above, for op lists assembled at runtime (e.g. a stencil built in a
  /// loop). `num_ops` must be ≤ kMaxRunOps.
  OpAwaiter run(const RunOp* ops, unsigned num_ops, std::uint32_t count);

  /// Single-stream convenience: `count` strided references, each optionally
  /// followed by `compute_per_ref` busy cycles.
  OpAwaiter run(Addr base, Addr stride, std::uint32_t count, bool is_write,
                 Cycles compute_per_ref = 0);

  struct BarrierAwaiter {
    Proc* p;
    Barrier* b;
    bool await_ready() const;
    void await_suspend(std::coroutine_handle<> h) const;
    void await_resume() const noexcept {}
  };
  BarrierAwaiter barrier(Barrier& b) { return BarrierAwaiter{this, &b}; }

  struct AcquireAwaiter {
    Proc* p;
    Lock* l;
    bool await_ready() const;
    void await_suspend(std::coroutine_handle<> h) const;
    void await_resume() const noexcept {}
  };
  AcquireAwaiter acquire(Lock& l) { return AcquireAwaiter{this, &l}; }
  void release(Lock& l);

  // --- engine-side interface (used by Simulator and sync primitives) ------

  /// Resets the local clock at the start of an event-queue slice.
  void begin_slice(Cycles t) noexcept {
    now_ = t;
    slice_end_ = t + (sampling_ == nullptr ? cfg_->runahead_quantum
                                           : sampling_->quantum());
    wait_ = WaitInfo{};  // resumed: whatever we waited for is over
  }

  /// Attaches the interval-sampling controller (src/core/sampling.hpp). Null
  /// (the default) keeps every access on the unsampled hot path — a single
  /// branch per operation.
  void set_sampling(SamplingController* s) noexcept { sampling_ = s; }

  /// Schedules `h` to resume at absolute time `t` (with a fresh slice).
  void schedule_resume(Cycles t, std::coroutine_handle<> h);

  /// EventQueue fast-path dispatch: fresh slice, resume, completion check.
  void resume_event(Cycles t, std::coroutine_handle<> h) override;

  /// Starts the root coroutine at t = 0 (first slice; used by Simulator).
  void launch();

  /// Attaches an observability sink (src/obs/observer.hpp). Null (the
  /// default) disables every hook — a single branch per site.
  void set_observer(Observer* obs) noexcept { obs_ = obs; }

  /// Records completion if the root coroutine has finished.
  void note_if_finished() noexcept;

  TimeBuckets& mutable_buckets() noexcept { return buckets_; }

  bool finished = false;
  Cycles finish_time = 0;
  SimTask root;

 private:
  /// Generation-tagged hit filter table (docs/PERFORMANCE.md): a
  /// direct-mapped set of lines this processor recently hit, each entry valid
  /// while the line's generation counter in its cluster
  /// (MemorySystem::generation_addr) still reads the value recorded with it.
  /// The memory system bumps a line's counter only on events that could
  /// invalidate a hint for that line in *this* cluster, so entries survive
  /// other lines' evictions and, across event-queue slices, other clusters'
  /// runs. At 512 slots the up to kMaxRunOps streams of a run (Ocean's
  /// stencils use all 20) rarely collide.
  struct HitTable {
    static constexpr std::size_t kSlots = 512;
    /// 16 bytes: the writable bit shares a word with a 63-bit generation,
    /// since a line address has no spare bit when lines are one byte.
    struct Entry {
      Addr line = ~Addr{0};  // past every allocation: matches no line
      std::uint64_t tag = 0;  // generation * 2 + writable
    };
    unsigned line_shift = 0;
    std::array<Entry, kSlots> entries;

    [[nodiscard]] Entry& slot(Addr line) noexcept {
      return entries[(line >> line_shift) & (kSlots - 1)];
    }
    /// True if a read (or, with `write`, a store) to `line`, whose counter
    /// reads `gen`, is a repeat hit the memory system promised to serve as a
    /// plain Hit.
    [[nodiscard]] bool hit(Addr line, std::uint64_t gen, bool write) noexcept {
      const Entry& e = slot(line);
      return e.line == line &&
             (e.tag | std::uint64_t{!write}) == (gen << 1 | 1);
    }
    /// Records the hint of a memory-system access to `line`.
    void remember(Addr line, std::uint64_t gen, MruHint hint) noexcept {
      if (hint != MruHint::None) {
        slot(line) = Entry{line, gen << 1 | (hint == MruHint::ReadWrite)};
      }
    }
  };

  /// Every read and write: the detailed path (the unsampled semantics, also
  /// used verbatim inside a sampled run's detailed intervals) or, in a
  /// sampled run's warming regimes, warm_access.
  bool access(Addr a, bool write, Cycles& resume_at);
  bool detail_read(Addr a, Cycles& resume_at);
  bool detail_write(Addr a, Cycles& resume_at);
  bool do_compute(Cycles n, Cycles& resume_at);

  /// Functional warming: memory state (and counters) updated through the
  /// usual protocol, but every reference retires at a flat hit_latency —
  /// never stalls, never rolls the shared-hit-cost rng. In FastForward the
  /// memory call is skipped entirely; the timing is identical by
  /// construction (warming timing never depends on memory state), which is
  /// what makes checkpoint restore exact.
  bool warm_access(Addr a, bool write, Cycles& resume_at);

  /// The one memory access behind every filtered path, followed by
  /// `repeats` further hits to the same line (batched warming). A repeat
  /// hit in the table bypasses the memory system and returns nullopt, a
  /// plain hit; anything else calls it, records the hint and returns its
  /// result.
  std::optional<AccessResult> filtered_access(Addr a, bool write,
                                              std::uint64_t repeats);
  /// Mirrors `n` hits to `line` that bypassed the memory system: its hit
  /// counters, and (for bounded LRU caches) one most-recently-used
  /// promotion, so eviction order — and with it every digest — stays
  /// bit-identical to the slow path.
  void mirror_hits(Addr line, bool write, std::uint64_t n) noexcept;

  /// In-flight run (one per processor).
  struct RunState {
    std::array<RunOp, kMaxRunOps> ops{};
    unsigned num_ops = 0;
    unsigned pc = 0;        ///< next op of the current element
    std::uint32_t idx = 0;  ///< current element
    std::uint32_t count = 0;
    bool active = false;  ///< suspended mid-run; resume_event re-enters it
  };
  /// Retires run ops until the run completes (true) or an op yields to the
  /// event queue (false, resume_at set) — stall, merge, or quantum expiry.
  /// In a sampled run's warming regimes, whole groups of run iterations
  /// retire per memory probe (warm_run_batch).
  bool run_step(Cycles& resume_at);
  /// One warming/fast-forward batch of the active run: retires `k` whole
  /// iterations at the flat warming cost, with one real memory access or
  /// table probe per memory op and line-sized chunk; the op's other
  /// references in the chunk are mirrored as repeat hits, in bulk. Sets
  /// `progressed` false (and consumes nothing) when not even one whole
  /// iteration fits before the next slice / regime / poll point — the
  /// caller then retires that iteration per reference, so slice yields land
  /// on the same cycle as unbatched warming. Results can still differ from
  /// per-reference warming in the two ways run_step names.
  bool warm_run_batch(Cycles& resume_at, bool& progressed);
  /// True if the slice budget is exhausted; sets resume_at for suspension.
  bool check_slice(Cycles& resume_at) noexcept {
    if (now_ >= slice_end_) {
      resume_at = now_;
      return false;
    }
    return true;
  }

  /// Cache access cost in cycles: hit_latency, or — when shared-cache hit
  /// costs are modelled in-simulation — the Table 1 shared hit latency plus
  /// one cycle on a pseudo-random bank conflict (Table 4 probability).
  Cycles access_cost() noexcept {
    if (!cfg_->model_shared_hit_costs) return cfg_->hit_latency;
    Cycles cost = cfg_->shared_cache_hit_latency();
    if (conflict_threshold_ != 0) {
      rng_state_ = rng_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
      if ((rng_state_ >> 32) < conflict_threshold_) ++cost;
    }
    return cost;
  }

  const MachineSpec* cfg_;
  EventQueue* queue_;
  MemorySystem* coh_;
  Observer* obs_ = nullptr;
  ProcId id_;
  ClusterId cluster_;
  Addr line_mask_;
  Cycles now_ = 0;
  Cycles slice_end_ = 0;
  WaitInfo wait_{};
  TimeBuckets buckets_{};

  // Hit filter: repeat hits bypass the virtual access call and its protocol
  // branches (filtered_access). Disabled (gen_ == nullptr) when the memory
  // system must observe every access. Detailed accesses, per-reference
  // warming and batched warming share the one table.
  MissCounters* hot_ = nullptr;
  // The cluster's kHintGenerations counters; null disables the filter.
  const std::uint64_t* gen_ = nullptr;
  CacheStorage* touch_cache_ = nullptr;  // LRU to touch per filtered hit
  HitTable table_;

  RunState run_{};

  SamplingController* sampling_ = nullptr;  // null: unsampled hot path

  std::uint64_t rng_state_ = 0;
  std::uint64_t conflict_threshold_ = 0;  // scaled to 2^32
};

}  // namespace csim
