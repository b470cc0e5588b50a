// Deterministic time-ordered event queue for the simulation engine.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/core/types.hpp"

namespace csim {

class Observer;

/// A 4-ary min-heap of (time, sequence) ordered events with a same-cycle
/// dispatch buffer.
///
/// Ties in time are broken by insertion order, which makes simulations fully
/// deterministic for a given workload and configuration.
///
/// The dominant event — "resume coroutine handle h on target r at time t",
/// scheduled once per processor suspension — is stored inline in a 32-byte
/// trivially copyable record with no heap allocation. Generic callbacks
/// (simulation launch, tests, tooling) go through a std::function escape
/// hatch whose storage is recycled in a slot table.
///
/// Dispatch drains every event due at the current cycle from the heap into a
/// flat buffer in (time, seq) order, then serves them sequentially; events
/// scheduled *at* the current cycle during the burst carry larger sequence
/// numbers, land in the heap, and are picked up by the next refill — the
/// global (time, seq) dispatch order is identical to popping one by one.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Target of the allocation-free fast path. Implemented by Proc: the
  /// queue's only dependency is "something that can resume a coroutine at a
  /// simulated time".
  class Resumable {
   public:
    virtual void resume_event(Cycles t, std::coroutine_handle<> h) = 0;

   protected:
    ~Resumable() = default;
  };

  /// Watchdog budgets. A zero field disables that check. `no_progress_events`
  /// bounds the number of events processed without simulated time advancing
  /// (the livelock signature: the queue churns at a fixed cycle forever).
  struct Budget {
    std::uint64_t max_cycles = 0;
    std::uint64_t max_events = 0;
    std::uint64_t no_progress_events = 0;
  };

  /// Schedules `fn` to run at absolute simulated time `t` (escape hatch;
  /// allocates whatever the std::function needs).
  void schedule(Cycles t, Callback fn);

  /// Allocation-free fast path: schedules `r->resume_event(t, h)` at
  /// absolute simulated time `t`. Shares the (time, seq) order with
  /// schedule(), so interleavings stay deterministic.
  void schedule_resume(Cycles t, Resumable* r, std::coroutine_handle<> h);

  /// True when no events remain.
  [[nodiscard]] bool empty() const noexcept {
    return heap_.empty() && ready_pos_ == ready_.size();
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return heap_.size() + (ready_.size() - ready_pos_);
  }

  /// Current simulated time (time of the last event popped).
  [[nodiscard]] Cycles now() const noexcept { return now_; }

  /// Pops and runs the earliest event, advancing now(). Precondition:
  /// !empty().
  void run_one();

  /// Runs events until the queue drains. Returns the final time. If a budget
  /// is set, throws LivelockError (with a queue-level snapshot) on violation.
  Cycles run_to_completion();

  /// Arms the watchdog. The budget is checked by run_to_completion() after
  /// every event; external drivers (Simulator::run) poll over_budget().
  void set_budget(const Budget& b) noexcept { budget_ = b; }

  /// Total events executed so far.
  [[nodiscard]] std::uint64_t events_run() const noexcept { return events_run_; }

  /// Inline fast path of the watchdog: true when any armed budget is
  /// violated. Checked after every event, so it must not allocate; the
  /// message lives in budget_violation().
  [[nodiscard]] bool over_budget() const noexcept {
    return (budget_.max_cycles != 0 && now_ > budget_.max_cycles) ||
           (budget_.max_events != 0 && events_run_ > budget_.max_events) ||
           (budget_.no_progress_events != 0 &&
            events_run_ - events_at_last_advance_ >=
                budget_.no_progress_events);
  }

  /// Description of the violated budget, or nullopt while within budget.
  [[nodiscard]] std::optional<std::string> budget_violation() const;

  /// Attaches an observability sink (src/obs/observer.hpp): run_one()
  /// reports every dispatched event. Null (the default) disables the hook —
  /// a single branch on the hot path.
  void set_observer(Observer* obs) noexcept { obs_ = obs; }

  /// Address of the events-run counter, stable for this queue's lifetime
  /// (bound into Observer::RunBinding for interval sampling).
  [[nodiscard]] const std::uint64_t* events_run_addr() const noexcept {
    return &events_run_;
  }

 private:
  /// 32 bytes, trivially copyable, so heap sift operations are cheap moves.
  /// target != nullptr: resume-coroutine fast path, payload is the coroutine
  /// frame address (`handle`). target == nullptr: generic callback, payload
  /// is `slot` into slots_. The handle is stored as its address because
  /// std::coroutine_handle is not a valid union member (non-trivial default
  /// constructor); from_address() restores it losslessly.
  struct Event {
    Cycles t;
    std::uint64_t seq;
    Resumable* target;
    union {
      void* handle;
      std::uint32_t slot;
    };
  };
  /// True when `a` dispatches after `b`.
  static bool later(const Event& a, const Event& b) noexcept {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  }

  void push(Event ev);
  /// Removes and returns the heap minimum. Precondition: !heap_.empty().
  Event pop_min();
  void dispatch(const Event& ev);

  std::vector<Event> heap_;            // 4-ary min-heap, later() order
  std::vector<Event> ready_;           // events due at the current cycle
  std::size_t ready_pos_ = 0;          // next undispatched index in ready_
  std::vector<Callback> slots_;        // generic callback storage
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  Cycles now_ = 0;
  Budget budget_{};
  Observer* obs_ = nullptr;
  std::uint64_t events_run_ = 0;
  std::uint64_t events_at_last_advance_ = 0;  // events_run_ when now_ last grew
};

}  // namespace csim
