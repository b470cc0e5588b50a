#include "src/core/processor.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/core/sync.hpp"
#include "src/mem/cache.hpp"
#include "src/obs/observer.hpp"

namespace csim {

void Proc::schedule_resume(Cycles t, std::coroutine_handle<> h) {
  queue_->schedule_resume(t, this, h);
}

void Proc::resume_event(Cycles t, std::coroutine_handle<> h) {
  begin_slice(t);
  if (run_.active) {
    // Re-enter the suspended run without resuming the coroutine; only a
    // completed run hands control back to the application code.
    Cycles resume_at = 0;
    if (!run_step(resume_at)) {
      schedule_resume(resume_at, h);
      if (obs_ != nullptr) obs_->on_slice(id_, t, now_);
      return;
    }
    run_.active = false;
  }
  h.resume();
  note_if_finished();
  if (obs_ != nullptr) obs_->on_slice(id_, t, now_);
}

void Proc::launch() {
  begin_slice(0);
  root.start();
  note_if_finished();
  if (obs_ != nullptr) obs_->on_slice(id_, 0, now_);
}

void Proc::note_if_finished() noexcept {
  if (!finished && root.valid() && root.done()) {
    finished = true;
    finish_time = now_;
  }
}

bool Proc::access(Addr a, bool write, Cycles& resume_at) {
  if (sampling_ == nullptr) {
    return write ? detail_write(a, resume_at) : detail_read(a, resume_at);
  }
  if (!sampling_->detail()) return warm_access(a, write, resume_at);
  const bool ok =
      write ? detail_write(a, resume_at) : detail_read(a, resume_at);
  sampling_->on_ref(now_);
  return ok;
}

void Proc::mirror_hits(Addr line, bool write, std::uint64_t n) noexcept {
  if (write) {
    hot_->writes += n;
    hot_->write_hits += n;
  } else {
    hot_->reads += n;
    hot_->read_hits += n;
  }
  if (touch_cache_ != nullptr) touch_cache_->touch(line);
}

std::optional<AccessResult> Proc::filtered_access(Addr a, bool write,
                                                  std::uint64_t repeats) {
  const Addr line = a & line_mask_;
  const std::uint64_t* gen =
      gen_ == nullptr ? nullptr
                      : &gen_[hint_generation(line, table_.line_shift)];
  if (gen != nullptr && table_.hit(line, *gen, write)) {
    // Repeat hit to a hinted line, its generation unchanged: bypass the
    // memory system, mirroring its hit-path counter updates and (for bounded
    // LRU caches) its most-recently-used promotion.
    mirror_hits(line, write, repeats + 1);
    return std::nullopt;
  }
  const AccessResult r =
      write ? coh_->write(id_, a, now_) : coh_->read(id_, a, now_);
  // The counter is read after the call: the hint describes the line after
  // this access, so a kill the access itself made (an evicted victim that
  // shares the counter) does not void it.
  if (gen != nullptr) table_.remember(line, *gen, r.hint);
  if (repeats != 0) mirror_hits(line, write, repeats);
  return r;
}

bool Proc::warm_access(Addr a, bool write, Cycles& resume_at) {
  if (!sampling_->fast_forward()) {
    filtered_access(a, write, 0);
  }
  const Cycles hit = cfg_->hit_latency;
  buckets_.cpu += hit;
  now_ += hit;
  sampling_->on_ref(now_);
  return check_slice(resume_at);
}

bool Proc::detail_read(Addr a, Cycles& resume_at) {
  const auto result = filtered_access(a, false, 0);
  const Cycles hit = access_cost();
  if (!result) {  // a repeat hit, served by the table
    buckets_.cpu += hit;
    now_ += hit;
    return check_slice(resume_at);
  }
  const AccessResult& r = *result;
  switch (r.kind) {
    case AccessResult::Kind::Hit:
      buckets_.cpu += hit;
      buckets_.contention += r.contention;
      now_ += hit + r.contention;
      return check_slice(resume_at);
    case AccessResult::Kind::Merge: {
      const Cycles issued = now_;
      buckets_.cpu += hit;
      buckets_.contention += r.contention;
      const Cycles issue_done = now_ + hit + r.contention;
      const Cycles stall = r.ready_at > issue_done ? r.ready_at - issue_done : 0;
      buckets_.merge += stall;
      now_ = issue_done + stall;
      resume_at = now_;
      wait_ = WaitInfo{WaitKind::Memory, nullptr, nullptr, a, now_, issued};
      if (obs_ != nullptr) {
        obs_->on_memory_stall(id_, a, Observer::Stall::Merge, issue_done, now_,
                              r.lclass);
      }
      return false;  // a stall always yields to the queue
    }
    case AccessResult::Kind::ReadMiss:
    case AccessResult::Kind::NearHit: {
      // NearHit: served within the cluster (snoop / attraction memory) in
      // the shared-main-memory organization; the stall is still load time.
      // Queueing delays (bank / directory / NIC waits) are charged to the
      // contention bucket, separating Table 1 latency from backlog stalls.
      const Cycles issued = now_;
      buckets_.cpu += hit;
      buckets_.load += r.latency;
      buckets_.contention += r.contention;
      now_ += hit + r.latency + r.contention;
      resume_at = now_;
      wait_ = WaitInfo{WaitKind::Memory, nullptr, nullptr, a, now_, issued};
      if (obs_ != nullptr) {
        obs_->on_memory_stall(id_, a, Observer::Stall::Load, issued + hit,
                              now_, r.lclass);
      }
      return false;
    }
    default:
      // Writes never come back from CoherenceController::read.
      return check_slice(resume_at);
  }
}

bool Proc::detail_write(Addr a, Cycles& resume_at) {
  if (const auto r = filtered_access(a, true, 0)) {
    // The store buffer hides miss latency but not the port queue: issue
    // itself waits for the bank/bus, a processor-visible contention stall.
    buckets_.contention += r->contention;
    now_ += r->contention;
  }
  // Store issue occupies the cache for one access; all miss/upgrade latency
  // is hidden by the store buffer under relaxed consistency.
  const Cycles cost = access_cost();
  buckets_.cpu += cost;
  now_ += cost;
  return check_slice(resume_at);
}

bool Proc::do_compute(Cycles n, Cycles& resume_at) {
  buckets_.cpu += n;
  now_ += n;
  return check_slice(resume_at);
}

bool Proc::run_step(Cycles& resume_at) {
  RunState& r = run_;
  while (r.idx < r.count) {
    // Batched warming: in a non-detail regime, whole groups of run
    // iterations retire per memory probe, whatever the op mix. Requires the
    // hit filter (gen_) to mirror the repeat-hit counter updates in bulk —
    // except in FastForward, which makes no memory calls at all. Batched and
    // per-reference warming retire the same references at the same flat
    // costs, but their results can differ (docs/PERFORMANCE.md, "Making
    // warming fast"): a batch may end exactly on a regime boundary, charging
    // that iteration's trailing computes to warming; and retiring one op's
    // repeat hits before the next op's first access hides conflict evictions
    // in direct-mapped caches.
    if (sampling_ != nullptr && r.pc == 0 && !sampling_->detail() &&
        (sampling_->fast_forward() || gen_ != nullptr)) {
      bool progressed = false;
      if (!warm_run_batch(resume_at, progressed)) return false;
      if (progressed) continue;
    }
    while (r.pc < r.num_ops) {
      const RunOp& op = r.ops[r.pc];
      ++r.pc;
      const bool ok =
          op.kind == RunOp::Kind::Compute
              ? do_compute(op.base, resume_at)
              : access(op.base + Addr{r.idx} * op.stride,
                       op.kind == RunOp::Kind::Write, resume_at);
      if (!ok) return false;
    }
    r.pc = 0;
    ++r.idx;
  }
  return true;
}

bool Proc::warm_run_batch(Cycles& resume_at, bool& progressed) {
  RunState& r = run_;
  const Cycles hit = cfg_->hit_latency;
  // Flat cost and memory-reference count of one whole iteration.
  Cycles per_iter = 0;
  std::uint64_t mem_per_iter = 0;
  for (unsigned j = 0; j < r.num_ops; ++j) {
    if (r.ops[j].kind == RunOp::Kind::Compute) {
      per_iter += r.ops[j].base;
    } else {
      per_iter += hit;
      ++mem_per_iter;
    }
  }
  if (per_iter == 0) {  // zero-cost iterations: nothing to amortize
    progressed = false;
    return true;
  }
  // Cap 1: remaining iterations of the run.
  std::uint64_t k = r.count - r.idx;
  // Cap 2: whole iterations left in the slice (now_ < slice_end_ here; the
  // crossing iteration runs per reference, preserving the exact yield
  // cycle of unbatched warming).
  const std::uint64_t in_slice = (slice_end_ - now_) / per_iter;
  if (in_slice < k) k = in_slice;
  // Cap 3: never cross a regime boundary or a watchdog poll point (the
  // crossing iteration runs per reference, so boundaries land mid-iteration
  // on the right reference). A batch can still end exactly on a boundary,
  // and then its last iteration's trailing computes are charged to warming.
  if (mem_per_iter != 0) {
    const std::uint64_t in_regime = sampling_->max_batch() / mem_per_iter;
    if (in_regime < k) k = in_regime;
  }
  if (k == 0) {
    progressed = false;
    return true;
  }

  // Walk the group in line-sized chunks — within a chunk every memory op
  // stays on one cache line, so a single real access (or table probe) covers
  // it and the rest are mirrored as repeat hits, in bulk. With direct-mapped
  // caches another op's access can evict the line in between, where
  // per-reference warming would miss again. Chunking inside one call,
  // instead of capping the batch at a line crossing, amortizes the batch
  // setup over strided streams whose chunks are a single iteration (LU's
  // block sweeps). (Table collisions between ops are harmless: the filter is
  // a digest-neutral fast path, so extra real accesses to a warm line count
  // identically.) FastForward makes no memory accesses, so it retires the
  // whole group as one chunk.
  const bool touch_memory = !sampling_->fast_forward();
  for (std::uint64_t remaining = k; remaining != 0;) {
    std::uint64_t chunk = remaining;
    for (unsigned j = 0; touch_memory && j < r.num_ops && chunk > 1; ++j) {
      const RunOp& op = r.ops[j];
      if (op.kind == RunOp::Kind::Compute || op.stride == 0) continue;
      const Addr addr = op.base + Addr{r.idx} * op.stride;
      const Addr next_line = (addr | ~line_mask_) + 1;
      const std::uint64_t in_line =
          (next_line - addr + op.stride - 1) / op.stride;
      if (in_line < chunk) chunk = in_line;
    }
    for (unsigned j = 0; touch_memory && j < r.num_ops; ++j) {
      const RunOp& op = r.ops[j];
      if (op.kind == RunOp::Kind::Compute) continue;
      filtered_access(op.base + Addr{r.idx} * op.stride,
                      op.kind == RunOp::Kind::Write, chunk - 1);
    }
    // Advance the local clock per chunk so real accesses carry the same
    // timestamps a line-capped batch sequence would have issued.
    buckets_.cpu += chunk * per_iter;
    now_ += chunk * per_iter;
    r.idx += static_cast<std::uint32_t>(chunk);
    remaining -= chunk;
  }
  if (mem_per_iter != 0) sampling_->on_refs(k * mem_per_iter, now_);
  progressed = true;
  return check_slice(resume_at);
}

Proc::OpAwaiter Proc::run(const RunOp* ops, unsigned num_ops,
                          std::uint32_t count) {
  if (num_ops > kMaxRunOps) {
    throw std::invalid_argument("Proc::run: more than kMaxRunOps ops");
  }
  RunState& r = run_;
  r.num_ops = num_ops;
  std::copy(ops, ops + num_ops, r.ops.begin());
  r.pc = 0;
  r.idx = 0;
  r.count = count;
  r.active = true;
  OpAwaiter aw{this};
  aw.ready = run_step(aw.resume_at);
  if (aw.ready) r.active = false;
  return aw;
}

Proc::OpAwaiter Proc::run(std::initializer_list<RunOp> ops,
                          std::uint32_t count) {
  return run(ops.begin(), static_cast<unsigned>(ops.size()), count);
}

Proc::OpAwaiter Proc::run(Addr base, Addr stride, std::uint32_t count,
                          bool is_write, Cycles compute_per_ref) {
  const RunOp ref =
      is_write ? RunOp::write(base, stride) : RunOp::read(base, stride);
  if (compute_per_ref != 0) {
    return run({ref, RunOp::compute(compute_per_ref)}, count);
  }
  return run({ref}, count);
}

bool Proc::BarrierAwaiter::await_ready() const {
  Barrier& bar = *b;
  if (bar.arrived_ + 1 < bar.participants_) return false;
  // Last arriver: release everyone at (no earlier than) our current time.
  const Cycles release = p->now_;
  if (p->obs_ != nullptr) p->obs_->on_barrier_arrive(p->id_, b, release);
  const unsigned released = static_cast<unsigned>(bar.waiters_.size()) + 1;
  for (auto& w : bar.waiters_) {
    const Cycles t = std::max(release, w.arrival);
    w.p->mutable_buckets().sync += t - w.arrival;
    w.p->schedule_resume(t, w.h);
  }
  bar.waiters_.clear();
  bar.arrived_ = 0;
  ++bar.generations_;
  if (p->obs_ != nullptr) p->obs_->on_barrier_release(b, released, release);
  return true;
}

void Proc::BarrierAwaiter::await_suspend(std::coroutine_handle<> h) const {
  Barrier& bar = *b;
  ++bar.arrived_;
  bar.waiters_.push_back(Barrier::Waiter{h, p, p->now_});
  p->wait_ = WaitInfo{WaitKind::Barrier, b, nullptr, 0, 0, p->now_};
  if (p->obs_ != nullptr) p->obs_->on_barrier_arrive(p->id_, b, p->now_);
}

bool Proc::AcquireAwaiter::await_ready() const {
  // Acquisition is a globally visible action: even an uncontended acquire
  // takes a queue round-trip so that other processors at the same simulated
  // time observe the lock as held (otherwise a critical section shorter than
  // the run-ahead quantum could overlap with a cluster-mate's).
  return false;
}

void Proc::AcquireAwaiter::await_suspend(std::coroutine_handle<> h) const {
  Lock& lk = *l;
  if (!lk.held_) {
    lk.held_ = true;
    lk.owner_ = p->id();
    ++lk.acquisitions_;
    p->schedule_resume(p->now_, h);
    return;
  }
  ++lk.contended_;
  lk.waiters_.push_back(Lock::Waiter{h, p, p->now_});
  p->wait_ = WaitInfo{WaitKind::Lock, nullptr, l, 0, 0, p->now_};
  if (p->obs_ != nullptr) p->obs_->on_lock_wait(p->id_, l, p->now_);
}

void Proc::release(Lock& l) {
  if (!l.held_) return;
  if (l.waiters_.empty()) {
    l.held_ = false;
    return;
  }
  Lock::Waiter w = l.waiters_.front();
  l.waiters_.pop_front();
  const Cycles t = std::max(now_, w.arrival);
  w.p->mutable_buckets().sync += t - w.arrival;
  l.owner_ = w.p->id();
  ++l.acquisitions_;
  w.p->schedule_resume(t, w.h);
}

}  // namespace csim
