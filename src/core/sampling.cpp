#include "src/core/sampling.hpp"

#include <cstdio>
#include <limits>
#include <utility>

#include "src/core/error.hpp"
#include "src/mem/memory_system.hpp"

namespace csim {

namespace {
constexpr std::uint64_t kNoBoundary =
    std::numeric_limits<std::uint64_t>::max();
}  // namespace

SamplingController::SamplingController(
    const MachineSpec& cfg, MemorySystem* mem, bool fast_forward,
    std::chrono::steady_clock::time_point host_start)
    : cfg_(&cfg),
      mem_(mem),
      regime_(fast_forward ? Regime::FastForward : Regime::Warming),
      host_start_(host_start) {
  next_boundary_ = interval_start(0);
  if (next_boundary_ == 0) {
    // Zero warmup: the run opens in a detailed interval.
    enter_detail();
  } else if (mem_ != nullptr) {
    mem_->set_functional(true);
  }
}

void SamplingController::bind_buckets(
    std::vector<const TimeBuckets*> buckets) {
  buckets_ = std::move(buckets);
  detail_buckets_.assign(buckets_.size(), TimeBuckets{});
  detail_snapshot_.assign(buckets_.size(), TimeBuckets{});
  if (detail()) {
    for (std::size_t p = 0; p < buckets_.size(); ++p) {
      detail_snapshot_[p] = *buckets_[p];
    }
  }
}

std::uint64_t SamplingController::interval_start(std::uint64_t k) const {
  const SamplingSpec& s = cfg_->sampling;
  if (!s.detail_at.empty()) {
    return k < s.detail_at.size() ? s.detail_at[k] : kNoBoundary;
  }
  if (k == 0) return s.warmup_refs;
  if (s.period_refs == 0) return kNoBoundary;
  return s.warmup_refs + k * s.period_refs;
}

void SamplingController::advance_regime() {
  if (detail()) {
    leave_detail();
    regime_ = Regime::Warming;
    if (mem_ != nullptr) mem_->set_functional(true);
    next_boundary_ = interval_start(interval_index_);
    // Back-to-back intervals (period_refs == detail_refs): no warming gap.
    if (next_boundary_ <= refs_) enter_detail();
  } else {
    enter_detail();
  }
}

void SamplingController::enter_detail() {
  // The warmup boundary: install (FastForward) or save (Warming) the
  // checkpoint while the memory state is still exactly the boundary state.
  if (!boundary_hook_fired_) {
    boundary_hook_fired_ = true;
    if (boundary_hook_) boundary_hook_();
  }
  regime_ = Regime::Detail;
  // Leaving functional mode also drops dead MSHR entries, so the boundary
  // state is identical whether it was warmed in-process or restored from a
  // checkpoint (which never stores MSHRs).
  if (mem_ != nullptr) mem_->set_functional(false);
  ++interval_index_;
  detail_enter_refs_ = refs_;
  for (std::size_t p = 0; p < buckets_.size(); ++p) {
    detail_snapshot_[p] = *buckets_[p];
  }
  const std::uint64_t len = cfg_->sampling.detail_refs;
  next_boundary_ = len == 0 ? kNoBoundary : refs_ + len;
}

void SamplingController::leave_detail() {
  detailed_refs_ += refs_ - detail_enter_refs_;
  for (std::size_t p = 0; p < buckets_.size(); ++p) {
    TimeBuckets d = *buckets_[p];
    d -= detail_snapshot_[p];
    detail_buckets_[p] += d;
  }
}

void SamplingController::poll(Cycles now) {
  next_poll_ = refs_ + poll_stride_;
  if (poll_stride_ < kPollMaxRefs) poll_stride_ *= 2;
  if (cfg_->max_cycles != 0 && now > cfg_->max_cycles) {
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "cycle budget of %llu exceeded at cycle %llu during "
                  "functional warming (%llu refs retired)",
                  static_cast<unsigned long long>(cfg_->max_cycles),
                  static_cast<unsigned long long>(now),
                  static_cast<unsigned long long>(refs_));
    throw LivelockError(msg);
  }
  if (cfg_->max_host_seconds > 0) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      host_start_)
            .count();
    if (elapsed > cfg_->max_host_seconds) {
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "host deadline of %.3f s exceeded during functional "
                    "warming (%.3f s elapsed, %llu refs retired)",
                    cfg_->max_host_seconds, elapsed,
                    static_cast<unsigned long long>(refs_));
      throw TimeoutError(msg);
    }
  }
}

SamplingController::Accounting SamplingController::finish() {
  if (detail()) leave_detail();
  Accounting acc;
  acc.total_refs = refs_;
  acc.detailed_refs = detailed_refs_;
  acc.detail_buckets = detail_buckets_;
  return acc;
}

}  // namespace csim
