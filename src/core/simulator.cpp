#include "src/core/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <utility>

#include "src/core/error.hpp"
#include "src/core/event_queue.hpp"
#include "src/core/sampling.hpp"
#include "src/core/sync.hpp"
#include "src/mem/address_space.hpp"
#include "src/mem/memory_system.hpp"
#include "src/mem/warm_state.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/observer.hpp"

namespace csim {
namespace {

std::string sync_object_name(const std::string& name, const void* fallback) {
  if (!name.empty()) return "'" + name + "'";
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof buf, "@%p", fallback);
  return buf;
}

/// One-line description of what a processor is doing / waiting for.
std::string describe_wait(const Proc& p) {
  const Proc::WaitInfo& w = p.wait();
  switch (w.kind) {
    case Proc::WaitKind::Barrier: {
      const Barrier* b = w.barrier;
      return "blocked on barrier " + sync_object_name(b->name(), b) +
             " (arrived " + std::to_string(b->arrived()) + "/" +
             std::to_string(b->participants()) + ") since cycle " +
             std::to_string(w.since);
    }
    case Proc::WaitKind::Lock: {
      const Lock* l = w.lock;
      std::string s = "blocked on lock " + sync_object_name(l->name(), l);
      if (l->held()) s += " (owner proc " + std::to_string(l->owner()) + ")";
      s += ", queue length " + std::to_string(l->queue_length()) +
           ", since cycle " + std::to_string(w.since);
      return s;
    }
    case Proc::WaitKind::Memory: {
      char buf[2 + 16 + 1];
      std::snprintf(buf, sizeof buf, "0x%llx",
                    static_cast<unsigned long long>(w.addr));
      return std::string("stalled on outstanding miss at ") + buf +
             " (fill due cycle " + std::to_string(w.ready_at) + ")";
    }
    case Proc::WaitKind::None:
      break;
  }
  return "running";
}

MachineSnapshot capture_snapshot(const EventQueue& queue,
                                 const std::vector<std::unique_ptr<Proc>>& procs) {
  MachineSnapshot snap;
  snap.cycle = queue.now();
  snap.event_queue_depth = queue.size();
  snap.events_processed = queue.events_run();
  snap.procs.reserve(procs.size());
  for (const auto& pp : procs) {
    MachineSnapshot::ProcState st;
    st.id = pp->id();
    st.finished = pp->finished;
    st.last_progress = pp->now();
    st.detail = pp->finished
                    ? "finished at cycle " + std::to_string(pp->finish_time)
                    : describe_wait(*pp);
    snap.procs.push_back(std::move(st));
  }
  return snap;
}

/// Warm-checkpoint wiring: with a checkpoint directory configured, try to
/// load the warm state keyed by `warm_digest`; a usable checkpoint turns the
/// warmup into a fast-forward replay. `hook` (empty when checkpointing is
/// off) must run once at the warmup boundary, before the memory system
/// leaves functional mode: it installs the loaded state (fast_forward) or
/// captures and saves the warmed state. `procs` is captured by reference and
/// must outlive the hook.
struct WarmCheckpointSetup {
  std::function<void()> hook;
  bool fast_forward = false;
};

WarmCheckpointSetup setup_warm_checkpoint(
    const MachineSpec& cfg, std::uint64_t warm_digest,
    const std::string& app_name, std::uint8_t scale, MemorySystem& coh,
    const std::vector<std::unique_ptr<Proc>>& procs) {
  WarmCheckpointSetup out;
  if (cfg.sampling.checkpoint_dir.empty()) return out;
  const std::uint64_t boundary = cfg.sampling.detail_at.empty()
                                     ? cfg.sampling.warmup_refs
                                     : cfg.sampling.detail_at[0];
  WarmLoad wl = load_warm_state(cfg.sampling.checkpoint_dir, warm_digest);
  for (const std::string& w : wl.warnings) {
    std::fprintf(stderr, "%s\n", w.c_str());
  }
  // The digest already keys these; re-checking the header defends against a
  // digest collision handing back someone else's state.
  if (wl.state.has_value() && wl.state->app_name == app_name &&
      wl.state->scale == scale && wl.state->warmup_refs == boundary &&
      wl.state->proc_now.size() == cfg.num_procs) {
    out.fast_forward = true;
    out.hook = [&cfg, &coh, &procs, warm_digest,
                ws = *std::move(wl.state)] {
      // Trust the checkpoint only if the replay reproduced the exact
      // per-processor clocks it was captured with; a mismatch means the
      // checkpoint predates a behavioral change and must be regenerated.
      for (ProcId p = 0; p < cfg.num_procs; ++p) {
        if (procs[p]->now() != ws.proc_now[p]) {
          throw ProtocolError(
              "warm-state checkpoint " +
              warm_state_path(cfg.sampling.checkpoint_dir, warm_digest) +
              " is stale: fast-forward replay reached cycle " +
              std::to_string(procs[p]->now()) + " on proc " +
              std::to_string(p) + ", checkpoint recorded " +
              std::to_string(ws.proc_now[p]) +
              "; delete the file to re-warm");
        }
      }
      if (!coh.restore_warm_state(ws)) {
        throw ProtocolError(
            "warm-state checkpoint " +
            warm_state_path(cfg.sampling.checkpoint_dir, warm_digest) +
            " does not match this machine configuration; delete the file "
            "to re-warm");
      }
    };
    return out;
  }
  out.hook = [&cfg, &coh, &procs, warm_digest, app_name, scale, boundary] {
    WarmState ws;
    // A memory override without checkpoint support simply never saves.
    if (!coh.capture_warm_state(ws)) return;
    ws.warm_digest = warm_digest;
    ws.app_name = app_name;
    ws.scale = scale;
    ws.warmup_refs = boundary;
    ws.proc_now.reserve(cfg.num_procs);
    for (const auto& pp : procs) ws.proc_now.push_back(pp->now());
    save_warm_state(cfg.sampling.checkpoint_dir, ws);
  };
  return out;
}

/// Run-end extrapolation of a sampled run; `res.per_proc` holds the raw
/// whole-run buckets on entry.
void apply_sampling_extrapolation(SimResult& res,
                                  const SamplingController::Accounting& acc) {
  // Extrapolate timing from the detailed intervals. Miss counters are
  // already exact (warming counts real hits and misses); only TimeBuckets
  // and wall time are estimates, scaled by the inverse sampling fraction.
  res.sampled = true;
  res.detailed_refs = acc.detailed_refs;
  res.coverage = acc.total_refs == 0
                     ? 0.0
                     : static_cast<double>(acc.detailed_refs) /
                           static_cast<double>(acc.total_refs);
  if (acc.detailed_refs != 0) {
    // 128-bit intermediate: bucket totals scaled by total/detailed refs
    // can overflow 64 bits mid-multiply at paper scale.
    const auto scale_up = [&acc](std::uint64_t v) {
      return static_cast<std::uint64_t>(static_cast<unsigned __int128>(v) *
                                        acc.total_refs / acc.detailed_refs);
    };
    Cycles est_wall = 0;
    for (std::size_t p = 0; p < res.per_proc.size(); ++p) {
      const TimeBuckets& d = acc.detail_buckets[p];
      TimeBuckets b;
      for (const auto field : kTimeBucketFields) b.*field = scale_up(d.*field);
      res.per_proc[p] = b;
      est_wall = std::max(est_wall, b.total());
    }
    // Pad sync up to the estimated wall (the implicit final barrier), so
    // aggregate().total() == num_procs * wall_time still holds.
    for (TimeBuckets& b : res.per_proc) b.sync += est_wall - b.total();
    res.wall_time = est_wall;
  }
  // detailed_refs == 0 (the run never reached an interval): keep the raw
  // flat-hit warming buckets — coverage 0 flags them as unmeasured.
}

}  // namespace

Simulator::Simulator(MachineSpec cfg) {
  cfg.validate();
  spec_ = std::make_shared<const MachineSpec>(std::move(cfg));
}

Simulator::Simulator(std::shared_ptr<const MachineSpec> spec)
    : spec_(std::move(spec)) {
  if (spec_ == nullptr) throw ConfigError("Simulator: null machine spec");
  spec_->validate();
}

SimResult Simulator::run(Program& prog, MemorySystem* memory_override) {
  const MachineSpec& cfg_ = *spec_;  // the run-wide shared immutable spec
  const auto host_start = std::chrono::steady_clock::now();
  AddressSpace as;
  try {
    prog.setup(as, cfg_);
  } catch (const SimError&) {
    throw;
  } catch (const std::invalid_argument& e) {
    // Bad app parameters are configuration errors (and stay catchable as
    // std::invalid_argument, which ConfigError derives from).
    throw ConfigError("setup of '" + prog.name() + "' rejected: " + e.what());
  } catch (const std::exception& e) {
    throw AppError("setup of '" + prog.name() + "' failed: " + e.what());
  }

  EventQueue queue;
  queue.set_budget(EventQueue::Budget{cfg_.max_cycles, cfg_.max_events,
                                      cfg_.no_progress_events});
  std::unique_ptr<MemorySystem> mem;
  if (memory_override == nullptr) mem = make_memory_system(spec_, as);
  MemorySystem& coh = memory_override ? *memory_override : *mem;

  std::vector<std::unique_ptr<Proc>> procs;
  procs.reserve(cfg_.num_procs);
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    procs.push_back(std::make_unique<Proc>(cfg_, queue, coh, p));
  }

  // --- Interval sampling (src/core/sampling.hpp) ---------------------------
  // With a checkpoint directory configured, try to load the warm-state
  // checkpoint keyed by this run's warm digest. A usable checkpoint turns
  // the warmup into a fast-forward replay (no memory simulation at all);
  // anything else — missing file, corruption, header mismatch — degrades
  // into a normal in-process warmup, never a wrong answer.
  std::unique_ptr<SamplingController> sampler;
  if (cfg_.sampling.enabled) {
    const std::uint64_t warm_digest =
        obs::warm_config_digest(cfg_, prog.name(), prog.scale());
    WarmCheckpointSetup wcs = setup_warm_checkpoint(
        cfg_, warm_digest, prog.name(),
        static_cast<std::uint8_t>(prog.scale()), coh, procs);
    sampler = std::make_unique<SamplingController>(cfg_, &coh,
                                                   wcs.fast_forward,
                                                   host_start);
    std::vector<const TimeBuckets*> raw_buckets;
    raw_buckets.reserve(procs.size());
    for (auto& pp : procs) {
      pp->set_sampling(sampler.get());
      raw_buckets.push_back(&pp->buckets());
    }
    sampler->bind_buckets(std::move(raw_buckets));
    if (wcs.hook) sampler->set_warmup_boundary_hook(std::move(wcs.hook));
  }

  if (obs_ != nullptr) {
    queue.set_observer(obs_);
    coh.set_observer(obs_);
    Observer::RunBinding binding;
    binding.config = &cfg_;
    binding.mem = &coh;
    binding.proc_buckets.reserve(procs.size());
    for (auto& pp : procs) {
      pp->set_observer(obs_);
      binding.proc_buckets.push_back(&pp->buckets());
    }
    binding.events_run = queue.events_run_addr();
    binding.sampling = sampler.get();
    obs_->on_run_begin(binding);
  }

  // Launch every processor at t = 0. A body runs until its first suspension;
  // completion is detected after each resume via the root task.
  for (auto& pp : procs) {
    Proc* proc = pp.get();
    proc->root = prog.body(*proc);
    queue.schedule(0, [proc] { proc->launch(); });
  }

  // Drive the event queue to exhaustion under the watchdog; processors
  // record their own completion when their root coroutine finishes.
  const std::uint64_t audit_every = cfg_.audit_interval;
  std::uint64_t until_audit = audit_every;
  // Host-deadline watchdog: poll the real clock only every few thousand
  // events (a steady_clock read per event would dominate short events). The
  // deadline can never alter simulation results — it only bounds how long
  // the host lets the run take (per-row deadlines in run_sweep).
  constexpr std::uint64_t kDeadlineCheckEvents = 4096;
  const bool deadline_armed = cfg_.max_host_seconds > 0;
  std::uint64_t until_deadline_check = kDeadlineCheckEvents;
  while (!queue.empty()) {
    queue.run_one();
    if (queue.over_budget()) [[unlikely]] {
      auto v = queue.budget_violation();
      throw LivelockError(*std::move(v), capture_snapshot(queue, procs));
    }
    if (deadline_armed && --until_deadline_check == 0) [[unlikely]] {
      until_deadline_check = kDeadlineCheckEvents;
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        host_start)
              .count();
      if (elapsed > cfg_.max_host_seconds) {
        char msg[96];
        std::snprintf(msg, sizeof msg,
                      "host deadline of %.3f s exceeded (ran %.3f s)",
                      cfg_.max_host_seconds, elapsed);
        throw TimeoutError(msg, capture_snapshot(queue, procs));
      }
    }
    // Countdown instead of `events_run % audit_every`: one decrement per
    // event rather than a 64-bit divide. run_one() dispatches exactly one
    // event, so the countdown fires at the same event counts.
    if (audit_every != 0 && --until_audit == 0) {
      coh.audit();
      until_audit = audit_every;
    }
  }

  for (auto& pp : procs) {
    pp->root.rethrow_if_failed();
  }

  // Protocol state must be internally consistent once the machine is idle.
  coh.audit();

  unsigned unfinished = 0;
  for (auto& pp : procs) {
    if (!pp->finished) ++unfinished;
  }
  if (unfinished != 0) {
    std::string summary = std::to_string(unfinished) + " of " +
                          std::to_string(cfg_.num_procs) +
                          " processors never finished:";
    for (auto& pp : procs) {
      if (pp->finished) continue;
      summary += " proc " + std::to_string(pp->id()) + " " +
                 describe_wait(*pp) + ";";
    }
    summary.pop_back();
    throw DeadlockError(std::move(summary), capture_snapshot(queue, procs));
  }

  SimResult res;
  res.config = cfg_;
  res.app_name = prog.name();
  res.scale = prog.scale();

  Cycles wall = 0;
  for (auto& pp : procs) wall = std::max(wall, pp->finish_time);
  res.wall_time = wall;
  res.events = queue.events_run();
  if (obs_ != nullptr) obs_->on_run_end(wall);

  res.per_proc.reserve(cfg_.num_procs);
  for (auto& pp : procs) {
    TimeBuckets b = pp->buckets();
    // Early finishers wait at the implicit final barrier.
    b.sync += wall - pp->finish_time;
    res.per_proc.push_back(b);
  }

  res.per_cluster.reserve(cfg_.num_clusters());
  for (ClusterId c = 0; c < cfg_.num_clusters(); ++c) {
    res.per_cluster.push_back(coh.cluster_counters(c));
  }
  res.totals = coh.totals();

  if (sampler != nullptr) {
    apply_sampling_extrapolation(res, sampler->finish());
  }

  try {
    prog.verify();
  } catch (const SimError&) {
    throw;
  } catch (const std::exception& e) {
    throw AppError("verification of '" + prog.name() + "' failed: " + e.what(),
                   capture_snapshot(queue, procs));
  }
  res.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();
  return res;
}

SimResult simulate(Program& prog, const MachineSpec& cfg) {
  return Simulator(cfg).run(prog);
}

SimResult simulate(Program& prog, const MachineSpec& cfg, Observer* obs) {
  Simulator sim(cfg);
  sim.set_observer(obs);
  return sim.run(prog);
}

}  // namespace csim
