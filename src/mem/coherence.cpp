#include "src/mem/coherence.hpp"

#include <algorithm>

#include "src/core/error.hpp"
#include "src/mem/audit_util.hpp"
#include "src/mem/contention.hpp"
#include "src/mem/warm_state.hpp"
#include "src/obs/observer.hpp"

namespace csim {

CoherenceController::CoherenceController(std::shared_ptr<const MachineSpec> spec,
                                         const AddressSpace& as)
    : spec_(std::move(spec)), cfg_(*spec_), homes_(as, cfg_) {
  if (cfg_.contention.enabled) {
    contention_ = std::make_unique<ContentionModel>(cfg_);
  }
  const unsigned nc = cfg_.num_clusters();
  caches_.reserve(nc);
  for (unsigned c = 0; c < nc; ++c) {
    caches_.push_back(std::make_unique<CacheStorage>(
        cfg_.cache.infinite() ? 0 : cfg_.cluster_cache_lines(),
        cfg_.cache.associativity, cfg_.cache.line_bytes));
  }
  mshrs_.resize(nc);
  counters_.resize(nc);
  gen_.resize(nc, 0);
  // Size the directory and cold-line set to the application's allocated
  // footprint so steady-state operation never rehashes.
  const std::size_t lines =
      static_cast<std::size_t>(as.bytes_allocated() / cfg_.cache.line_bytes);
  dir_.reserve(lines);
  touched_lines_.reserve(lines);
  if (cfg_.cache.infinite()) {
    for (auto& c : caches_) c->reserve(lines);
  }
}

CoherenceController::~CoherenceController() = default;

MissCounters CoherenceController::totals() const {
  MissCounters t{};
  for (const auto& c : counters_) t += c;
  return t;
}

void CoherenceController::audit() const {
  using audit_util::dir_state_name;
  using audit_util::violation;
  const unsigned nc = cfg_.num_clusters();

  // Occupancy never exceeds capacity.
  for (unsigned c = 0; c < nc; ++c) {
    if (!caches_[c]->infinite() &&
        caches_[c]->size() > caches_[c]->capacity_lines()) {
      throw ProtocolError("audit: cluster " + std::to_string(c) + " cache holds " +
                          std::to_string(caches_[c]->size()) + " lines, capacity " +
                          std::to_string(caches_[c]->capacity_lines()));
    }
  }

  // Directory entries agree with cluster cache contents and states.
  for (const auto& [line, e] : dir_.entries()) {
    if (nc < 64 && (e.sharers >> nc) != 0) {
      violation(line, "sharer bit set beyond cluster count");
    }
    switch (e.state) {
      case DirState::NotCached:
        if (e.sharers != 0) violation(line, "NOT_CACHED but sharer bits set");
        break;
      case DirState::Shared:
        if (e.sharers == 0) violation(line, "SHARED with empty sharer vector");
        break;
      case DirState::Exclusive:
        if (e.count() != 1) {
          violation(line, "EXCLUSIVE with " + std::to_string(e.count()) +
                              " sharers (want exactly 1)");
        }
        break;
    }
    for (unsigned c = 0; c < nc; ++c) {
      const auto st = caches_[c]->lookup(line);
      if (e.has(c) != st.has_value()) {
        violation(line, std::string("directory ") + dir_state_name(e.state) +
                            (e.has(c) ? " lists" : " omits") + " cluster " +
                            std::to_string(c) + " but the line is " +
                            (st ? "cached" : "not cached") + " there");
      }
      if (st && e.state == DirState::Exclusive && *st != LineState::Exclusive) {
        violation(line, "directory EXCLUSIVE in cluster " + std::to_string(c) +
                            " but cached SHARED");
      }
      if (st && e.state == DirState::Shared && *st != LineState::Shared) {
        violation(line, "directory SHARED but cluster " + std::to_string(c) +
                            " caches it EXCLUSIVE");
      }
    }
  }

  // Every cached line is tracked by the directory (catches dropped entries).
  for (unsigned c = 0; c < nc; ++c) {
    for (Addr line : caches_[c]->resident_lines()) {
      if (!dir_.peek(line).has(c)) {
        violation(line, "cached in cluster " + std::to_string(c) +
                            " but absent from its directory sharer vector");
      }
    }
    // An in-flight fill implies the line was allocated in this cluster.
    for (const auto& [line, m] : mshrs_[c].entries()) {
      if (!caches_[c]->lookup(line)) {
        violation(line, "MSHR entry in cluster " + std::to_string(c) +
                            " for a line not resident in its cache");
      }
    }
  }
}

void CoherenceController::set_functional(bool on) {
  functional_ = on;
  // Either direction: pending fills are timing-only state, and the regime
  // boundary must look the same whether warmed in-process or restored from a
  // checkpoint (which stores no MSHRs) — so drop them.
  for (auto& m : mshrs_) m.clear();
}

bool CoherenceController::capture_warm_state(WarmState& out) const {
  out.cluster_style = static_cast<std::uint8_t>(ClusterStyle::SharedCache);
  out.num_procs = cfg_.num_procs;
  out.procs_per_cluster = cfg_.procs_per_cluster;
  out.counters = counters_;
  out.touched_lines = touched_lines_.to_vector();
  std::sort(out.touched_lines.begin(), out.touched_lines.end());
  out.home_rr_next = homes_.rr_next();
  out.homes = homes_.snapshot();
  out.directory.clear();
  out.directory.reserve(dir_.tracked_lines());
  for (const auto& [line, e] : dir_.entries()) {
    // Fully invalidated entries are behaviorally identical to absent ones.
    if (e.state == DirState::NotCached && e.sharers == 0) continue;
    out.directory.push_back(
        WarmDirLine{line, static_cast<std::uint8_t>(e.state), e.sharers});
  }
  std::sort(out.directory.begin(), out.directory.end(),
            [](const WarmDirLine& a, const WarmDirLine& b) {
              return a.line < b.line;
            });
  out.caches.clear();
  out.caches.reserve(caches_.size());
  for (const auto& c : caches_) {
    std::vector<WarmCacheLine> lines;
    const auto dumped = c->dump_lru_order();
    lines.reserve(dumped.size());
    for (const auto& [line, st] : dumped) {
      lines.push_back(WarmCacheLine{line, static_cast<std::uint8_t>(st)});
    }
    out.caches.push_back(std::move(lines));
  }
  out.attraction.clear();
  return true;
}

bool CoherenceController::restore_warm_state(const WarmState& ws) {
  const unsigned nc = cfg_.num_clusters();
  if (ws.cluster_style !=
          static_cast<std::uint8_t>(ClusterStyle::SharedCache) ||
      ws.num_procs != cfg_.num_procs ||
      ws.procs_per_cluster != cfg_.procs_per_cluster ||
      ws.counters.size() != nc || ws.caches.size() != nc ||
      !ws.attraction.empty()) {
    return false;
  }
  counters_ = ws.counters;
  for (Addr line : ws.touched_lines) touched_lines_.insert(line);
  homes_.restore(ws.homes, static_cast<ClusterId>(ws.home_rr_next));
  for (const WarmDirLine& d : ws.directory) {
    DirEntry& e = dir_.entry(d.line);
    e.state = static_cast<DirState>(d.state);
    e.sharers = d.sharers;
  }
  for (unsigned c = 0; c < nc; ++c) {
    for (const WarmCacheLine& l : ws.caches[c]) {
      if (caches_[c]->insert(l.line, static_cast<LineState>(l.state))) {
        return false;  // eviction while refilling: geometry mismatch
      }
    }
  }
  return true;
}

void CoherenceController::install(ClusterId c, Addr line, LineState st) {
  auto victim = caches_[c]->insert(line, st);
  if (victim) {
    ++gen_[c];  // replacement: any hint for the victim line is dead
    ++counters_[c].evictions;
    dir_.replacement_hint(victim->line, c);
    // A pending fill whose line was replaced before use is simply dropped;
    // merged readers already captured their completion times.
    mshrs_[c].release(victim->line);
  }
}

LatencyClass CoherenceController::classify(ClusterId requester, Addr line,
                                           const DirEntry& e) const {
  // homes_.home_of is non-const (first-touch assignment), so resolve the
  // home via the mutable map.
  auto& self = const_cast<CoherenceController&>(*this);
  return classify_miss(e, requester, self.homes_.home_of(line));
}

Cycles CoherenceController::acquire_port(ClusterId c, Addr line, Cycles now) {
  if (functional_ || !contention_) return 0;
  const Cycles wait = contention_->cluster_port(c, line, now);
  if (wait != 0) {
    ++counters_[c].bank_conflicts;
    counters_[c].bank_wait_cycles += wait;
  }
  return wait;
}

void CoherenceController::invalidate_others(Addr line, ClusterId keep,
                                            Cycles now) {
  // find(): this path only mutates existing state — an untracked line has no
  // copies to invalidate, and entry() would grow the directory with
  // NOT_CACHED garbage. Callers may hold a reference to this entry; no
  // insertion or erasure happens here, so it stays valid.
  DirEntry* pe = dir_.find(line);
  if (pe == nullptr) return;
  DirEntry& e = *pe;
  std::uint64_t rest = e.sharers & ~(std::uint64_t{1} << keep);
  unsigned killed = 0;
  while (rest) {
    const ClusterId x = static_cast<ClusterId>(__builtin_ctzll(rest));
    rest &= rest - 1;
    ++gen_[x];  // kill hook: cluster x's copy is going away
    if (caches_[x]->erase(line)) {
      ++counters_[x].invalidations;
      ++killed;
      // Kill any in-flight fill: the data will arrive but must not be used
      // by accesses issued after this point.
      mshrs_[x].release(line);
    }
    e.remove(x);
  }
  if (e.sharers == 0) e.state = DirState::NotCached;
  if (obs_ != nullptr && killed != 0) obs_->on_invalidation(line, killed, now);
}

AccessResult CoherenceController::handle_read_miss(ClusterId c, Addr line,
                                                   Cycles now,
                                                   Cycles port_wait) {
  DirEntry& e = dir_.entry(line);
  // A line the directory tracks is cached somewhere, so some earlier miss
  // already fetched it: only directory-absent lines can still be cold, and
  // only they pay the touched-set probe.
  const bool maybe_cold = e.state == DirState::NotCached;
  const ClusterId home = homes_.home_of(line);
  const LatencyClass lclass = classify_miss(e, c, home);
  const Cycles lat = cfg_.latency.of(lclass);

  if (e.state == DirState::Exclusive) {
    // Downgrade the owner's copy: it keeps a SHARED copy, data goes home.
    // Kill hook: the owner's writable hint for this line must die with the
    // downgrade.
    ++gen_[e.owner()];
    caches_[e.owner()]->set_state(line, LineState::Shared);
  }
  e.add(c);
  e.state = DirState::Shared;

  MissCounters& ctr = counters_[c];
  ++ctr.read_misses;
  ++ctr.by_class[static_cast<unsigned>(lclass)];
  if (maybe_cold && touched_lines_.insert(line)) ++ctr.cold_misses;

  // Queueing delays cascade in request order: bank (already paid), then the
  // home directory controller, then — for any miss leaving the cluster — the
  // requester's network interface. A read stalls the processor, so every
  // wait is processor-visible and delays the fill.
  Cycles queue = port_wait;
  if (contention_ && !functional_) {
    const Cycles dwait = contention_->directory(home, now + queue);
    ctr.dir_wait_cycles += dwait;
    queue += dwait;
    if (lclass != LatencyClass::LocalClean) {
      const Cycles nwait = contention_->nic(c, now + queue);
      ctr.nic_wait_cycles += nwait;
      queue += nwait;
    }
  }

  install(c, line, LineState::Shared);
  // Functional warming charges no stall and tracks no fill: fills complete
  // instantly, so no reader can merge and no MSHR entry is needed.
  if (!functional_) mshrs_[c].allocate(line, MshrEntry{now + queue + lat});
  AccessResult r{AccessResult::Kind::ReadMiss, lat, now + queue + lat, lclass};
  r.contention = queue;
  return r;
}

AccessResult CoherenceController::read(ProcId p, Addr a, Cycles now) {
  const ClusterId c = cfg_.cluster_of(p);
  const Addr line = line_of(a);
  MissCounters& ctr = counters_[c];
  ++ctr.reads;
  const Cycles port_wait = acquire_port(c, line, now);

  // Fast path: with no fill in flight anywhere in the cluster there is
  // nothing to merge on and no stale MSHR entry to drop, so a hit needs one
  // fused lookup+touch probe instead of three.
  std::optional<LineState> st;
  if (mshrs_[c].empty()) {
    st = caches_[c]->access(line);
  } else if ((st = caches_[c]->lookup(line))) {
    if (MshrEntry* m = mshrs_[c].find(line)) {
      if (m->fill_time > now) {
        ++ctr.merges;
        AccessResult r{AccessResult::Kind::Merge, 0, m->fill_time,
                       LatencyClass::LocalClean};
        r.contention = port_wait;
        return r;
      }
      mshrs_[c].release(line);  // fill has arrived
    }
    caches_[c]->touch(line);
  } else {
    mshrs_[c].release(line);  // drop any stale entry for a departed line
  }
  if (st) {
    ++ctr.read_hits;
    AccessResult r{AccessResult::Kind::Hit};
    // No pending fill remains (a live one returned Merge above), so a repeat
    // access while the hint holds is a plain hit: writes too, if EXCLUSIVE.
    r.hint = *st == LineState::Exclusive ? MruHint::ReadWrite
                                         : MruHint::ReadOnly;
    r.contention = port_wait;
    return r;
  }
  return handle_read_miss(c, line, now, port_wait);
}

AccessResult CoherenceController::write(ProcId p, Addr a, Cycles now) {
  const ClusterId c = cfg_.cluster_of(p);
  const Addr line = line_of(a);
  MissCounters& ctr = counters_[c];
  ++ctr.writes;
  const Cycles port_wait = acquire_port(c, line, now);

  // Same fused-probe fast path as read(): no in-flight fill means no pending
  // merge and no stale entry, so one probe replaces three.
  std::optional<LineState> st;
  bool pending = false;
  if (mshrs_[c].empty()) {
    st = caches_[c]->access(line);
  } else if ((st = caches_[c]->lookup(line))) {
    if (MshrEntry* m = mshrs_[c].find(line)) {
      if (m->fill_time <= now) {
        mshrs_[c].release(line);
      } else {
        pending = true;  // a read while this fill is in flight must Merge
      }
    }
    caches_[c]->touch(line);
  } else {
    mshrs_[c].release(line);  // drop any stale entry for a departed line
  }
  if (st) {
    if (*st == LineState::Exclusive) {
      // Store buffered; a store to our own in-flight exclusive fill merges.
      ++ctr.write_hits;
      AccessResult r{AccessResult::Kind::Hit};
      r.hint = pending ? MruHint::None : MruHint::ReadWrite;
      r.contention = port_wait;
      return r;
    }
    // UPGRADE: write found the line SHARED. Ownership moves instantly; the
    // latency is fully hidden by the store buffer, but the home directory
    // controller is still occupied by the ownership transfer.
    invalidate_others(line, c, now);
    DirEntry& e = dir_.entry(line);
    e.sharers = 0;
    e.add(c);
    e.state = DirState::Exclusive;
    caches_[c]->set_state(line, LineState::Exclusive);
    ++ctr.upgrade_misses;
    if (contention_ && !functional_) {
      ctr.dir_wait_cycles +=
          contention_->directory(homes_.home_of(line), now + port_wait);
    }
    AccessResult r{AccessResult::Kind::UpgradeMiss};
    r.contention = port_wait;
    return r;
  }

  // WRITE miss: fetch the line EXCLUSIVE; latency hidden, fill in flight.
  DirEntry& e = dir_.entry(line);
  const bool maybe_cold = e.state == DirState::NotCached;  // see handle_read_miss
  const ClusterId home = homes_.home_of(line);
  const LatencyClass lclass = classify_miss(e, c, home);
  const Cycles lat = cfg_.latency.of(lclass);
  invalidate_others(line, c, now);
  e.sharers = 0;
  e.add(c);
  e.state = DirState::Exclusive;
  ++ctr.write_misses;
  ++ctr.by_class[static_cast<unsigned>(lclass)];
  if (maybe_cold && touched_lines_.insert(line)) ++ctr.cold_misses;
  install(c, line, LineState::Exclusive);

  // The store buffer hides directory/NIC queueing from the processor (only
  // the bank wait is visible at issue), but the fill still arrives later.
  Cycles hidden = 0;
  if (contention_ && !functional_) {
    const Cycles dwait = contention_->directory(home, now + port_wait);
    ctr.dir_wait_cycles += dwait;
    hidden += dwait;
    if (lclass != LatencyClass::LocalClean) {
      const Cycles nwait = contention_->nic(c, now + port_wait + hidden);
      ctr.nic_wait_cycles += nwait;
      hidden += nwait;
    }
  }
  const Cycles fill = now + port_wait + hidden + lat;
  if (!functional_) mshrs_[c].allocate(line, MshrEntry{fill});
  if (obs_ != nullptr) {
    obs_->on_memory_stall(p, a, Observer::Stall::Store, now, fill, lclass);
  }
  AccessResult r{AccessResult::Kind::WriteMiss, lat, fill, lclass};
  r.contention = port_wait;
  return r;
}

}  // namespace csim
