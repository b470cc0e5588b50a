#include "src/mem/clustered_memory.hpp"

#include <algorithm>

#include "src/core/error.hpp"
#include "src/mem/audit_util.hpp"
#include "src/mem/contention.hpp"
#include "src/mem/warm_state.hpp"
#include "src/obs/observer.hpp"

namespace csim {

ClusteredMemorySystem::ClusteredMemorySystem(
    std::shared_ptr<const MachineSpec> spec, const AddressSpace& as)
    : spec_(std::move(spec)), cfg_(*spec_), homes_(as, cfg_) {
  if (cfg_.contention.enabled) {
    contention_ = std::make_unique<ContentionModel>(cfg_);
  }
  caches_.reserve(cfg_.num_procs);
  const std::size_t lines_per_proc =
      cfg_.cache.infinite() ? 0
                            : cfg_.cache.per_proc_bytes / cfg_.cache.line_bytes;
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    caches_.push_back(std::make_unique<CacheStorage>(
        lines_per_proc, cfg_.cache.associativity, cfg_.cache.line_bytes));
  }
  attraction_.resize(cfg_.num_clusters());
  mshrs_.resize(cfg_.num_clusters());
  counters_.resize(cfg_.num_clusters());
  gen_.resize(cfg_.num_clusters(), 0);
  // Size the directory, cold-line set, attraction memories, and (infinite)
  // private caches to the application's allocated footprint so steady-state
  // operation never rehashes.
  const std::size_t lines =
      static_cast<std::size_t>(as.bytes_allocated() / cfg_.cache.line_bytes);
  dir_.reserve(lines);
  touched_lines_.reserve(lines);
  for (auto& a : attraction_) a.reserve(lines);
  if (cfg_.cache.infinite()) {
    for (auto& c : caches_) c->reserve(lines);
  }
}

Cycles ClusteredMemorySystem::acquire_bus(ClusterId c, Addr line, Cycles now) {
  if (functional_ || !contention_) return 0;
  const Cycles wait = contention_->cluster_port(c, line, now);
  if (wait != 0) {
    ++counters_[c].bank_conflicts;
    counters_[c].bank_wait_cycles += wait;
  }
  return wait;
}

ClusteredMemorySystem::~ClusteredMemorySystem() = default;

MissCounters ClusteredMemorySystem::totals() const {
  MissCounters t{};
  for (const auto& c : counters_) t += c;
  return t;
}

void ClusteredMemorySystem::audit() const {
  using audit_util::violation;
  const unsigned nc = cfg_.num_clusters();
  const unsigned ppc = cfg_.procs_per_cluster;

  // Private cache occupancy never exceeds capacity.
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    if (!caches_[p]->infinite() &&
        caches_[p]->size() > caches_[p]->capacity_lines()) {
      throw ProtocolError("audit: proc " + std::to_string(p) + " cache holds " +
                          std::to_string(caches_[p]->size()) + " lines, capacity " +
                          std::to_string(caches_[p]->capacity_lines()));
    }
  }

  // Directory sharer bits agree with attraction-memory residency, and the
  // EXCLUSIVE owner is exactly the cluster flagged cluster_exclusive.
  for (const auto& [line, e] : dir_.entries()) {
    if (nc < 64 && (e.sharers >> nc) != 0) {
      violation(line, "sharer bit set beyond cluster count");
    }
    if (e.state == DirState::NotCached && e.sharers != 0) {
      violation(line, "NOT_CACHED but sharer bits set");
    }
    if (e.state == DirState::Shared && e.sharers == 0) {
      violation(line, "SHARED with empty sharer vector");
    }
    if (e.state == DirState::Exclusive && e.count() != 1) {
      violation(line, "EXCLUSIVE with " + std::to_string(e.count()) +
                          " sharers (want exactly 1)");
    }
    for (unsigned c = 0; c < nc; ++c) {
      const ClusterLine* cl = attraction_[c].find(line);
      const bool resident = cl != nullptr;
      if (e.has(c) != resident) {
        violation(line, std::string("directory ") +
                            (e.has(c) ? "lists" : "omits") + " cluster " +
                            std::to_string(c) + " but the line is " +
                            (resident ? "present" : "absent") +
                            " in its attraction memory");
      }
      if (resident) {
        const bool owner = e.state == DirState::Exclusive && e.owner() == c;
        if (cl->cluster_exclusive != owner) {
          violation(line, "cluster " + std::to_string(c) +
                              (cl->cluster_exclusive
                                   ? " flagged cluster_exclusive but directory disagrees"
                                   : " owns the line per directory but is not "
                                     "flagged cluster_exclusive"));
        }
      }
    }
  }

  // Bus-level copy bits agree with private cache contents; an EXCLUSIVE
  // private copy is the sole copy of a cluster_exclusive line.
  for (unsigned c = 0; c < nc; ++c) {
    const ProcId base = c * ppc;
    for (const auto& [line, cl] : attraction_[c]) {
      if (ppc < 64 && (cl.proc_copies >> ppc) != 0) {
        violation(line, "proc_copies bit set beyond cluster size");
      }
      for (unsigned li = 0; li < ppc; ++li) {
        const auto st = caches_[base + li]->lookup(line);
        const bool bit = (cl.proc_copies >> li) & 1u;
        if (bit != st.has_value()) {
          violation(line, "proc " + std::to_string(base + li) +
                              (bit ? " listed on the bus but line not in its cache"
                                   : " caches the line but is missing from "
                                     "proc_copies"));
        }
        if (st && *st == LineState::Exclusive) {
          if (!cl.cluster_exclusive) {
            violation(line, "proc " + std::to_string(base + li) +
                                " holds the line EXCLUSIVE in a non-exclusive "
                                "cluster");
          }
          if (cl.proc_copies != (std::uint64_t{1} << li)) {
            violation(line, "proc " + std::to_string(base + li) +
                                " holds the line EXCLUSIVE alongside peer "
                                "copies");
          }
        }
      }
    }
    // Private cache contents are always tracked on the bus.
    for (unsigned li = 0; li < ppc; ++li) {
      for (Addr line : caches_[base + li]->resident_lines()) {
        const ClusterLine* cl = attraction_[c].find(line);
        if (cl == nullptr || ((cl->proc_copies >> li) & 1u) == 0) {
          violation(line, "cached by proc " + std::to_string(base + li) +
                              " but untracked by its cluster's attraction "
                              "memory");
        }
      }
    }
    // An in-flight fill implies the line is resident in the cluster.
    for (const auto& [line, m] : mshrs_[c].entries()) {
      if (!attraction_[c].contains(line)) {
        violation(line, "MSHR entry in cluster " + std::to_string(c) +
                            " for a line absent from its attraction memory");
      }
    }
  }
}

void ClusteredMemorySystem::set_functional(bool on) {
  functional_ = on;
  // Either direction: pending fills are timing-only state, and the regime
  // boundary must look the same whether warmed in-process or restored from a
  // checkpoint (which stores no MSHRs) — so drop them.
  for (auto& m : mshrs_) m.clear();
}

bool ClusteredMemorySystem::capture_warm_state(WarmState& out) const {
  out.cluster_style = static_cast<std::uint8_t>(ClusterStyle::SharedMemory);
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
  out.attraction.reserve(attraction_.size());
  for (const Attraction& a : attraction_) {
    std::vector<WarmAttractionLine> lines;
    lines.reserve(a.size());
    for (const auto& [line, cl] : a) {
      lines.push_back(WarmAttractionLine{
          line, cl.proc_copies,
          static_cast<std::uint8_t>(cl.cluster_exclusive ? 1 : 0)});
    }
    std::sort(lines.begin(), lines.end(),
              [](const WarmAttractionLine& x, const WarmAttractionLine& y) {
                return x.line < y.line;
              });
    out.attraction.push_back(std::move(lines));
  }
  return true;
}

bool ClusteredMemorySystem::restore_warm_state(const WarmState& ws) {
  const unsigned nc = cfg_.num_clusters();
  if (ws.cluster_style !=
          static_cast<std::uint8_t>(ClusterStyle::SharedMemory) ||
      ws.num_procs != cfg_.num_procs ||
      ws.procs_per_cluster != cfg_.procs_per_cluster ||
      ws.counters.size() != nc || ws.caches.size() != cfg_.num_procs ||
      ws.attraction.size() != nc) {
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
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    for (const WarmCacheLine& l : ws.caches[p]) {
      if (caches_[p]->insert(l.line, static_cast<LineState>(l.state))) {
        return false;  // eviction while refilling: geometry mismatch
      }
    }
  }
  for (unsigned c = 0; c < nc; ++c) {
    for (const WarmAttractionLine& l : ws.attraction[c]) {
      attraction_[c][l.line] =
          ClusterLine{l.proc_copies, l.cluster_exclusive != 0};
    }
  }
  return true;
}

void ClusteredMemorySystem::install_private(ProcId p, Addr line,
                                            LineState st) {
  auto victim = caches_[p]->insert(line, st);
  if (victim) {
    const ClusterId c = cfg_.cluster_of(p);
    ++gen_[c];  // kill hook: any hint for the victim line is dead
    ++counters_[c].evictions;
    // The victim falls back to the (infinite) attraction memory: the line
    // stays in the cluster, so no directory replacement hint is sent.
    if (ClusterLine* cl = attraction_[c].find(victim->line)) {
      cl->proc_copies &= ~(std::uint64_t{1} << local_index(p));
    }
  }
}

void ClusteredMemorySystem::purge_cluster(ClusterId c, Addr line) {
  ClusterLine* cl = attraction_[c].find(line);
  if (cl == nullptr) return;
  ++gen_[c];  // kill hook: copies in this cluster are going away
  std::uint64_t copies = cl->proc_copies;
  const ProcId base = c * cfg_.procs_per_cluster;
  while (copies) {
    const unsigned li = static_cast<unsigned>(__builtin_ctzll(copies));
    copies &= copies - 1;
    caches_[base + li]->erase(line);
    ++counters_[c].bus_invalidations;
  }
  attraction_[c].erase(line);
  mshrs_[c].release(line);
  ++counters_[c].invalidations;
}

void ClusteredMemorySystem::invalidate_other_clusters(Addr line,
                                                      ClusterId keep,
                                                      Cycles now) {
  // find(): this path only mutates existing state — an untracked line has no
  // copies to purge, and entry() would grow the directory with NOT_CACHED
  // garbage. Callers may hold a reference to this entry; no insertion or
  // erasure happens here, so it stays valid.
  DirEntry* pe = dir_.find(line);
  if (pe == nullptr) return;
  DirEntry& e = *pe;
  std::uint64_t rest = e.sharers & ~(std::uint64_t{1} << keep);
  unsigned purged = 0;
  while (rest) {
    const ClusterId x = static_cast<ClusterId>(__builtin_ctzll(rest));
    rest &= rest - 1;
    if (attraction_[x].contains(line)) ++purged;
    purge_cluster(x, line);
    e.remove(x);
  }
  if (e.sharers == 0) e.state = DirState::NotCached;
  if (obs_ != nullptr && purged != 0) obs_->on_invalidation(line, purged, now);
}

AccessResult ClusteredMemorySystem::fetch_remote(ProcId p, Addr line,
                                                 Cycles now, bool exclusive,
                                                 Cycles bus_wait) {
  const ClusterId c = cfg_.cluster_of(p);
  DirEntry& e = dir_.entry(line);
  // A directory-tracked line is cached somewhere, so an earlier miss already
  // fetched it: only directory-absent lines pay the touched-set probe.
  const bool maybe_cold = e.state == DirState::NotCached;
  const ClusterId home = homes_.home_of(line);
  const LatencyClass lclass = classify_miss(e, c, home);
  const Cycles lat = cfg_.latency.of(lclass);
  MissCounters& ctr = counters_[c];

  if (exclusive) {
    invalidate_other_clusters(line, c, now);
    e.sharers = 0;
    e.add(c);
    e.state = DirState::Exclusive;
    ++ctr.write_misses;
  } else {
    if (e.state == DirState::Exclusive) {
      // Remote owner cluster keeps a SHARED copy; demote its caches too.
      const ClusterId o = e.owner();
      if (ClusterLine* ocl = attraction_[o].find(line)) {
        ++gen_[o];  // kill hook: owner cluster's copies demoted to SHARED
        ocl->cluster_exclusive = false;
        std::uint64_t copies = ocl->proc_copies;
        const ProcId base = o * cfg_.procs_per_cluster;
        while (copies) {
          const unsigned li = static_cast<unsigned>(__builtin_ctzll(copies));
          copies &= copies - 1;
          caches_[base + li]->set_state(line, LineState::Shared);
        }
      }
    }
    e.add(c);
    e.state = DirState::Shared;
    ++ctr.read_misses;
  }
  ++ctr.by_class[static_cast<unsigned>(lclass)];
  if (maybe_cold && touched_lines_.insert(line)) ++ctr.cold_misses;

  attraction_[c][line] =
      ClusterLine{std::uint64_t{1} << local_index(p), exclusive};
  install_private(p, line, exclusive ? LineState::Exclusive : LineState::Shared);

  // Queueing delays cascade in request order: bus (already paid), then the
  // home directory controller, then — for any miss leaving the cluster — the
  // requester's network interface. A read stalls the processor, so its waits
  // are all visible; a write's directory/NIC waits are hidden by the store
  // buffer but still delay the fill.
  Cycles queue = bus_wait;
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
  const Cycles fill = now + queue + lat;
  // Functional warming charges no stall and tracks no fill: fills complete
  // instantly, so no reader can merge and no MSHR entry is needed.
  if (!functional_) mshrs_[c].allocate(line, MshrEntry{fill});
  if (exclusive && obs_ != nullptr) {
    obs_->on_memory_stall(p, line, Observer::Stall::Store, now, fill, lclass);
  }
  AccessResult r{exclusive ? AccessResult::Kind::WriteMiss
                           : AccessResult::Kind::ReadMiss,
                 lat, fill, lclass};
  r.contention = exclusive ? bus_wait : queue;
  return r;
}

AccessResult ClusteredMemorySystem::read(ProcId p, Addr a, Cycles now) {
  const ClusterId c = cfg_.cluster_of(p);
  const Addr line = line_of(a);
  MissCounters& ctr = counters_[c];
  ++ctr.reads;

  // Fast path: with no fill in flight in the cluster there is nothing to
  // merge on and no stale MSHR entry to drop, so a private-cache hit needs
  // one fused lookup+touch probe instead of three.
  const bool no_fills = mshrs_[c].empty();
  std::optional<LineState> st;
  if (no_fills) {
    st = caches_[p]->access(line);
  } else if ((st = caches_[p]->lookup(line))) {
    if (MshrEntry* m = mshrs_[c].find(line)) {
      if (m->fill_time > now) {
        ++ctr.merges;
        return AccessResult{AccessResult::Kind::Merge, 0, m->fill_time,
                            LatencyClass::LocalClean};
      }
      mshrs_[c].release(line);
    }
    caches_[p]->touch(line);
  }
  if (st) {
    ++ctr.read_hits;
    AccessResult r{AccessResult::Kind::Hit};
    // No pending fill remains (a live one returned Merge above), so a repeat
    // access while the hint holds is a plain hit: writes too, if EXCLUSIVE.
    r.hint = *st == LineState::Exclusive ? MruHint::ReadWrite
                                         : MruHint::ReadOnly;
    return r;
  }

  // Past the private cache: the access is a bus transaction.
  const Cycles bus_wait = acquire_bus(c, line, now);

  if (ClusterLine* pcl = attraction_[c].find(line)) {
    // The line is in the cluster. A fill still in flight merges; otherwise
    // a peer cache (snoop) or the cluster memory supplies it.
    if (MshrEntry* m = no_fills ? nullptr : mshrs_[c].find(line);
        m && m->fill_time > now) {
      ++ctr.merges;
      AccessResult r{AccessResult::Kind::Merge, 0, m->fill_time,
                     LatencyClass::LocalClean};
      r.contention = bus_wait;
      return r;
    }
    ClusterLine& cl = *pcl;
    Cycles lat;
    if (cl.proc_copies) {
      lat = cfg_.latency.snoop_transfer;
      ++ctr.snoop_transfers;
      ++gen_[c];  // kill hook: peer copies demoted to SHARED
      // Cache-to-cache transfer demotes any proc-exclusive peer copy.
      std::uint64_t copies = cl.proc_copies;
      const ProcId base = c * cfg_.procs_per_cluster;
      while (copies) {
        const unsigned li = static_cast<unsigned>(__builtin_ctzll(copies));
        copies &= copies - 1;
        caches_[base + li]->set_state(line, LineState::Shared);
      }
    } else {
      lat = cfg_.latency.cluster_memory;
      ++ctr.cluster_memory_hits;
    }
    install_private(p, line, LineState::Shared);
    attraction_[c][line].proc_copies |= std::uint64_t{1} << local_index(p);
    AccessResult r{AccessResult::Kind::NearHit, lat, now + lat + bus_wait,
                   LatencyClass::LocalClean};
    r.contention = bus_wait;
    return r;
  }

  if (!no_fills) mshrs_[c].release(line);  // stale entry for a purged line
  return fetch_remote(p, line, now, /*exclusive=*/false, bus_wait);
}

AccessResult ClusteredMemorySystem::write(ProcId p, Addr a, Cycles now) {
  const ClusterId c = cfg_.cluster_of(p);
  const Addr line = line_of(a);
  MissCounters& ctr = counters_[c];
  ++ctr.writes;

  auto kill_local_peers = [&](ClusterLine& cl) {
    std::uint64_t others =
        cl.proc_copies & ~(std::uint64_t{1} << local_index(p));
    if (others != 0) ++gen_[c];  // kill hook: peer copies erased off the bus
    const ProcId base = c * cfg_.procs_per_cluster;
    while (others) {
      const unsigned li = static_cast<unsigned>(__builtin_ctzll(others));
      others &= others - 1;
      caches_[base + li]->erase(line);
      ++ctr.bus_invalidations;
    }
    cl.proc_copies = std::uint64_t{1} << local_index(p);
  };

  // Same fused-probe fast path as read(): no in-flight fill means no pending
  // merge and no stale entry, so one probe replaces three.
  const bool no_fills = mshrs_[c].empty();
  std::optional<LineState> st;
  bool pending = false;
  if (no_fills) {
    st = caches_[p]->access(line);
  } else if ((st = caches_[p]->lookup(line))) {
    if (MshrEntry* m = mshrs_[c].find(line)) {
      if (m->fill_time <= now) {
        mshrs_[c].release(line);
      } else {
        pending = true;  // a read while this fill is in flight must Merge
      }
    }
    caches_[p]->touch(line);
  }
  if (st) {
    if (*st == LineState::Exclusive) {
      ++ctr.write_hits;
      AccessResult r{AccessResult::Kind::Hit};
      r.hint = pending ? MruHint::None : MruHint::ReadWrite;
      return r;
    }
    // Proc-level upgrade: kill peer copies on the bus; if other clusters
    // also hold the line, take machine-wide ownership through the directory.
    const Cycles bus_wait = acquire_bus(c, line, now);
    ClusterLine& cl = attraction_[c][line];
    kill_local_peers(cl);
    caches_[p]->set_state(line, LineState::Exclusive);
    if (!cl.cluster_exclusive) {
      invalidate_other_clusters(line, c, now);
      DirEntry& e = dir_.entry(line);
      e.sharers = 0;
      e.add(c);
      e.state = DirState::Exclusive;
      cl.cluster_exclusive = true;
      ++ctr.upgrade_misses;
      if (contention_ && !functional_) {
        ctr.dir_wait_cycles +=
            contention_->directory(homes_.home_of(line), now + bus_wait);
      }
      AccessResult r{AccessResult::Kind::UpgradeMiss};
      r.contention = bus_wait;
      return r;
    }
    // Ownership was already in the cluster: the write is a bus transaction
    // only ("ownership is kept within the cluster"). The private copy is now
    // EXCLUSIVE, so repeat accesses are plain hits unless a fill is pending.
    ++ctr.write_hits;
    AccessResult r{AccessResult::Kind::Hit};
    r.hint = pending ? MruHint::None : MruHint::ReadWrite;
    r.contention = bus_wait;
    return r;
  }

  // Past the private cache: the access is a bus transaction.
  const Cycles bus_wait = acquire_bus(c, line, now);

  if (ClusterLine* pcl = attraction_[c].find(line)) {
    // Write-allocate from within the cluster (hidden by the store buffer).
    ClusterLine& cl = *pcl;
    kill_local_peers(cl);
    install_private(p, line, LineState::Exclusive);
    cl.proc_copies |= std::uint64_t{1} << local_index(p);
    if (!cl.cluster_exclusive) {
      invalidate_other_clusters(line, c, now);
      DirEntry& e = dir_.entry(line);
      e.sharers = 0;
      e.add(c);
      e.state = DirState::Exclusive;
      cl.cluster_exclusive = true;
      ++ctr.upgrade_misses;
      if (contention_ && !functional_) {
        ctr.dir_wait_cycles +=
            contention_->directory(homes_.home_of(line), now + bus_wait);
      }
      AccessResult r{AccessResult::Kind::UpgradeMiss};
      r.contention = bus_wait;
      return r;
    }
    ++ctr.write_hits;
    AccessResult r{AccessResult::Kind::Hit};
    r.contention = bus_wait;
    return r;
  }

  if (!no_fills) mshrs_[c].release(line);
  return fetch_remote(p, line, now, /*exclusive=*/true, bus_wait);
}

}  // namespace csim
