#include "src/mem/clustered_memory.hpp"

#include <algorithm>

#include "src/mem/warm_state.hpp"

namespace csim {

ClusteredMemorySystem::ClusteredMemorySystem(
    std::shared_ptr<const MachineSpec> spec, const AddressSpace& as)
    : DirectoryMemory(std::move(spec), as, ClusterStyle::SharedMemory),
      attraction_(cfg_.num_clusters()) {
  // Attraction memories never lose a line to capacity: size them to the
  // application's footprint so steady-state operation never rehashes.
  const std::size_t lines =
      static_cast<std::size_t>(as.bytes_allocated() / cfg_.cache.line_bytes);
  for (auto& a : attraction_) a.reserve(lines);
}

void ClusteredMemorySystem::audit() const {
  DirectoryMemory::audit();
  const unsigned nc = cfg_.num_clusters();
  const unsigned ppc = cfg_.procs_per_cluster;

  // Directory sharer bits agree with attraction-memory residency, and the
  // EXCLUSIVE owner is exactly the cluster flagged cluster_exclusive.
  for (const auto& [line, e] : dir_.entries()) {
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

bool ClusteredMemorySystem::capture_warm_state(WarmState& out) const {
  DirectoryMemory::capture_warm_state(out);
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
  if (!DirectoryMemory::restore_warm_state(ws)) return false;
  for (std::size_t c = 0; c < attraction_.size(); ++c) {
    for (const WarmAttractionLine& l : ws.attraction[c]) {
      attraction_[c][l.line] =
          ClusterLine{l.proc_copies, l.cluster_exclusive != 0};
    }
  }
  return true;
}

void ClusteredMemorySystem::install_private(ProcId p, Addr line,
                                            LineState st) {
  if (const auto victim = caches_[p]->insert(line, st)) {
    const ClusterId c = cfg_.cluster_of(p);
    kill_hint(c, victim->line);  // the victim's hints die
    ++counters_[c].evictions;
    // The victim falls back to the (infinite) attraction memory: the line
    // stays in the cluster, so no directory replacement hint is sent.
    if (ClusterLine* cl = attraction_[c].find(victim->line)) {
      cl->proc_copies &= ~proc_bit(p);
    }
  }
}

void ClusteredMemorySystem::share_copies(ClusterId c, Addr line,
                                         std::uint64_t copies) {
  kill_hint(c, line);  // writable hints for these copies die
  for_each_copy(c, copies, [line](CacheStorage& cache) {
    cache.set_state(line, LineState::Shared);
  });
}

void ClusteredMemorySystem::erase_copies(ClusterId c, Addr line,
                                         std::uint64_t copies) {
  kill_hint(c, line);  // these copies are going away
  MissCounters& ctr = counters_[c];
  for_each_copy(c, copies, [&](CacheStorage& cache) {
    cache.erase(line);
    ++ctr.bus_invalidations;
  });
}

void ClusteredMemorySystem::install(ProcId p, Addr line, LineState st) {
  attraction_[cfg_.cluster_of(p)][line] =
      ClusterLine{proc_bit(p), st == LineState::Exclusive};
  install_private(p, line, st);
}

void ClusteredMemorySystem::demote(ClusterId o, Addr line) {
  if (ClusterLine* cl = attraction_[o].find(line)) {
    cl->cluster_exclusive = false;
    share_copies(o, line, cl->proc_copies);
  }
}

bool ClusteredMemorySystem::drop(ClusterId x, Addr line) {
  ClusterLine* cl = attraction_[x].find(line);
  if (cl == nullptr) return false;
  erase_copies(x, line, cl->proc_copies);
  attraction_[x].erase(line);
  mshrs_[x].release(line);
  ++counters_[x].invalidations;
  return true;
}

AccessResult ClusteredMemorySystem::read(ProcId p, Addr a, Cycles now) {
  const ClusterId c = cfg_.cluster_of(p);
  const Addr line = line_of(a);
  MissCounters& ctr = counters_[c];
  ++ctr.reads;
  Cycles pending = 0;
  if (const auto st = probe(*caches_[p], c, line, now, pending)) {
    return read_hit(c, *st, pending, 0);
  }

  // Past the private cache: the access is a bus transaction.
  const Cycles bus_wait = acquire_port(c, line, now);
  ClusterLine* cl = attraction_[c].find(line);
  if (cl == nullptr) {
    return fetch(p, a, line, now, /*exclusive=*/false, bus_wait);
  }
  // The line is in the cluster. A fill still in flight merges; otherwise a
  // peer cache (snoop) or the cluster memory supplies it.
  if (const MshrEntry* m = mshrs_[c].find(line); m && m->fill_time > now) {
    return merge(c, m->fill_time, bus_wait);
  }
  Cycles lat;
  if (cl->proc_copies) {
    // Cache-to-cache transfer demotes any proc-exclusive peer copy.
    lat = cfg_.latency.snoop_transfer;
    ++ctr.snoop_transfers;
    share_copies(c, line, cl->proc_copies);
  } else {
    lat = cfg_.latency.cluster_memory;
    ++ctr.cluster_memory_hits;
  }
  install_private(p, line, LineState::Shared);
  cl->proc_copies |= proc_bit(p);
  AccessResult r{AccessResult::Kind::NearHit, lat, now + lat + bus_wait,
                 LatencyClass::LocalClean};
  r.contention = bus_wait;
  return r;
}

AccessResult ClusteredMemorySystem::write(ProcId p, Addr a, Cycles now) {
  const ClusterId c = cfg_.cluster_of(p);
  const Addr line = line_of(a);
  ++counters_[c].writes;
  Cycles pending = 0;
  const auto st = probe(*caches_[p], c, line, now, pending);
  if (st == LineState::Exclusive) return write_hit(c, pending, 0);

  // Past the private cache: the access is a bus transaction.
  const Cycles bus_wait = acquire_port(c, line, now);
  ClusterLine* cl = attraction_[c].find(line);
  if (cl == nullptr) {
    return fetch(p, a, line, now, /*exclusive=*/true, bus_wait);
  }
  // In the cluster: peer copies leave the bus, and p's copy becomes the
  // sole EXCLUSIVE one — an upgrade of its SHARED copy, or a write-allocate
  // from within the cluster (hidden by the store buffer).
  if (const std::uint64_t peers = cl->proc_copies & ~proc_bit(p)) {
    erase_copies(c, line, peers);
  }
  if (st) {
    caches_[p]->set_state(line, LineState::Exclusive);
  } else {
    install_private(p, line, LineState::Exclusive);
  }
  cl->proc_copies = proc_bit(p);
  // Without machine-wide ownership the cluster takes it through the
  // directory: an UPGRADE miss.
  if (!cl->cluster_exclusive) {
    cl->cluster_exclusive = true;
    return upgrade(c, line, now, bus_wait);
  }
  // Ownership was already in the cluster: the write is a bus transaction
  // only ("ownership is kept within the cluster"). An upgraded private copy
  // is a plain hit from now on unless its fill is pending; a write-allocated
  // one may still have a cluster fill in flight.
  AccessResult r = write_hit(c, pending, bus_wait);
  if (!st) r.hint = MruHint::None;
  return r;
}

}  // namespace csim
