#include "src/mem/coherence.hpp"

namespace csim {

namespace {

const char* dir_state_name(DirState s) {
  switch (s) {
    case DirState::NotCached: return "NOT_CACHED";
    case DirState::Shared: return "SHARED";
    case DirState::Exclusive: return "EXCLUSIVE";
  }
  return "?";
}

}  // namespace

CoherenceController::CoherenceController(
    std::shared_ptr<const MachineSpec> spec, const AddressSpace& as)
    : DirectoryMemory(std::move(spec), as, ClusterStyle::SharedCache) {}

void CoherenceController::audit() const {
  DirectoryMemory::audit();
  const unsigned nc = cfg_.num_clusters();

  // Directory entries agree with cluster cache contents and states.
  for (const auto& [line, e] : dir_.entries()) {
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

void CoherenceController::install(ProcId p, Addr line, LineState st) {
  const ClusterId c = cfg_.cluster_of(p);
  if (const auto victim = caches_[c]->insert(line, st)) {
    kill_hint(c, victim->line);  // replacement: the victim's hints die
    ++counters_[c].evictions;
    dir_.replacement_hint(victim->line, c);
    // A pending fill whose line was replaced before use is simply dropped;
    // merged readers already captured their completion times.
    mshrs_[c].release(victim->line);
  }
}

void CoherenceController::demote(ClusterId o, Addr line) {
  kill_hint(o, line);  // the owner's writable hints die with the downgrade
  caches_[o]->set_state(line, LineState::Shared);
}

bool CoherenceController::drop(ClusterId x, Addr line) {
  kill_hint(x, line);  // cluster x's copy is going away
  if (!caches_[x]->erase(line)) return false;
  ++counters_[x].invalidations;
  // Kill any in-flight fill: the data will arrive but must not be used by
  // accesses issued after this point.
  mshrs_[x].release(line);
  return true;
}

AccessResult CoherenceController::read(ProcId p, Addr a, Cycles now) {
  const ClusterId c = cfg_.cluster_of(p);
  const Addr line = line_of(a);
  ++counters_[c].reads;
  const Cycles port_wait = acquire_port(c, line, now);
  Cycles pending = 0;
  if (const auto st = probe(*caches_[c], c, line, now, pending)) {
    return read_hit(c, *st, pending, port_wait);
  }
  return fetch(p, a, line, now, /*exclusive=*/false, port_wait);
}

AccessResult CoherenceController::write(ProcId p, Addr a, Cycles now) {
  const ClusterId c = cfg_.cluster_of(p);
  const Addr line = line_of(a);
  ++counters_[c].writes;
  const Cycles port_wait = acquire_port(c, line, now);
  Cycles pending = 0;
  const auto st = probe(*caches_[c], c, line, now, pending);
  // WRITE miss: fetch the line EXCLUSIVE; latency hidden, fill in flight.
  if (!st) return fetch(p, a, line, now, /*exclusive=*/true, port_wait);
  if (*st == LineState::Exclusive) return write_hit(c, pending, port_wait);
  caches_[c]->set_state(line, LineState::Exclusive);
  return upgrade(c, line, now, port_wait);
}

}  // namespace csim
