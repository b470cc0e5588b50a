#include "src/mem/directory_memory.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "src/core/error.hpp"
#include "src/mem/contention.hpp"
#include "src/mem/warm_state.hpp"
#include "src/obs/observer.hpp"

namespace csim {

DirectoryMemory::DirectoryMemory(std::shared_ptr<const MachineSpec> spec,
                                 const AddressSpace& as, ClusterStyle style)
    : spec_(std::move(spec)),
      cfg_(*spec_),
      style_(style),
      procs_per_cache_(style == ClusterStyle::SharedCache
                           ? cfg_.procs_per_cluster
                           : 1),
      line_shift_(static_cast<unsigned>(
          std::countr_zero(cfg_.cache.line_bytes))),
      homes_(as, cfg_) {
  if (cfg_.contention.enabled) {
    contention_ = std::make_unique<ContentionModel>(cfg_);
  }
  const std::size_t cache_lines =
      cfg_.cache.infinite() ? 0
                            : cfg_.cache.per_proc_bytes * procs_per_cache_ /
                                  cfg_.cache.line_bytes;
  caches_.reserve(cfg_.num_procs / procs_per_cache_);
  for (unsigned i = 0; i < cfg_.num_procs / procs_per_cache_; ++i) {
    caches_.push_back(std::make_unique<CacheStorage>(
        cache_lines, cfg_.cache.associativity, cfg_.cache.line_bytes));
  }
  const unsigned nc = cfg_.num_clusters();
  mshrs_.resize(nc);
  counters_.resize(nc);
  gen_.resize(std::size_t{nc} * kHintGenerations, 0);
  // Size the directory, cold-line set, and infinite caches to the
  // application's allocated footprint so steady-state operation never
  // rehashes.
  const std::size_t lines =
      static_cast<std::size_t>(as.bytes_allocated() / cfg_.cache.line_bytes);
  dir_.reserve(lines);
  touched_lines_.reserve(lines);
  if (cfg_.cache.infinite()) {
    for (auto& c : caches_) c->reserve(lines);
  }
}

DirectoryMemory::~DirectoryMemory() = default;

MissCounters DirectoryMemory::totals() const {
  MissCounters t{};
  for (const auto& c : counters_) t += c;
  return t;
}

void DirectoryMemory::violation(Addr line, const std::string& what) {
  char hex[2 + 16 + 1];
  std::snprintf(hex, sizeof hex, "0x%llx",
                static_cast<unsigned long long>(line));
  throw ProtocolError("audit: line " + std::string(hex) + ": " + what);
}

void DirectoryMemory::audit() const {
  // Occupancy never exceeds capacity.
  const char* unit = style_ == ClusterStyle::SharedCache ? "cluster " : "proc ";
  for (std::size_t i = 0; i < caches_.size(); ++i) {
    const CacheStorage& c = *caches_[i];
    if (!c.infinite() && c.size() > c.capacity_lines()) {
      throw ProtocolError("audit: " + std::string(unit) + std::to_string(i) +
                          " cache holds " + std::to_string(c.size()) +
                          " lines, capacity " +
                          std::to_string(c.capacity_lines()));
    }
  }

  // Every directory entry is in a well-formed state.
  const unsigned nc = cfg_.num_clusters();
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
  }
}

void DirectoryMemory::set_functional(bool on) {
  functional_ = on;
  // Either direction: pending fills are timing-only state, and the regime
  // boundary must look the same whether warmed in-process or restored from a
  // checkpoint (which stores no MSHRs) — so drop them.
  for (auto& m : mshrs_) m.clear();
}

bool DirectoryMemory::capture_warm_state(WarmState& out) const {
  out.cluster_style = static_cast<std::uint8_t>(style_);
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

bool DirectoryMemory::restore_warm_state(const WarmState& ws) {
  const unsigned nc = cfg_.num_clusters();
  // Only shared main memory has attraction memories, one per cluster.
  const std::size_t attraction =
      style_ == ClusterStyle::SharedMemory ? nc : 0;
  if (ws.cluster_style != static_cast<std::uint8_t>(style_) ||
      ws.num_procs != cfg_.num_procs ||
      ws.procs_per_cluster != cfg_.procs_per_cluster ||
      ws.counters.size() != nc || ws.caches.size() != caches_.size() ||
      ws.attraction.size() != attraction) {
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
  for (std::size_t i = 0; i < caches_.size(); ++i) {
    for (const WarmCacheLine& l : ws.caches[i]) {
      if (caches_[i]->insert(l.line, static_cast<LineState>(l.state))) {
        return false;  // eviction while refilling: geometry mismatch
      }
    }
  }
  return true;
}

Cycles DirectoryMemory::queue_port(ClusterId c, Addr line, Cycles now) {
  const Cycles wait = contention_->cluster_port(c, line, now);
  if (wait != 0) {
    ++counters_[c].bank_conflicts;
    counters_[c].bank_wait_cycles += wait;
  }
  return wait;
}

void DirectoryMemory::take_ownership(ClusterId c, Addr line, DirEntry& e,
                                     Cycles now) {
  std::uint64_t rest = e.sharers & ~(std::uint64_t{1} << c);
  unsigned killed = 0;
  while (rest) {
    const ClusterId x = static_cast<ClusterId>(__builtin_ctzll(rest));
    rest &= rest - 1;
    if (drop(x, line)) ++killed;
  }
  e.sharers = 0;
  e.add(c);
  e.state = DirState::Exclusive;
  if (obs_ != nullptr && killed != 0) obs_->on_invalidation(line, killed, now);
}

AccessResult DirectoryMemory::fetch(ProcId p, Addr a, Addr line, Cycles now,
                                    bool exclusive, Cycles port_wait) {
  const ClusterId c = cfg_.cluster_of(p);
  DirEntry& e = dir_.entry(line);
  // A line the directory tracks is cached somewhere, so some earlier miss
  // already fetched it: only directory-absent lines can still be cold, and
  // only they pay the touched-set probe.
  const bool maybe_cold = e.state == DirState::NotCached;
  const ClusterId home = homes_.home_of(line);
  const LatencyClass lclass = classify_miss(e, c, home);
  const Cycles lat = cfg_.latency.of(lclass);
  MissCounters& ctr = counters_[c];
  if (exclusive) {
    take_ownership(c, line, e, now);
    ++ctr.write_misses;
  } else {
    // The owner keeps a SHARED copy; the data goes home.
    if (e.state == DirState::Exclusive) demote(e.owner(), line);
    e.add(c);
    e.state = DirState::Shared;
    ++ctr.read_misses;
  }
  ++ctr.by_class[static_cast<unsigned>(lclass)];
  if (maybe_cold && touched_lines_.insert(line)) ++ctr.cold_misses;
  // Last use of `e`: install() may send a replacement hint that erases
  // another directory entry.
  install(p, line, exclusive ? LineState::Exclusive : LineState::Shared);

  // Queueing delays cascade in request order: the port (already paid), then
  // the home directory controller, then — for any miss leaving the cluster —
  // the requester's network interface. A read stalls the processor, so its
  // waits are all visible; a write's directory and NIC waits are hidden by
  // the store buffer but still delay the fill.
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
  const Cycles fill = now + queue + lat;
  // Functional warming charges no stall and tracks no fill: fills complete
  // instantly, so no reader can merge and no MSHR entry is needed.
  if (!functional_) mshrs_[c].allocate(line, MshrEntry{fill});
  if (exclusive && obs_ != nullptr) {
    obs_->on_memory_stall(p, a, Observer::Stall::Store, now, fill, lclass);
  }
  AccessResult r{exclusive ? AccessResult::Kind::WriteMiss
                           : AccessResult::Kind::ReadMiss,
                 lat, fill, lclass};
  r.contention = exclusive ? port_wait : queue;
  return r;
}

AccessResult DirectoryMemory::upgrade(ClusterId c, Addr line, Cycles now,
                                      Cycles port_wait) {
  take_ownership(c, line, dir_.entry(line), now);
  MissCounters& ctr = counters_[c];
  ++ctr.upgrade_misses;
  if (contention_ && !functional_) {
    ctr.dir_wait_cycles +=
        contention_->directory(homes_.home_of(line), now + port_wait);
  }
  AccessResult r{AccessResult::Kind::UpgradeMiss};
  r.contention = port_wait;
  return r;
}

}  // namespace csim
