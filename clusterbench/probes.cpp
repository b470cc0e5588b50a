#include "clusterbench/probes.hpp"

#include "src/core/sampling.hpp"
#include "src/mem/clustered_memory.hpp"
#include "src/mem/coherence.hpp"

namespace clusterbench {

using csim::AccessResult;

ProtocolCounts ProtocolCounts::of(const csim::MissCounters& m) noexcept {
  ProtocolCounts p;
  p.refs = m.reads + m.writes;
  p.hits = m.read_hits + m.write_hits;
  p.near_hits = m.snoop_transfers + m.cluster_memory_hits;
  p.merges = m.merges;
  p.read_misses = m.read_misses;
  p.write_misses = m.write_misses;
  p.upgrades = m.upgrade_misses;
  return p;
}

void ProtocolCounts::add_span(const ProtocolCounts& start,
                              const ProtocolCounts& now) noexcept {
  refs += now.refs - start.refs;
  hits += now.hits - start.hits;
  near_hits += now.near_hits - start.near_hits;
  merges += now.merges - start.merges;
  read_misses += now.read_misses - start.read_misses;
  write_misses += now.write_misses - start.write_misses;
  upgrades += now.upgrades - start.upgrades;
}

std::vector<std::string> LayerCounts::broken_identities() const {
  using K = AccessResult::Kind;
  std::vector<std::string> broken;
  const auto expect = [&](std::uint64_t probe, std::uint64_t other,
                          const char* what) {
    if (probe != other) {
      broken.push_back(std::string(what) + ": " + std::to_string(probe) +
                       " != " + std::to_string(other));
    }
  };
  std::uint64_t kinds = 0;
  for (std::uint64_t k : by_kind) kinds += k;
  expect(kinds, calls(), "calls classified by kind != calls entered");
  expect(kind(K::Merge), protocol.merges, "Merge calls != merges counted");
  expect(kind(K::ReadMiss), protocol.read_misses,
         "ReadMiss calls != read misses counted");
  expect(kind(K::WriteMiss), protocol.write_misses,
         "WriteMiss calls != write misses counted");
  expect(kind(K::UpgradeMiss), protocol.upgrades,
         "UpgradeMiss calls != upgrades counted");
  expect(kind(K::NearHit), protocol.near_hits,
         "NearHit calls != snoop + cluster-memory hits counted");
  expect(protocol.refs, detail_refs,
         "memory-system reads + writes != detailed references retired");
  expect(filter_hits() + calls(), detail_refs,
         "filter hits + mem.calls != detailed references retired");
  return broken;
}

LayerProbe::LayerProbe(const std::shared_ptr<const csim::MachineSpec>& spec,
                       csim::Program& layout_app, LayerCounts& counts)
    : counts_(&counts) {
  layout_app.setup(layout_, *spec);
  if (spec->cluster_style == csim::ClusterStyle::SharedMemory) {
    inner_ = std::make_unique<csim::ClusteredMemorySystem>(spec, layout_);
  } else {
    inner_ = std::make_unique<csim::CoherenceController>(spec, layout_);
  }
}

void LayerProbe::begin_row() {
  sampling_ = nullptr;
  functional_ = false;
  fast_forward_ = false;
  replayed_ = false;
  boundary_seen_ = false;
  mark_ = 0;
  span_start_ = protocol_now();
  row_start_ = Clock::now();
}

void LayerProbe::bind_sampling(const csim::SamplingController* s) {
  sampling_ = s;
  // The controller switched the memory system to functional mode in its
  // constructor, before the observer was bound; a run that opens in
  // fast-forward replays that first span without any memory calls.
  fast_forward_ = s != nullptr && s->fast_forward();
  replayed_ = fast_forward_;
}

std::uint64_t LayerProbe::refs_now() const noexcept {
  return sampling_ != nullptr ? sampling_->refs() : 0;
}

void LayerProbe::set_functional(bool on) {
  const std::uint64_t refs = refs_now();
  if (on && !functional_) {
    counts_->detail_refs += refs - mark_;
    counts_->protocol.add_span(span_start_, protocol_now());
  } else if (!on && functional_) {
    if (!fast_forward_) counts_->warm_refs += refs - mark_;
    fast_forward_ = false;
  }
  if (!on && !boundary_seen_) {
    boundary_seen_ = true;
    boundary_ = Clock::now();
  }
  functional_ = on;
  mark_ = refs;
  inner_->set_functional(on);
  span_start_ = protocol_now();
}

void LayerProbe::end_row(const csim::SimResult& r) {
  const Clock::time_point end = Clock::now();
  const std::uint64_t refs = r.totals.reads + r.totals.writes;
  if (functional_) {
    if (!fast_forward_) counts_->warm_refs += refs - mark_;
  } else {
    counts_->detail_refs += refs - mark_;
    counts_->protocol.add_span(span_start_, protocol_now());
  }
  if (boundary_seen_) {
    const double pre = std::chrono::duration<double>(boundary_ - row_start_).count();
    (replayed_ ? counts_->ff_s : counts_->warm_s) += pre;
    counts_->detail_s += std::chrono::duration<double>(end - boundary_).count();
  }
  sampling_ = nullptr;
}

AccessResult LayerProbe::read(csim::ProcId p, csim::Addr a, csim::Cycles now) {
  if (functional_) {
    ++counts_->warm_calls;
    return inner_->read(p, a, now);
  }
  ++counts_->read_calls;
  const Clock::time_point t0 = Clock::now();
  const AccessResult r = inner_->read(p, a, now);
  record(r, t0);
  return r;
}

AccessResult LayerProbe::write(csim::ProcId p, csim::Addr a, csim::Cycles now) {
  if (functional_) {
    ++counts_->warm_calls;
    return inner_->write(p, a, now);
  }
  ++counts_->write_calls;
  const Clock::time_point t0 = Clock::now();
  const AccessResult r = inner_->write(p, a, now);
  record(r, t0);
  return r;
}

void LayerProbe::record(const AccessResult& r, Clock::time_point t0) {
  const double dt = seconds_since(t0);
  ++counts_->by_kind[static_cast<std::size_t>(r.kind)];
  const bool hit = r.kind == AccessResult::Kind::Hit ||
                   r.kind == AccessResult::Kind::NearHit;
  (hit ? counts_->hit_s : counts_->miss_s) += dt;
}

bool LayerProbe::capture_warm_state(csim::WarmState& out) const {
  const Clock::time_point t0 = Clock::now();
  const bool ok = inner_->capture_warm_state(out);
  counts_->capture_s += seconds_since(t0);
  return ok;
}

bool LayerProbe::restore_warm_state(const csim::WarmState& ws) {
  const Clock::time_point t0 = Clock::now();
  const bool ok = inner_->restore_warm_state(ws);
  counts_->restore_s += seconds_since(t0);
  // A restore replaces the counters: a detailed span counts from here.
  if (!functional_) span_start_ = protocol_now();
  return ok;
}

}  // namespace clusterbench
