// The processor's generation-tagged hit filter (docs/PERFORMANCE.md) is a
// pure fast path: short-circuiting a repeat hit must produce bit-identical
// results to routing every access through the memory system. These tests
// prove that by running the same program twice — once normally (filter
// eligible) and once through a forwarding decorator whose hit-filter hooks
// return nullptr, which disables the filter — and comparing
// obs::result_digest over every counter and bucket.
//
// Every app is covered in both organizations, both contention modes, and
// with fully associative and direct-mapped caches of 16 KB per processor.
// Under contention the shared-cache organization disables the fast path
// itself (port queues must observe every access), while the shared-memory
// organization keeps it; either way the digests must match. A 1 KB column
// (no contention) evicts lines that still hold live hints, so each of the
// memory system's hint kills is needed there for the digests to match.
//
// Sampled runs are pinned separately (SampledDigests): both columns, filtered
// and unfiltered, against a committed fixture. HitFilterReach pins how many
// references the filter keeps away from the memory system.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/apps/app.hpp"
#include "src/core/simulator.hpp"
#include "src/mem/address_space.hpp"
#include "src/mem/memory_system.hpp"
#include "src/obs/manifest.hpp"

namespace csim {
namespace {

/// Forwards every access to the real memory system for the configuration
/// and counts the reads and writes that reach it. Without `filter` it keeps
/// the MemorySystem defaults for the hit-filter hooks, so processors never
/// engage the filter; with `filter` it forwards those hooks too, so
/// processors filter exactly as in a plain run.
class ForwardingMemory final : public MemorySystem {
 public:
  ForwardingMemory(std::shared_ptr<const MachineSpec> spec,
                   const AddressSpace& as, bool filter)
      : inner_(make_memory_system(std::move(spec), as)), filter_(filter) {}
  AccessResult read(ProcId p, Addr a, Cycles now) override {
    ++calls;
    return inner_->read(p, a, now);
  }
  AccessResult write(ProcId p, Addr a, Cycles now) override {
    ++calls;
    return inner_->write(p, a, now);
  }
  const MissCounters& cluster_counters(ClusterId c) const override {
    return inner_->cluster_counters(c);
  }
  MissCounters totals() const override { return inner_->totals(); }
  void audit() const override { inner_->audit(); }
  void set_functional(bool on) override { inner_->set_functional(on); }
  const std::uint64_t* generation_addr(ClusterId c) const noexcept override {
    return filter_ ? inner_->generation_addr(c) : nullptr;
  }
  CacheStorage* touch_cache(ProcId p) noexcept override {
    return filter_ ? inner_->touch_cache(p) : nullptr;
  }
  MissCounters* hot_counters(ClusterId c) noexcept override {
    return filter_ ? inner_->hot_counters(c) : nullptr;
  }

  std::uint64_t calls = 0;

 private:
  std::unique_ptr<MemorySystem> inner_;
  bool filter_;
};

/// `assoc` 0 is fully associative (the paper's caches), 1 direct-mapped.
MachineSpec config(ClusterStyle style, bool contention, unsigned assoc,
                   unsigned cache_kb) {
  ContentionSpec spec;
  spec.enabled = contention;
  return MachineSpecBuilder{}
      .procs(64)
      .procs_per_cluster(8)
      .style(style)
      .cache_kb(cache_kb)
      .associativity(assoc)
      .contention(spec)
      .build();
}

std::uint64_t digest_with_filter(const std::string& app,
                                 const MachineSpec& cfg) {
  auto prog = make_app(app, ProblemScale::Test);
  return obs::result_digest(simulate(*prog, cfg));
}

std::uint64_t digest_without_filter(const std::string& app,
                                    const MachineSpec& cfg) {
  auto prog = make_app(app, ProblemScale::Test);
  // The decorator's inner system needs the program's address-space layout,
  // which Simulator::run builds internally. Allocation is deterministic, so
  // a pre-run setup() into our own AddressSpace reproduces the placements
  // the in-run setup() will make (the same seam src/trace/trace.cpp uses).
  AddressSpace as;
  prog->setup(as, cfg);
  Simulator sim(cfg);
  ForwardingMemory mem(sim.spec(), as, /*filter=*/false);
  return obs::result_digest(sim.run(*prog, &mem));
}

/// Organization, contention, associativity, KB per processor.
using FilterParam = std::tuple<ClusterStyle, bool, unsigned, unsigned>;

class HitFilterEquivalence : public ::testing::TestWithParam<FilterParam> {};

TEST_P(HitFilterEquivalence, FilteredRunMatchesUnfilteredRun) {
  const auto [style, contention, assoc, cache_kb] = GetParam();
  const MachineSpec cfg = config(style, contention, assoc, cache_kb);
  for (const std::string& app : app_names()) {
    EXPECT_EQ(digest_with_filter(app, cfg), digest_without_filter(app, cfg))
        << app;
  }
}

TEST_P(HitFilterEquivalence, FilteredRunIsDeterministic) {
  const auto [style, contention, assoc, cache_kb] = GetParam();
  const MachineSpec cfg = config(style, contention, assoc, cache_kb);
  EXPECT_EQ(digest_with_filter("fft", cfg), digest_with_filter("fft", cfg));
}

// Fully associative rows keep their original names; direct-mapped rows
// carry a "direct_mapped_" prefix.
std::string filter_param_name(
    const ::testing::TestParamInfo<FilterParam>& info) {
  std::string name = std::get<2>(info.param) == 1 ? "direct_mapped_" : "";
  name += std::get<0>(info.param) == ClusterStyle::SharedCache
              ? "shared_cache"
              : "shared_memory";
  name += std::get<1>(info.param) ? "_contention" : "_no_contention";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    BothOrgsBothContentionModes, HitFilterEquivalence,
    ::testing::Combine(::testing::Values(ClusterStyle::SharedCache,
                                         ClusterStyle::SharedMemory),
                       ::testing::Bool(), ::testing::Values(0u, 1u),
                       ::testing::Values(16u)),
    filter_param_name);

INSTANTIATE_TEST_SUITE_P(
    OneKilobyteCaches, HitFilterEquivalence,
    ::testing::Combine(::testing::Values(ClusterStyle::SharedCache,
                                         ClusterStyle::SharedMemory),
                       ::testing::Values(false), ::testing::Values(0u, 1u),
                       ::testing::Values(1u)),
    filter_param_name);

// The filter's reach, counted instead of timed. Ocean's stencils keep up to
// kMaxRunOps streams live and its clusters evict lines all the time, so a
// filter that a stream's neighbours or an unrelated eviction can knock out
// sends most of ocean's references to the memory system. With 64 counters
// per cluster and a 512-slot table, ocean at Test scale (shared cache,
// ppc 8, 16 KB per processor) calls the memory system for 38,168 of its
// 120,624 references (32%); with one counter per cluster and 8 slots it
// made 84,329 calls (70%).
TEST(HitFilterReach, OceanCallsTheMemorySystemForFewOfItsReferences) {
  constexpr double kMaxCallShare = 0.40;
  const MachineSpec cfg = config(ClusterStyle::SharedCache, false, 0, 16);
  auto prog = make_app("ocean", ProblemScale::Test);
  AddressSpace as;
  prog->setup(as, cfg);
  Simulator sim(cfg);
  ForwardingMemory mem(sim.spec(), as, /*filter=*/true);
  const SimResult r = sim.run(*prog, &mem);
  EXPECT_EQ(obs::result_digest(r), digest_with_filter("ocean", cfg))
      << "the counting decorator changed the run";
  const std::uint64_t refs = r.totals.reads + r.totals.writes;
  EXPECT_LT(static_cast<double>(mem.calls),
            kMaxCallShare * static_cast<double>(refs))
      << mem.calls << " memory calls for " << refs << " references";
}

// Sampled runs, pinned bit for bit: all nine apps at Test scale, both
// organizations, fully associative and direct-mapped 4 KB caches, 16 procs
// in clusters of 4, sample(4096, 4096, 16384). Each row pins the filtered
// run and the run through a filter-off ForwardingMemory, which warms per
// reference (set_functional still reaches the real memory system).
//
// The two columns differ in ten rows: raytrace and volrend (both
// organizations, both associativities), fmm shared_cache direct-mapped and
// ocean shared_memory direct-mapped. Filtered warming retires runs in
// batches, and batching differs from per-reference warming in two known
// ways: a batch can end exactly on a regime boundary, which charges the
// iteration's trailing computes to warming instead of to the detailed
// interval; and with direct-mapped caches, retiring one op's repeat hits
// before the next op's first access hides conflict evictions. Neither is
// fixed here; see ROADMAP item 5.
std::string sampled_fixture_path() {
  return std::string(CSIM_SOURCE_DIR) +
         "/tests/integration/sampled_digests.txt";
}

/// "app style assoc" -> {filtered digest hex, unfiltered digest hex}.
std::map<std::string, std::pair<std::string, std::string>>
load_sampled_fixture() {
  std::ifstream in(sampled_fixture_path());
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << sampled_fixture_path();
  std::map<std::string, std::pair<std::string, std::string>> pins;
  std::string app, style, filtered, unfiltered;
  unsigned assoc = 0;
  while (in >> app >> style >> assoc >> filtered >> unfiltered) {
    pins[app + ' ' + style + ' ' + std::to_string(assoc)] = {filtered,
                                                             unfiltered};
  }
  return pins;
}

TEST(SampledDigests, FilteredAndUnfilteredRunsMatchCommittedDigests) {
  const auto pins = load_sampled_fixture();
  ASSERT_EQ(pins.size(), 36u) << "fixture frame changed unexpectedly";
  unsigned checked = 0;
  for (const std::string& app : app_names()) {
    for (const ClusterStyle style :
         {ClusterStyle::SharedCache, ClusterStyle::SharedMemory}) {
      for (const unsigned assoc : {0u, 1u}) {
        const MachineSpec cfg = MachineSpecBuilder{}
                                    .procs(16)
                                    .procs_per_cluster(4)
                                    .style(style)
                                    .cache_kb(4)
                                    .associativity(assoc)
                                    .sample(4096, 4096, 16384)
                                    .build();
        const std::string key =
            app + ' ' +
            (style == ClusterStyle::SharedCache ? "shared_cache"
                                                : "shared_memory") +
            ' ' + std::to_string(assoc);
        const auto it = pins.find(key);
        ASSERT_NE(it, pins.end()) << "no pinned digests for " << key;
        EXPECT_EQ(obs::digest_hex(digest_with_filter(app, cfg)),
                  it->second.first)
            << "filtered sampled run drifted at " << key;
        EXPECT_EQ(obs::digest_hex(digest_without_filter(app, cfg)),
                  it->second.second)
            << "unfiltered sampled run drifted at " << key;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, pins.size());
}

}  // namespace
}  // namespace csim
