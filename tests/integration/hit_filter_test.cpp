// The processor's generation-tagged hit filter (docs/PERFORMANCE.md) is a
// pure fast path: short-circuiting a repeat hit must produce bit-identical
// results to routing every access through the memory system. These tests
// prove that by running the same program twice — once normally (filter
// eligible) and once through a forwarding decorator whose default
// generation_addr()/hot_counters() return nullptr, which disables the filter
// — and comparing obs::result_digest over every counter and bucket.
//
// Both organizations are covered in both contention modes. Under contention
// the shared-cache organization disables the fast path itself (port queues
// must observe every access), while the shared-memory organization keeps it;
// either way the digests must match.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "src/apps/app.hpp"
#include "src/core/simulator.hpp"
#include "src/mem/address_space.hpp"
#include "src/mem/memory_system.hpp"
#include "src/obs/manifest.hpp"

namespace csim {
namespace {

/// Forwards every access to the real memory system for the configuration but
/// inherits the MemorySystem defaults for generation_addr()/hot_counters(),
/// so processors never engage the hit filter.
class FilterOffMemory final : public MemorySystem {
 public:
  FilterOffMemory(std::shared_ptr<const MachineSpec> spec,
                  const AddressSpace& as)
      : inner_(make_memory_system(std::move(spec), as)) {}
  AccessResult read(ProcId p, Addr a, Cycles now) override {
    return inner_->read(p, a, now);
  }
  AccessResult write(ProcId p, Addr a, Cycles now) override {
    return inner_->write(p, a, now);
  }
  const MissCounters& cluster_counters(ClusterId c) const override {
    return inner_->cluster_counters(c);
  }
  MissCounters totals() const override { return inner_->totals(); }
  void audit() const override { inner_->audit(); }

 private:
  std::unique_ptr<MemorySystem> inner_;
};

MachineSpec config(ClusterStyle style, bool contention) {
  ContentionSpec spec;
  spec.enabled = contention;
  return MachineSpecBuilder{}
      .procs(64)
      .procs_per_cluster(8)
      .style(style)
      .cache_kb(16)
      .contention(spec)
      .build();
}

std::uint64_t digest_with_filter(const char* app, const MachineSpec& cfg) {
  auto prog = make_app(app, ProblemScale::Test);
  return obs::result_digest(simulate(*prog, cfg));
}

std::uint64_t digest_without_filter(const char* app, const MachineSpec& cfg) {
  auto prog = make_app(app, ProblemScale::Test);
  // The decorator's inner system needs the program's address-space layout,
  // which Simulator::run builds internally. Allocation is deterministic, so
  // a pre-run setup() into our own AddressSpace reproduces the placements
  // the in-run setup() will make (the same seam src/trace/trace.cpp uses).
  AddressSpace as;
  prog->setup(as, cfg);
  Simulator sim(cfg);
  FilterOffMemory mem(sim.spec(), as);
  return obs::result_digest(sim.run(*prog, &mem));
}

class HitFilterEquivalence
    : public ::testing::TestWithParam<std::tuple<ClusterStyle, bool>> {};

TEST_P(HitFilterEquivalence, FilteredRunMatchesUnfilteredRun) {
  const auto [style, contention] = GetParam();
  const MachineSpec cfg = config(style, contention);
  for (const char* app : {"fft", "radix"}) {
    EXPECT_EQ(digest_with_filter(app, cfg), digest_without_filter(app, cfg))
        << app;
  }
}

TEST_P(HitFilterEquivalence, FilteredRunIsDeterministic) {
  const auto [style, contention] = GetParam();
  const MachineSpec cfg = config(style, contention);
  EXPECT_EQ(digest_with_filter("fft", cfg), digest_with_filter("fft", cfg));
}

INSTANTIATE_TEST_SUITE_P(
    BothOrgsBothContentionModes, HitFilterEquivalence,
    ::testing::Combine(::testing::Values(ClusterStyle::SharedCache,
                                         ClusterStyle::SharedMemory),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<ClusterStyle, bool>>& info) {
      std::string name = std::get<0>(info.param) == ClusterStyle::SharedCache
                             ? "shared_cache"
                             : "shared_memory";
      name += std::get<1>(info.param) ? "_contention" : "_no_contention";
      return name;
    });

}  // namespace
}  // namespace csim
