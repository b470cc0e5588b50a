// Integration tests for the opt-in contention model: disabled runs carry no
// contention trace, enabled runs are deterministic, every stall cycle is
// accounted, and the simulated shared-cache bank-conflict rate agrees with
// the paper's Section 6 closed form (Table 4) under its own assumptions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>

#include "src/analysis/bank_conflict.hpp"
#include "src/analysis/contention_check.hpp"
#include "src/apps/app.hpp"
#include "src/core/simulator.hpp"
#include "src/mem/address_space.hpp"
#include "src/obs/manifest.hpp"
#include "src/report/experiment.hpp"

namespace csim {
namespace {

MachineSpec test_spec(ClusterStyle style, bool contention) {
  return MachineSpecBuilder{}
      .procs(16)
      .procs_per_cluster(4)
      .style(style)
      .cache_kb(16)
      .contention_enabled(contention)
      .build();
}

TEST(Contention, DisabledRunsCarryNoContentionTrace) {
  for (ClusterStyle style :
       {ClusterStyle::SharedCache, ClusterStyle::SharedMemory}) {
    auto app = make_app("fft", ProblemScale::Test);
    const SimResult r = simulate(*app, test_spec(style, false));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.totals.bank_conflicts, 0u);
    EXPECT_EQ(r.totals.bank_wait_cycles, 0u);
    EXPECT_EQ(r.totals.dir_wait_cycles, 0u);
    EXPECT_EQ(r.totals.nic_wait_cycles, 0u);
    EXPECT_EQ(r.aggregate().contention, 0u);
  }
}

TEST(Contention, EnabledRunsAreBitReproducible) {
  // Every app in both organizations, run twice and compared with a committed
  // digest: the only pin on the bank/bus, directory and NIC queueing cascade.
  struct Pin {
    const char* app;
    bool shared_cache;
    std::uint64_t digest;
  };
  static constexpr Pin kPins[] = {
      {"barnes", true, 0x4755b458f4d8adb4ULL},
      {"barnes", false, 0xddf2cffc5382fcd8ULL},
      {"fft", true, 0x77baa4dd3ada9097ULL},
      {"fft", false, 0x49c6d1ae381db1a6ULL},
      {"fmm", true, 0xca15348892493545ULL},
      {"fmm", false, 0x355e650074dea73eULL},
      {"lu", true, 0x84208aea76d32a7eULL},
      {"lu", false, 0xb7f086d327c28da2ULL},
      {"mp3d", true, 0x33ecc2812e27cf2eULL},
      {"mp3d", false, 0xf6a0d912d96d0eddULL},
      {"ocean", true, 0xca5be6bd2147517bULL},
      {"ocean", false, 0xeba4ca7df693c17fULL},
      {"radix", true, 0x953c6bdb7da71d90ULL},
      {"radix", false, 0x62161e3dff7a32c4ULL},
      {"raytrace", true, 0xdd84ca9f522b3606ULL},
      {"raytrace", false, 0x9fad8e44f9082debULL},
      {"volrend", true, 0x1fa37db826478036ULL},
      {"volrend", false, 0x926aac3705f33d3eULL},
  };
  ASSERT_EQ(std::size(kPins), 2 * app_names().size());
  for (const std::string& name : app_names()) {
    for (const bool sc : {true, false}) {
      SCOPED_TRACE(name + (sc ? " shared_cache" : " shared_memory"));
      const auto pin =
          std::find_if(std::begin(kPins), std::end(kPins), [&](const Pin& x) {
            return x.app == name && x.shared_cache == sc;
          });
      ASSERT_NE(pin, std::end(kPins)) << "no committed digest";
      const ClusterStyle style =
          sc ? ClusterStyle::SharedCache : ClusterStyle::SharedMemory;
      auto app1 = make_app(name, ProblemScale::Test);
      auto app2 = make_app(name, ProblemScale::Test);
      const SimResult a = simulate(*app1, test_spec(style, true));
      const SimResult b = simulate(*app2, test_spec(style, true));
      ASSERT_TRUE(a.ok) << a.error;
      EXPECT_EQ(obs::result_digest(a), obs::result_digest(b));
      EXPECT_EQ(obs::result_digest(a), pin->digest)
          << "got 0x" << obs::digest_hex(obs::result_digest(a));
    }
  }
}

TEST(Contention, EnabledStallsAreVisibleAndFullyAccounted) {
  for (ClusterStyle style :
       {ClusterStyle::SharedCache, ClusterStyle::SharedMemory}) {
    auto app = make_app("fft", ProblemScale::Test);
    const SimResult r = simulate(*app, test_spec(style, true));
    ASSERT_TRUE(r.ok) << r.error;
    // Sixteen processors banging on shared resources must queue somewhere.
    EXPECT_GT(r.totals.bank_conflicts, 0u);
    EXPECT_GT(r.totals.bank_wait_cycles, 0u);
    EXPECT_GT(r.aggregate().contention, 0u);
    // Every processor's cycles remain fully classified: the per-proc buckets
    // (cpu + load + merge + sync + contention) still sum to wall time.
    for (const TimeBuckets& b : r.per_proc) {
      EXPECT_EQ(b.total(), r.wall_time);
    }
    // Contention can only slow a run down relative to the free machine.
    auto app2 = make_app("fft", ProblemScale::Test);
    const SimResult free_run = simulate(*app2, test_spec(style, false));
    EXPECT_GE(r.wall_time, free_run.wall_time);
  }
}

// Synthetic workload for the Section 6 cross-check: every processor issues a
// read to a uniformly pseudo-random line each cycle, the closed form's
// traffic assumption. A deterministic per-processor LCG picks the line.
class RandomBankProgram final : public Program {
 public:
  [[nodiscard]] std::string name() const override { return "random-bank"; }

  void setup(AddressSpace& as, const MachineSpec& cfg) override {
    line_bytes_ = cfg.cache.line_bytes;
    // Cover every bank uniformly; a multiple of m keeps the mapping exact.
    lines_ = cfg.cluster_banks() * 4;
    base_ = as.alloc(static_cast<std::size_t>(lines_) * line_bytes_, "pool");
  }

  SimTask body(Proc& p) override {
    // Warm-up: touch every line once so the measured loop is all cache hits
    // (the closed form models conflicts between hits, not miss latency).
    for (unsigned i = 0; i < lines_; ++i) {
      co_await p.read(base_ + static_cast<Addr>(i) * line_bytes_);
    }
    std::uint64_t s = 0x9e3779b97f4a7c15ULL * (p.id() + 1);
    for (unsigned i = 0; i < kIters; ++i) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto idx = static_cast<Addr>((s >> 33) % lines_);
      co_await p.read(base_ + idx * line_bytes_);
    }
  }

  static constexpr unsigned kIters = 6000;

 private:
  Addr base_ = 0;
  unsigned lines_ = 0;
  unsigned line_bytes_ = 0;
};

/// Expected stall rate when an arbiter grants one reference per bank per
/// cycle and only the losers stall: E[n - distinct banks hit] / n for n
/// uniform references over m banks.
double losers_only_rate(unsigned m, unsigned n) {
  const double distinct =
      m * (1.0 - std::pow(1.0 - 1.0 / m, static_cast<int>(n)));
  return (n - distinct) / n;
}

TEST(Contention, BankConflictRateMatchesSection6ClosedForm) {
  // The closed form C = 1 - ((m-1)/m)^(n-1) counts a reference as delayed
  // whenever ANY of the other n-1 lockstep processors picked its bank — every
  // participant in a collision is charged. The event-driven queue instead
  // serializes same-cycle arrivals: the first reference to a bank proceeds
  // and only the later ones wait, so the simulated per-reference stall rate
  // must land in the bracket [losers-only expectation, closed form]
  // (for n = 2 the two bounds are exactly C/2 and C). runahead_quantum = 1
  // gives strict global event ordering, the closest event-driven analogue of
  // the lockstep assumption. The bracket (with 10% slack on each side) is
  // the stated tolerance: a transposed exponent, a wrong bank count, or
  // uncounted conflicts all land outside it.
  for (unsigned n : {2u, 4u}) {
    auto prog = std::make_unique<RandomBankProgram>();
    const MachineSpec cfg = MachineSpecBuilder{}
                                .procs(n)
                                .procs_per_cluster(n)
                                .style(ClusterStyle::SharedCache)
                                .cache_bytes(0)  // infinite: no capacity noise
                                .runahead_quantum(1)
                                .contention_enabled()
                                .build();
    const SimResult r = simulate(*prog, cfg);
    ASSERT_TRUE(r.ok) << r.error;
    const ContentionCheckRow row = contention_check_row(r);
    EXPECT_EQ(row.procs_per_cluster, n);
    EXPECT_EQ(row.banks, 4 * n);
    EXPECT_NEAR(row.analytic_rate, bank_conflict_probability(4 * n, n), 1e-12);
    EXPECT_GT(row.simulated_rate, 0.0);
    const double lower = losers_only_rate(4 * n, n);
    EXPECT_GE(row.simulated_rate, lower * 0.9)
        << "n=" << n << " losers-only bound=" << lower
        << " simulated=" << row.simulated_rate;
    EXPECT_LE(row.simulated_rate, row.analytic_rate * 1.1)
        << "n=" << n << " analytic=" << row.analytic_rate
        << " simulated=" << row.simulated_rate;
  }
}

TEST(Contention, CrossCheckTableSkipsUncontendedRows) {
  auto prog = std::make_unique<RandomBankProgram>();
  const MachineSpec on = MachineSpecBuilder{}
                             .procs(4)
                             .procs_per_cluster(4)
                             .style(ClusterStyle::SharedCache)
                             .cache_bytes(0)
                             .runahead_quantum(1)
                             .contention_enabled()
                             .build();
  auto prog2 = std::make_unique<RandomBankProgram>();
  const MachineSpec off =
      MachineSpecBuilder{}.procs(4).procs_per_cluster(4).cache_bytes(0).build();
  std::vector<SimResult> sweep = {simulate(*prog, on), simulate(*prog2, off)};
  const auto rows = contention_check(sweep);
  ASSERT_EQ(rows.size(), 1u);  // the contention-free row is skipped
  std::ostringstream os;
  write_contention_check(os, rows);
  EXPECT_NE(os.str().find("analytic"), std::string::npos);
  EXPECT_NE(os.str().find("simulated"), std::string::npos);
}

}  // namespace
}  // namespace csim
