// Failure injection: the simulator must fail loudly and cleanly — no hangs,
// no crashes, no corrupted state — when programs or configurations are
// broken.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "src/apps/app.hpp"
#include "src/core/error.hpp"
#include "src/core/simulator.hpp"
#include "src/core/sync.hpp"
#include "src/mem/address_space.hpp"
#include "src/mem/clustered_memory.hpp"
#include "src/mem/coherence.hpp"
#include "src/report/experiment.hpp"

namespace csim {
namespace {

MachineSpec mc(unsigned procs = 4) {
  MachineSpec c;
  c.num_procs = procs;
  c.procs_per_cluster = 2;
  return c;
}

class FaultyProgram : public Program {
 public:
  enum class Fault {
    ThrowInSetup,
    ThrowMidRun,
    ThrowInVerify,
    BarrierTooFew,
    LockNeverReleased,
    EmptyBody,
    InfiniteCompute,
    SameCycleSpin,
    GiantRunStream,
    InfiniteRunStream,
    StreamWithSpinners,
  };
  explicit FaultyProgram(Fault f) : fault_(f) {}

  [[nodiscard]] std::string name() const override { return "faulty"; }

  void setup(AddressSpace& as, const MachineSpec& cfg) override {
    if (fault_ == Fault::ThrowInSetup) throw std::runtime_error("setup bug");
    base_ = as.alloc(4096, "mem");
    bar_ = std::make_unique<Barrier>(cfg.num_procs, "phase");
  }

  SimTask body(Proc& p) override {
    switch (fault_) {
      case Fault::ThrowMidRun:
        co_await p.read(base_);
        if (p.id() == 1) throw std::logic_error("mid-run bug");
        co_await p.compute(10);
        break;
      case Fault::BarrierTooFew:
        if (p.id() != 0) co_await p.barrier(*bar_);  // proc 0 skips
        break;
      case Fault::LockNeverReleased:
        co_await p.acquire(lock_);  // nobody releases: all but one deadlock
        break;
      case Fault::EmptyBody:
        break;  // completing without any operation must be legal
      case Fault::InfiniteCompute:
        for (;;) co_await p.compute(1);  // runs forever, time advances
      case Fault::SameCycleSpin:
        // Livelock signature: lock ping-pong generates events forever
        // without simulated time ever advancing.
        for (;;) {
          co_await p.acquire(lock_);
          p.release(lock_);
        }
      case Fault::GiantRunStream:
        // One run whose retirement spans far more than any cycle budget:
        // the watchdog must fire while the stream is still in flight, not
        // just between coroutine resumes.
        co_await p.run(base_, 0, 1'000'000'000, false, 10);
        break;
      case Fault::InfiniteRunStream:
        for (;;) co_await p.run(base_, 0, 1'000'000, false, 10);
      case Fault::StreamWithSpinners:
        // Proc 0 has a giant run in flight (its next resume is cycles away)
        // while the others ping-pong a lock at a fixed cycle, so simulated
        // time never reaches the stream's resume point.
        if (p.id() == 0) {
          co_await p.run(base_, 0, 1'000'000'000, false, 10);
        } else {
          for (;;) {
            co_await p.acquire(lock_);
            p.release(lock_);
          }
        }
        break;
      default:
        co_await p.compute(1);
    }
  }

  void verify() const override {
    if (fault_ == Fault::ThrowInVerify) {
      throw std::runtime_error("verification failed");
    }
  }

 private:
  Fault fault_;
  Addr base_ = 0;
  std::unique_ptr<Barrier> bar_;
  Lock lock_;
};

TEST(FailureInjection, SetupExceptionPropagates) {
  FaultyProgram p(FaultyProgram::Fault::ThrowInSetup);
  EXPECT_THROW(simulate(p, mc()), std::runtime_error);
}

TEST(FailureInjection, MidRunExceptionPropagates) {
  FaultyProgram p(FaultyProgram::Fault::ThrowMidRun);
  EXPECT_THROW(simulate(p, mc()), std::logic_error);
}

TEST(FailureInjection, VerifyExceptionPropagates) {
  FaultyProgram p(FaultyProgram::Fault::ThrowInVerify);
  EXPECT_THROW(simulate(p, mc()), std::runtime_error);
}

TEST(FailureInjection, MismatchedBarrierIsDeadlockNotHang) {
  FaultyProgram p(FaultyProgram::Fault::BarrierTooFew);
  EXPECT_THROW(simulate(p, mc()), std::runtime_error);
}

TEST(FailureInjection, AbandonedLockIsDeadlockNotHang) {
  FaultyProgram p(FaultyProgram::Fault::LockNeverReleased);
  EXPECT_THROW(simulate(p, mc()), std::runtime_error);
}

TEST(FailureInjection, EmptyBodiesFinishAtTimeZero) {
  FaultyProgram p(FaultyProgram::Fault::EmptyBody);
  const SimResult r = simulate(p, mc());
  EXPECT_EQ(r.wall_time, 0u);
}

TEST(FailureInjection, SimulatorReusableAfterFailure) {
  // A failed run must not poison subsequent runs of the same Simulator.
  Simulator sim(mc());
  FaultyProgram bad(FaultyProgram::Fault::ThrowMidRun);
  EXPECT_THROW(sim.run(bad), std::logic_error);
  auto good = make_app("fft", ProblemScale::Test);
  MachineSpec cfg = mc(16);
  Simulator sim2(cfg);
  EXPECT_NO_THROW(sim2.run(*good));
}

TEST(FailureInjection, InvalidConfigRejectedBeforeRunning) {
  MachineSpec bad = mc();
  bad.procs_per_cluster = 3;  // does not divide 4
  EXPECT_THROW(Simulator{bad}, std::invalid_argument);
  EXPECT_THROW(Simulator{bad}, ConfigError);
}

// --- Watchdog ---------------------------------------------------------------

TEST(Watchdog, InfiniteProgramTripsMaxCyclesInsteadOfHanging) {
  FaultyProgram p(FaultyProgram::Fault::InfiniteCompute);
  MachineSpec cfg = mc();
  cfg.max_cycles = 50000;
  try {
    simulate(p, cfg);
    FAIL() << "expected LivelockError";
  } catch (const LivelockError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::Livelock);
    EXPECT_NE(std::string(e.what()).find("max_cycles"), std::string::npos);
    // The snapshot names every processor and the machine state.
    EXPECT_EQ(e.snapshot().procs.size(), 4u);
    EXPECT_GE(e.snapshot().cycle, 50000u);
  }
}

TEST(Watchdog, InfiniteProgramTripsMaxEvents) {
  FaultyProgram p(FaultyProgram::Fault::InfiniteCompute);
  MachineSpec cfg = mc();
  cfg.max_events = 10000;
  try {
    simulate(p, cfg);
    FAIL() << "expected LivelockError";
  } catch (const LivelockError& e) {
    EXPECT_NE(std::string(e.what()).find("max_events"), std::string::npos);
    EXPECT_GE(e.snapshot().events_processed, 10000u);
  }
}

TEST(Watchdog, SameCycleSpinTripsNoProgressDetector) {
  FaultyProgram p(FaultyProgram::Fault::SameCycleSpin);
  MachineSpec cfg = mc();
  cfg.no_progress_events = 5000;  // default is millions; keep the test fast
  try {
    simulate(p, cfg);
    FAIL() << "expected LivelockError";
  } catch (const LivelockError& e) {
    EXPECT_NE(std::string(e.what()).find("no progress"), std::string::npos);
  }
}

TEST(Watchdog, HostDeadlineTripsTimeoutError) {
  FaultyProgram p(FaultyProgram::Fault::InfiniteCompute);
  MachineSpec cfg = mc();
  cfg.max_host_seconds = 0.05;
  try {
    simulate(p, cfg);
    FAIL() << "expected TimeoutError";
  } catch (const TimeoutError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::Timeout);
    EXPECT_TRUE(is_retryable(e.kind()));
    EXPECT_NE(std::string(e.what()).find("host deadline"), std::string::npos);
    EXPECT_EQ(e.snapshot().procs.size(), 4u);
  }
}

// --- Watchdogs vs run streams (PR 5's batched references) -------------------
//
// A run stream retires thousands of references per scheduler entry, so every
// detector must fire while a stream is in flight — a watchdog that only
// looked between coroutine resumes would sail past its budget.

TEST(Watchdog, MaxCyclesFiresMidRunStream) {
  FaultyProgram p(FaultyProgram::Fault::GiantRunStream);
  MachineSpec cfg = mc();
  cfg.max_cycles = 50000;
  try {
    simulate(p, cfg);
    FAIL() << "expected LivelockError";
  } catch (const LivelockError& e) {
    EXPECT_NE(std::string(e.what()).find("max_cycles"), std::string::npos);
    // Tripped promptly: the stream had ~10^10 cycles left to run.
    EXPECT_GE(e.snapshot().cycle, 50000u);
    EXPECT_LT(e.snapshot().cycle, 1'000'000u);
  }
}

TEST(Watchdog, HostDeadlineFiresMidRunStream) {
  FaultyProgram p(FaultyProgram::Fault::InfiniteRunStream);
  MachineSpec cfg = mc();
  cfg.max_host_seconds = 0.05;
  EXPECT_THROW(simulate(p, cfg), TimeoutError);
}

TEST(Watchdog, NoProgressFiresWithStreamInFlight) {
  FaultyProgram p(FaultyProgram::Fault::StreamWithSpinners);
  MachineSpec cfg = mc();
  cfg.no_progress_events = 5000;
  try {
    simulate(p, cfg);
    FAIL() << "expected LivelockError";
  } catch (const LivelockError& e) {
    EXPECT_NE(std::string(e.what()).find("no progress"), std::string::npos);
  }
}

TEST(Watchdog, BudgetsDoNotDisturbHealthyRuns) {
  auto app = make_app("fft", ProblemScale::Test);
  MachineSpec cfg = mc(16);
  cfg.max_cycles = 100'000'000;
  cfg.max_events = 100'000'000;
  cfg.max_host_seconds = 300;
  EXPECT_NO_THROW(Simulator(cfg).run(*app));
}

// --- Deadlock diagnostics ---------------------------------------------------

TEST(DeadlockDiagnostics, SnapshotNamesParkedBarrierAndBlockedProcs) {
  FaultyProgram p(FaultyProgram::Fault::BarrierTooFew);
  try {
    simulate(p, mc());
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    // Procs 1..3 are parked on barrier 'phase' with 3 of 4 arrivals; proc 0
    // finished. The message alone must say all of that.
    EXPECT_NE(msg.find("barrier 'phase'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("arrived 3/4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("proc 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("proc 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("proc 3"), std::string::npos) << msg;
    ASSERT_EQ(e.snapshot().procs.size(), 4u);
    EXPECT_TRUE(e.snapshot().procs[0].finished);
    EXPECT_FALSE(e.snapshot().procs[1].finished);
  }
}

TEST(DeadlockDiagnostics, AbandonedLockNamesOwnerAndQueue) {
  FaultyProgram p(FaultyProgram::Fault::LockNeverReleased);
  try {
    simulate(p, mc());
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("blocked on lock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("owner proc"), std::string::npos) << msg;
  }
}

// --- Coherence invariant auditor --------------------------------------------

/// Drives a few processors directly against a memory system, then corrupts
/// the directory and checks audit() notices.
TEST(CoherenceAudit, CatchesCorruptedDirectoryEntry) {
  MachineSpec cfg = mc();
  cfg.validate();
  AddressSpace as;
  const Addr base = as.alloc(4096, "mem");
  CoherenceController cc(std::make_shared<const MachineSpec>(cfg), as);
  (void)cc.read(0, base, 0);
  (void)cc.write(2, base + 64, 0);
  EXPECT_NO_THROW(cc.audit());

  // Corrupt: claim a cluster caches the line that never touched it.
  DirEntry& e = cc.mutable_directory_for_test().entry(base);
  e.add(1);
  try {
    cc.audit();
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& ex) {
    EXPECT_EQ(ex.kind(), SimErrorKind::Protocol);
    const std::string msg = ex.what();
    EXPECT_NE(msg.find("0x"), std::string::npos) << msg;  // names the line
    EXPECT_NE(msg.find("cluster 1"), std::string::npos) << msg;
  }
}

TEST(CoherenceAudit, CatchesStateMismatch) {
  MachineSpec cfg = mc();
  AddressSpace as;
  const Addr base = as.alloc(4096, "mem");
  CoherenceController cc(std::make_shared<const MachineSpec>(cfg), as);
  (void)cc.write(0, base, 0);  // line EXCLUSIVE in cluster 0
  EXPECT_NO_THROW(cc.audit());

  // Corrupt: directory says SHARED while the cache still holds EXCLUSIVE.
  cc.mutable_directory_for_test().entry(base).state = DirState::Shared;
  EXPECT_THROW(cc.audit(), ProtocolError);
}

TEST(CoherenceAudit, CatchesClusteredMemoryCorruption) {
  MachineSpec cfg = mc();
  cfg.cluster_style = ClusterStyle::SharedMemory;
  AddressSpace as;
  const Addr base = as.alloc(4096, "mem");
  ClusteredMemorySystem cms(std::make_shared<const MachineSpec>(cfg), as);
  (void)cms.read(0, base, 0);
  (void)cms.read(3, base, 0);  // second cluster fetches too
  EXPECT_NO_THROW(cms.audit());

  // Corrupt: drop a cluster from the sharer vector while its attraction
  // memory still holds the line.
  cms.mutable_directory_for_test().entry(base).remove(1);
  EXPECT_THROW(cms.audit(), ProtocolError);
}

TEST(CoherenceAudit, PeriodicAuditPassesOnHealthyApps) {
  for (const char* style : {"shared-cache", "shared-memory"}) {
    auto app = make_app("radix", ProblemScale::Test);
    MachineSpec cfg = mc(16);
    cfg.cluster_style = std::string(style) == "shared-cache"
                            ? ClusterStyle::SharedCache
                            : ClusterStyle::SharedMemory;
    cfg.cache.per_proc_bytes = 4 * 1024;  // finite: exercise evictions
    cfg.audit_interval = 256;
    EXPECT_NO_THROW(Simulator(cfg).run(*app)) << style;
  }
}

// --- Sweep degradation ------------------------------------------------------

class ConfigSensitiveProgram : public Program {
 public:
  [[nodiscard]] std::string name() const override { return "config-sensitive"; }
  void setup(AddressSpace& as, const MachineSpec& cfg) override {
    base_ = as.alloc(4096, "mem");
    if (cfg.procs_per_cluster == 2) {
      throw std::runtime_error("refuses to run at 2 procs per cluster");
    }
  }
  SimTask body(Proc& p) override {
    co_await p.read(base_);
    co_await p.compute(10);
  }

 private:
  Addr base_ = 0;
};

TEST(SweepDegradation, OneBrokenConfigStillReturnsTheOthers) {
  std::vector<MachineSpec> configs;
  for (unsigned ppc : {1u, 2u, 4u}) {
    MachineSpec cfg = mc(8);
    cfg.procs_per_cluster = ppc;
    configs.push_back(cfg);
  }
  const auto results =
      run_sweep({[] { return std::make_unique<ConfigSensitiveProgram>(); },
                 configs})
          .rows;
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_GT(results[0].wall_time, 0u);
  EXPECT_FALSE(results[1].ok);
  EXPECT_EQ(results[1].error_kind, "app");
  EXPECT_NE(results[1].error.find("refuses to run"), std::string::npos);
  EXPECT_EQ(results[1].app_name, "config-sensitive");
  EXPECT_TRUE(results[2].ok);
  EXPECT_GT(results[2].wall_time, 0u);

  // The failure table renders exactly the broken config.
  std::ostringstream os;
  EXPECT_EQ(write_failures(os, results), 1u);
  EXPECT_NE(os.str().find("config-sensitive"), std::string::npos);
  EXPECT_NE(os.str().find("app error"), std::string::npos);
}

TEST(SweepDegradation, InvalidConfigReportedAsConfigError) {
  MachineSpec good = mc(8);
  MachineSpec bad = mc(8);
  bad.procs_per_cluster = 3;  // does not divide 8
  const auto results = run_sweep({[] { return make_app("fft", ProblemScale::Test); },
                                  {good, bad}})
                           .rows;
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_EQ(results[1].error_kind, "config");
}

TEST(SweepDegradation, DeadlockedConfigCarriesSnapshotDiagnostics) {
  // A sweep where one config's program deadlocks: the row's error text must
  // contain the snapshot (parked barrier), and healthy rows still complete.
  std::vector<MachineSpec> configs = {mc()};
  const auto results =
      run_sweep({[] {
                   return std::make_unique<FaultyProgram>(
                       FaultyProgram::Fault::BarrierTooFew);
                 },
                 configs})
          .rows;
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].error_kind, "deadlock");
  EXPECT_NE(results[0].error.find("arrived 3/4"), std::string::npos);
}

}  // namespace
}  // namespace csim
