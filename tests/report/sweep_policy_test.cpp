// The crash-safety policy layered on run_sweep: retryable-error taxonomy,
// the deterministic fault plan, per-row deadlines, bounded retries, and the
// write-ahead journal's skip-on-resume behaviour.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>

#include "src/apps/app.hpp"
#include "src/core/error.hpp"
#include "src/core/simulator.hpp"
#include "src/mem/address_space.hpp"
#include "src/obs/manifest.hpp"
#include "src/report/experiment.hpp"
#include "src/report/fault_injection.hpp"

namespace csim {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    dir_ = (fs::temp_directory_path() /
            ("csim_policy_test_" + tag + "_" +
             std::to_string(static_cast<unsigned long>(::getpid()))))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~TempDir() { fs::remove_all(dir_); }
  [[nodiscard]] const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

/// A fast deterministic workload: each proc reads its own line and computes.
class TinyProgram : public Program {
 public:
  TinyProgram() { set_scale(ProblemScale::Test); }
  [[nodiscard]] std::string name() const override { return "tiny"; }
  void setup(AddressSpace& as, const MachineSpec&) override {
    base_ = as.alloc(4096, "mem");
  }
  SimTask body(Proc& p) override {
    co_await p.read(base_ + 64 * p.id());
    co_await p.compute(10);
  }

 private:
  Addr base_ = 0;
};

MachineSpec mc(unsigned ppc = 2) {
  MachineSpec c;
  c.num_procs = 4;
  c.procs_per_cluster = ppc;
  return c;
}

SweepRequest tiny_request(std::vector<MachineSpec> configs) {
  SweepRequest req;
  req.make_app = [] { return std::make_unique<TinyProgram>(); };
  req.configs = std::move(configs);
  return req;
}

std::uint64_t tiny_digest(const MachineSpec& cfg) {
  return obs::config_digest(cfg, "tiny", ProblemScale::Test);
}

// --- Error taxonomy ----------------------------------------------------------

TEST(ErrorTaxonomy, KindNamesRoundTrip) {
  for (const SimErrorKind k :
       {SimErrorKind::Config, SimErrorKind::Deadlock, SimErrorKind::Livelock,
        SimErrorKind::Protocol, SimErrorKind::App, SimErrorKind::Timeout,
        SimErrorKind::Transient}) {
    EXPECT_EQ(sim_error_kind_from_string(to_string(k)), k);
  }
}

TEST(ErrorTaxonomy, UnknownKindNameThrows) {
  EXPECT_THROW((void)sim_error_kind_from_string("flaky"),
               std::invalid_argument);
  EXPECT_THROW((void)sim_error_kind_from_string(""), std::invalid_argument);
}

TEST(ErrorTaxonomy, OnlyHostDependentKindsAreRetryable) {
  EXPECT_TRUE(is_retryable(SimErrorKind::Timeout));
  EXPECT_TRUE(is_retryable(SimErrorKind::Transient));
  // Deterministic failures would fail identically on every retry.
  EXPECT_FALSE(is_retryable(SimErrorKind::Config));
  EXPECT_FALSE(is_retryable(SimErrorKind::Deadlock));
  EXPECT_FALSE(is_retryable(SimErrorKind::Livelock));
  EXPECT_FALSE(is_retryable(SimErrorKind::Protocol));
  EXPECT_FALSE(is_retryable(SimErrorKind::App));
}

TEST(ErrorTaxonomy, ThrowSimErrorPicksTheConcreteType) {
  EXPECT_THROW(throw_sim_error(SimErrorKind::Transient, "x"), TransientError);
  EXPECT_THROW(throw_sim_error(SimErrorKind::Timeout, "x"), TimeoutError);
  EXPECT_THROW(throw_sim_error(SimErrorKind::Deadlock, "x"), DeadlockError);
  try {
    throw_sim_error(SimErrorKind::Transient, "injected");
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::Transient);
    EXPECT_EQ(e.summary(), "injected");
  }
}

// --- Fault plan --------------------------------------------------------------

TEST(FaultPlan, ParsesDirectivesAndComments) {
  const FaultPlan plan = FaultPlan::parse(
      "# header comment\n"
      "seed 42\n"
      "\n"
      "* throw transient 2   # trailing comment\n"
      "00000000deadbeef stall 0.25\n"
      "00000000cafef00d torn-write 0.75\n",
      "test");
  EXPECT_EQ(plan.seed(), 42u);
  EXPECT_FALSE(plan.empty());

  const auto wild = plan.lookup(0x1234, 1);
  ASSERT_TRUE(wild.has_value());
  EXPECT_EQ(wild->action, FaultSpec::Action::Throw);
  EXPECT_EQ(wild->error, SimErrorKind::Transient);
  EXPECT_EQ(wild->fail_attempts, 2u);

  const auto stall = plan.lookup(0xdeadbeef, 1);
  ASSERT_TRUE(stall.has_value());
  EXPECT_EQ(stall->action, FaultSpec::Action::Stall);
  EXPECT_DOUBLE_EQ(stall->stall_seconds, 0.25);

  const auto torn = plan.lookup(0xcafef00d, 1);
  ASSERT_TRUE(torn.has_value());
  EXPECT_EQ(torn->action, FaultSpec::Action::TornWrite);
  EXPECT_DOUBLE_EQ(torn->keep_fraction, 0.75);
}

TEST(FaultPlan, DigestSpecificFaultWinsOverWildcard) {
  FaultPlan plan;
  FaultSpec wild;
  wild.error = SimErrorKind::Transient;
  plan.add_wildcard(wild);
  FaultSpec specific;
  specific.error = SimErrorKind::App;
  plan.add(7, specific);

  EXPECT_EQ(plan.lookup(7, 1)->error, SimErrorKind::App);
  EXPECT_EQ(plan.lookup(8, 1)->error, SimErrorKind::Transient);
}

TEST(FaultPlan, FailAttemptsBoundsTheFault) {
  FaultPlan plan;
  FaultSpec f;
  f.fail_attempts = 2;
  plan.add(7, f);
  EXPECT_TRUE(plan.lookup(7, 1).has_value());
  EXPECT_TRUE(plan.lookup(7, 2).has_value());
  EXPECT_FALSE(plan.lookup(7, 3).has_value());  // retry #2 succeeds
}

TEST(FaultPlan, ProbabilityCoinIsDeterministicInSeedDigestAttempt) {
  FaultSpec f;
  f.probability = 0.5;
  FaultPlan a;
  a.set_seed(99);
  a.add_wildcard(f);
  FaultPlan b;  // independently built, same seed: decisions must agree
  b.set_seed(99);
  b.add_wildcard(f);

  unsigned fired = 0;
  for (unsigned attempt = 1; attempt <= 64; ++attempt) {
    for (std::uint64_t digest : {1ULL, 0xabcULL, 0xffff0000ULL}) {
      const bool hit_a = a.lookup(digest, attempt).has_value();
      EXPECT_EQ(hit_a, b.lookup(digest, attempt).has_value());
      fired += hit_a ? 1u : 0u;
    }
  }
  // A fair coin over 192 draws lands strictly inside the extremes; the
  // draws are fixed by (seed, digest, attempt), so this cannot flake.
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, 192u);
}

TEST(FaultPlan, ProbabilityZeroNeverFires) {
  FaultPlan plan;
  FaultSpec f;
  f.probability = 0.0;
  plan.add_wildcard(f);
  for (unsigned attempt = 1; attempt <= 16; ++attempt) {
    EXPECT_FALSE(plan.lookup(5, attempt).has_value());
  }
}

TEST(FaultPlan, ParseErrorsNameOriginAndLine) {
  const auto expect_bad = [](const char* text, const char* fragment) {
    try {
      (void)FaultPlan::parse(text, "plan.txt");
      FAIL() << "expected ConfigError for: " << text;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("plan.txt:1"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_bad("zzz throw transient", "config digest");
  expect_bad("* explode", "unknown action");
  expect_bad("* throw flaky", "flaky");
  expect_bad("* stall", "stall takes");
  expect_bad("* stall -1", ">= 0");
  expect_bad("* torn-write 1.5", "[0, 1]");
  expect_bad("* throw transient 1 2.0", "probability");
  expect_bad("seed 1 2", "seed takes one value");
  expect_bad("*", "expected");
}

TEST(FaultPlan, ParseFileRejectsMissingPath) {
  EXPECT_THROW((void)FaultPlan::parse_file("/nonexistent/plan.txt"),
               ConfigError);
}

// --- run_sweep policy --------------------------------------------------------

TEST(SweepPolicy, DefaultPolicyComputesNoDigests) {
  const SweepResult sweep = run_sweep(tiny_request({mc(1), mc(2)}));
  ASSERT_EQ(sweep.rows.size(), 2u);
  ASSERT_EQ(sweep.outcomes.size(), 2u);
  EXPECT_TRUE(sweep.journal_warnings.empty());
  for (const RowOutcome& oc : sweep.outcomes) {
    EXPECT_EQ(oc.status, RowOutcome::Status::Ok);
    EXPECT_EQ(oc.attempts, 1u);
    EXPECT_FALSE(oc.from_journal);
    // The identity probe never ran: journaling off means zero digest work.
    EXPECT_EQ(oc.config_digest, 0u);
  }
}

TEST(SweepPolicy, RetryableFaultSucceedsAfterRetry) {
  FaultPlan plan;
  FaultSpec f;
  f.error = SimErrorKind::Transient;
  f.fail_attempts = 1;  // only the first attempt fails
  plan.add_wildcard(f);

  SweepRequest req = tiny_request({mc(2)});
  req.policy.faults = &plan;
  req.policy.max_retries = 2;
  req.policy.backoff_ms = 0;
  const SweepResult sweep = run_sweep(req);
  ASSERT_EQ(sweep.rows.size(), 1u);
  EXPECT_TRUE(sweep.rows[0].ok);
  EXPECT_EQ(sweep.outcomes[0].status, RowOutcome::Status::Ok);
  EXPECT_EQ(sweep.outcomes[0].attempts, 2u);
  EXPECT_EQ(sweep.outcomes[0].config_digest, tiny_digest(mc(2)));
}

TEST(SweepPolicy, NonRetryableFaultIsNotRetried) {
  FaultPlan plan;
  FaultSpec f;
  f.error = SimErrorKind::App;  // deterministic: retrying cannot help
  plan.add_wildcard(f);

  SweepRequest req = tiny_request({mc(2)});
  req.policy.faults = &plan;
  req.policy.max_retries = 3;
  req.policy.backoff_ms = 0;
  const SweepResult sweep = run_sweep(req);
  EXPECT_FALSE(sweep.rows[0].ok);
  EXPECT_EQ(sweep.rows[0].error_kind, "app");
  EXPECT_EQ(sweep.outcomes[0].status, RowOutcome::Status::Failed);
  EXPECT_EQ(sweep.outcomes[0].attempts, 1u);
}

TEST(SweepPolicy, ExhaustedRetriesReportTheLastFailure) {
  FaultPlan plan;
  FaultSpec f;
  f.error = SimErrorKind::Transient;  // fail_attempts = 0: every attempt
  plan.add_wildcard(f);

  SweepRequest req = tiny_request({mc(2)});
  req.policy.faults = &plan;
  req.policy.max_retries = 2;
  req.policy.backoff_ms = 0;
  const SweepResult sweep = run_sweep(req);
  EXPECT_FALSE(sweep.rows[0].ok);
  EXPECT_EQ(sweep.rows[0].error_kind, "transient");
  EXPECT_NE(sweep.rows[0].error.find("attempt 3"), std::string::npos);
  EXPECT_EQ(sweep.outcomes[0].status, RowOutcome::Status::Failed);
  EXPECT_EQ(sweep.outcomes[0].attempts, 3u);
}

TEST(SweepPolicy, StallPastDeadlineTimesOut) {
  FaultPlan plan;
  FaultSpec f;
  f.action = FaultSpec::Action::Stall;
  f.stall_seconds = 0.2;
  plan.add_wildcard(f);

  SweepRequest req = tiny_request({mc(2)});
  req.policy.faults = &plan;
  req.policy.row_deadline_seconds = 0.05;
  const SweepResult sweep = run_sweep(req);
  EXPECT_FALSE(sweep.rows[0].ok);
  EXPECT_EQ(sweep.rows[0].error_kind, "timeout");
  EXPECT_NE(sweep.rows[0].error.find("row deadline"), std::string::npos);
  EXPECT_EQ(sweep.outcomes[0].status, RowOutcome::Status::TimedOut);
  // The synthesized row still carries the app identity for reporting.
  EXPECT_EQ(sweep.rows[0].app_name, "tiny");
}

TEST(SweepPolicy, GenerousDeadlineLeavesResultsUntouched) {
  const SweepResult plain = run_sweep(tiny_request({mc(1), mc(2)}));
  SweepRequest req = tiny_request({mc(1), mc(2)});
  req.policy.row_deadline_seconds = 300;
  const SweepResult fenced = run_sweep(req);
  ASSERT_EQ(fenced.rows.size(), plain.rows.size());
  for (std::size_t i = 0; i < plain.rows.size(); ++i) {
    ASSERT_TRUE(fenced.rows[i].ok);
    EXPECT_EQ(obs::result_digest(fenced.rows[i]),
              obs::result_digest(plain.rows[i]));
    // The deadline budget must not leak into the reported configuration.
    EXPECT_EQ(fenced.rows[i].config.max_host_seconds, 0.0);
  }
}

TEST(SweepPolicy, JournalWrittenThenResumeSkipsSimulation) {
  const TempDir tmp("resume");
  const std::vector<MachineSpec> configs = {mc(1), mc(2), mc(4)};
  auto calls = std::make_shared<std::atomic<int>>(0);
  const auto counting_factory = [calls]() -> std::unique_ptr<Program> {
    ++*calls;
    return std::make_unique<TinyProgram>();
  };

  SweepRequest first;
  first.make_app = counting_factory;
  first.configs = configs;
  first.policy.journal_dir = tmp.path();
  const SweepResult a = run_sweep(first);
  EXPECT_TRUE(a.all_ok());
  EXPECT_TRUE(a.journal_warnings.empty());
  // identity probe + one app per row
  EXPECT_EQ(calls->load(), 1 + static_cast<int>(configs.size()));
  for (const RowOutcome& oc : a.outcomes) EXPECT_FALSE(oc.from_journal);

  SweepRequest second = first;
  second.policy.resume = true;
  const SweepResult b = run_sweep(second);
  EXPECT_TRUE(b.all_ok());
  // Only the identity probe ran: every row was satisfied from the journal.
  EXPECT_EQ(calls->load(), 2 + static_cast<int>(configs.size()));
  ASSERT_EQ(b.outcomes.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_TRUE(b.outcomes[i].from_journal);
    EXPECT_EQ(obs::result_digest(b.rows[i]), obs::result_digest(a.rows[i]));
  }
}

TEST(SweepPolicy, ResumeWithoutJournalReSimulatesEverything) {
  const TempDir tmp("empty");
  SweepRequest req = tiny_request({mc(2)});
  req.policy.journal_dir = tmp.path() + "/never_written";
  req.policy.resume = true;
  const SweepResult sweep = run_sweep(req);
  EXPECT_TRUE(sweep.all_ok());
  EXPECT_FALSE(sweep.outcomes[0].from_journal);
}

TEST(SweepPolicy, FailedRowsAreNeverJournaled) {
  const TempDir tmp("nofail");
  FaultPlan plan;
  FaultSpec f;
  f.error = SimErrorKind::App;
  plan.add_wildcard(f);
  SweepRequest req = tiny_request({mc(2)});
  req.policy.journal_dir = tmp.path();
  req.policy.faults = &plan;
  const SweepResult sweep = run_sweep(req);
  EXPECT_FALSE(sweep.rows[0].ok);
  // The journal holds only rows a resume may trust: completed ones.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(tmp.path())) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 0u);
}

TEST(SweepPolicy, ThrowingFactoryDisablesJournalingGracefully) {
  const TempDir tmp("probe");
  SweepRequest req;
  req.make_app = []() -> std::unique_ptr<Program> {
    throw std::runtime_error("factory bug");
  };
  req.configs = {mc(2)};
  req.policy.journal_dir = tmp.path();
  const SweepResult sweep = run_sweep(req);
  // Pre-policy semantics: the row fails with the factory's diagnostic.
  ASSERT_EQ(sweep.rows.size(), 1u);
  EXPECT_FALSE(sweep.rows[0].ok);
  EXPECT_NE(sweep.rows[0].error.find("factory bug"), std::string::npos);
  ASSERT_FALSE(sweep.journal_warnings.empty());
  EXPECT_NE(sweep.journal_warnings[0].find("identity probe"),
            std::string::npos);
}

// --- Checkpoint grouping -------------------------------------------------------

/// Four sampled lu rows that differ only in a detailed-interval knob (the
/// remote clean-miss latency), so they share one warm_config_digest.
std::vector<MachineSpec> latency_variants() {
  std::vector<MachineSpec> configs;
  for (const Cycles extra : {0u, 50u, 100u, 150u}) {
    MachineSpec c = MachineSpecBuilder{}
                        .procs(16)
                        .procs_per_cluster(4)
                        .cache_kb(4)
                        .sample(4096, 4096, 16384)
                        .build();
    c.latency.remote_clean += extra;
    configs.push_back(c);
  }
  return configs;
}

TEST(SweepPolicy, CheckpointGroupSharesOneWarmupAcrossWorkers) {
  const TempDir tmp("ckpt_group");
  SweepRequest req;
  req.make_app = [] { return make_app("lu", ProblemScale::Test); };
  req.configs = latency_variants();
  const SweepResult reference = run_sweep(req);

  // The first row warms in process and saves the checkpoint; the other
  // three run in the second wave and fast-forward from it concurrently.
  for (MachineSpec& c : req.configs) c.sampling.checkpoint_dir = tmp.path();
  const SweepResult first = run_sweep(req);
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(tmp.path())) {
    files.push_back(e.path());
  }
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].extension(), ".csc");
  ASSERT_EQ(first.rows.size(), reference.rows.size());
  for (std::size_t i = 0; i < first.rows.size(); ++i) {
    ASSERT_TRUE(first.rows[i].ok) << first.rows[i].error;
    const std::uint64_t d = obs::result_digest(first.rows[i]);
    EXPECT_EQ(d, obs::result_digest(reference.rows[i])) << "row " << i;
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(d, obs::result_digest(first.rows[j])) << i << " vs " << j;
    }
  }

  // A second sweep loads the checkpoint for every row and rewrites nothing.
  const auto written = fs::last_write_time(files[0]);
  const SweepResult second = run_sweep(req);
  EXPECT_EQ(fs::last_write_time(files[0]), written);
  EXPECT_EQ(std::distance(fs::directory_iterator(tmp.path()),
                          fs::directory_iterator{}),
            1);
  for (std::size_t i = 0; i < second.rows.size(); ++i) {
    EXPECT_EQ(obs::result_digest(second.rows[i]),
              obs::result_digest(reference.rows[i]))
        << "row " << i;
  }
}

// --- Reporting ---------------------------------------------------------------

TEST(SweepReporting, CsvAddsStatusAndAttemptsColumns) {
  FaultPlan plan;
  FaultSpec f;
  f.error = SimErrorKind::Transient;
  f.fail_attempts = 1;
  plan.add_wildcard(f);
  SweepRequest req = tiny_request({mc(2)});
  req.policy.faults = &plan;
  req.policy.max_retries = 1;
  req.policy.backoff_ms = 0;
  const SweepResult sweep = run_sweep(req);
  ASSERT_TRUE(sweep.all_ok());

  std::ostringstream os;
  write_csv(os, sweep);
  const std::string csv = os.str();
  EXPECT_NE(csv.find(",status,attempts\n"), std::string::npos);
  EXPECT_NE(csv.find(",ok,2\n"), std::string::npos);
}

TEST(SweepReporting, OutcomeTableShowsJournalProvenanceAndWarnings) {
  SweepResult sweep;
  sweep.rows.resize(2);
  sweep.rows[0].ok = true;
  sweep.rows[0].app_name = "tiny";
  sweep.rows[1].ok = false;
  sweep.rows[1].error_kind = "timeout";
  sweep.outcomes.resize(2);
  sweep.outcomes[0] = {RowOutcome::Status::Ok, 1, true, 0xabcdULL};
  sweep.outcomes[1] = {RowOutcome::Status::TimedOut, 3, false, 0x1234ULL};
  sweep.journal_warnings.push_back("journal: something was skipped");

  std::ostringstream os;
  EXPECT_EQ(write_outcomes(os, sweep), 1u);  // one row not ok
  const std::string out = os.str();
  EXPECT_NE(out.find("(journal)"), std::string::npos);
  EXPECT_NE(out.find("timed_out"), std::string::npos);
  EXPECT_NE(out.find("attempts=3"), std::string::npos);
  EXPECT_NE(out.find("warning: journal: something was skipped"),
            std::string::npos);
}

}  // namespace
}  // namespace csim
