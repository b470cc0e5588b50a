// The crash-safety acceptance invariant, end to end: a sweep interrupted
// after journaling some rows (one of them torn mid-write) resumes to a CSV
// and sweep digest byte-identical to an uninterrupted run's.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/app.hpp"
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
            ("csim_crash_resume_" + tag + "_" +
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

std::vector<MachineSpec> sweep_configs() {
  std::vector<MachineSpec> configs;
  for (unsigned ppc : {1u, 2u, 4u}) {
    MachineSpec cfg;
    cfg.num_procs = 8;
    cfg.procs_per_cluster = ppc;
    configs.push_back(cfg);
  }
  return configs;
}

std::string csv_of(const SweepResult& sweep) {
  std::ostringstream os;
  write_csv(os, sweep);
  return os.str();
}

/// Drops the wall_seconds / sim_refs_per_sec columns: they are host-time
/// measurements, so they round-trip bit-exactly through the journal
/// (SecondResumeSimulatesNothing compares them verbatim) but necessarily
/// differ between two *independent* executions of the same sweep.
std::string strip_host_columns(const std::string& csv) {
  std::vector<std::size_t> drop;
  std::string out;
  std::istringstream is(csv);
  std::string line;
  bool header = true;
  while (std::getline(is, line)) {
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (start <= line.size()) {
      const std::size_t comma = line.find(',', start);
      const std::size_t end = comma == std::string::npos ? line.size() : comma;
      fields.push_back(line.substr(start, end - start));
      start = end + 1;
      if (comma == std::string::npos) break;
    }
    if (header) {
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (fields[i] == "wall_seconds" || fields[i] == "sim_refs_per_sec") {
          drop.push_back(i);
        }
      }
      header = false;
    }
    std::string joined;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (std::find(drop.begin(), drop.end(), i) != drop.end()) continue;
      if (!joined.empty()) joined += ',';
      joined += fields[i];
    }
    out += joined;
    out += '\n';
  }
  return out;
}

TEST(CrashResume, InterruptedSweepResumesBitExact) {
  const TempDir tmp("bitexact");
  const std::vector<MachineSpec> configs = sweep_configs();
  auto sims = std::make_shared<std::atomic<int>>(0);
  const auto factory = [sims]() -> std::unique_ptr<Program> {
    ++*sims;
    return make_app("fft", ProblemScale::Test);
  };

  // Reference: the uninterrupted run, no policy at all.
  SweepRequest plain;
  plain.make_app = factory;
  plain.configs = configs;
  const SweepResult reference = run_sweep(plain);
  ASSERT_TRUE(reference.all_ok());
  const std::string reference_csv = csv_of(reference);
  const std::uint64_t reference_digest = obs::sweep_digest(reference.rows);
  const int plain_sims = sims->load();
  EXPECT_EQ(plain_sims, 3);  // no probe without a policy

  // "Crashed" run: row 1's journal record is torn mid-write (the damage a
  // kill would leave without atomic appends) and row 2 dies outright, so
  // only row 0's record survives intact.
  FaultPlan plan;
  FaultSpec torn;
  torn.action = FaultSpec::Action::TornWrite;
  torn.keep_fraction = 0.4;
  plan.add(obs::config_digest(configs[1], "fft", ProblemScale::Test), torn);
  FaultSpec dead;
  dead.action = FaultSpec::Action::Throw;
  dead.error = SimErrorKind::App;  // non-retryable: the row just fails
  plan.add(obs::config_digest(configs[2], "fft", ProblemScale::Test), dead);

  SweepRequest crashed;
  crashed.make_app = factory;
  crashed.configs = configs;
  crashed.policy.journal_dir = tmp.path();
  crashed.policy.faults = &plan;
  const SweepResult partial = run_sweep(crashed);
  EXPECT_TRUE(partial.rows[0].ok);
  EXPECT_TRUE(partial.rows[1].ok);  // the row succeeded; its *record* is torn
  EXPECT_FALSE(partial.rows[2].ok);
  ASSERT_EQ(partial.journal_warnings.size(), 1u);
  EXPECT_NE(partial.journal_warnings[0].find("torn journal write"),
            std::string::npos);

  // Resume: row 0 loads from the journal; the torn record and the dead row
  // re-simulate. Exactly 2 simulations + 1 identity probe.
  const int before_resume = sims->load();
  SweepRequest resumed;
  resumed.make_app = factory;
  resumed.configs = configs;
  resumed.policy.journal_dir = tmp.path();
  resumed.policy.resume = true;
  const SweepResult final_run = run_sweep(resumed);
  ASSERT_TRUE(final_run.all_ok());
  EXPECT_EQ(sims->load(), before_resume + 3);

  ASSERT_EQ(final_run.outcomes.size(), 3u);
  EXPECT_TRUE(final_run.outcomes[0].from_journal);
  EXPECT_FALSE(final_run.outcomes[1].from_journal);
  EXPECT_FALSE(final_run.outcomes[2].from_journal);
  // The torn record was diagnosed, not trusted.
  ASSERT_FALSE(final_run.journal_warnings.empty());
  EXPECT_NE(final_run.journal_warnings[0].find("truncated"),
            std::string::npos);

  // The acceptance invariant: merged CSV (modulo host-time columns) and
  // sweep digest are byte-exact against the uninterrupted run.
  EXPECT_EQ(strip_host_columns(csv_of(final_run)),
            strip_host_columns(reference_csv));
  EXPECT_EQ(obs::sweep_digest(final_run.rows), reference_digest);
}

TEST(CrashResume, SecondResumeSimulatesNothing) {
  const TempDir tmp("idempotent");
  const std::vector<MachineSpec> configs = sweep_configs();
  auto sims = std::make_shared<std::atomic<int>>(0);
  const auto factory = [sims]() -> std::unique_ptr<Program> {
    ++*sims;
    return make_app("fft", ProblemScale::Test);
  };

  SweepRequest req;
  req.make_app = factory;
  req.configs = configs;
  req.policy.journal_dir = tmp.path();
  req.policy.resume = true;
  const SweepResult first = run_sweep(req);
  ASSERT_TRUE(first.all_ok());
  const std::string first_csv = csv_of(first);
  const int after_first = sims->load();

  const SweepResult second = run_sweep(req);
  ASSERT_TRUE(second.all_ok());
  // Only the identity probe ran the factory again.
  EXPECT_EQ(sims->load(), after_first + 1);
  for (const RowOutcome& oc : second.outcomes) {
    EXPECT_TRUE(oc.from_journal);
  }
  EXPECT_EQ(csv_of(second), first_csv);
}

// The sweep CSV's bytes, not just its columns: csim_cli --csv, the shard-merge
// artifacts and the service's csv_out all write this schema, so a change to
// the writer must fail here. Every row retries once, so every row ends
// `,ok,2`.
TEST(SweepReporting, CsvBytesArePinned) {
  FaultPlan plan;
  FaultSpec f;
  f.error = SimErrorKind::Transient;
  f.fail_attempts = 1;
  plan.add_wildcard(f);
  SweepRequest req;
  req.make_app = [] { return make_app("fft", ProblemScale::Test); };
  for (unsigned ppc : {1u, 2u, 4u}) {
    req.configs.push_back(
        MachineSpecBuilder{}.procs(16).procs_per_cluster(ppc).cache_kb(4).build());
  }
  req.policy.faults = &plan;
  req.policy.max_retries = 1;
  req.policy.backoff_ms = 0;
  const SweepResult sweep = run_sweep(req);
  ASSERT_TRUE(sweep.all_ok());
  EXPECT_EQ(strip_host_columns(csv_of(sweep)),
            "app,scale,procs,ppc,cache_kb,wall,cpu,load,merge,sync,contention,"
            "reads,writes,read_misses,write_misses,upgrades,merges,cold,"
            "invalidations,bank_conflicts,bank_wait,dir_wait,nic_wait,"
            "sampled,coverage,status,attempts\n"
            "fft,test,16,1,4,20108,150528,161760,0,9440,0,15872,15872,1472,480,"
            "288,0,512,960,0,0,0,0,0,0.000000,ok,2\n"
            "fft,test,16,2,4,19151,150528,77760,74456,3672,0,15872,15872,704,"
            "480,256,672,512,448,0,0,0,0,0,0.000000,ok,2\n"
            "fft,test,16,4,4,16739,150528,59520,57384,392,0,15872,15872,640,"
            "448,256,608,512,384,0,0,0,0,0,0.000000,ok,2\n");
}

TEST(CrashResume, StaleJournalForOtherAppIsIgnored) {
  const TempDir tmp("staleapp");
  const std::vector<MachineSpec> configs = sweep_configs();

  // Journal a barnes sweep into the directory, then resume an fft sweep
  // from it: the digests differ (app is hashed into the key), so nothing
  // matches and every fft row simulates fresh.
  SweepRequest other;
  other.make_app = [] { return make_app("barnes", ProblemScale::Test); };
  other.configs = {configs[0]};
  other.policy.journal_dir = tmp.path();
  ASSERT_TRUE(run_sweep(other).all_ok());

  SweepRequest req;
  req.make_app = [] { return make_app("fft", ProblemScale::Test); };
  req.configs = configs;
  req.policy.journal_dir = tmp.path();
  req.policy.resume = true;
  const SweepResult sweep = run_sweep(req);
  ASSERT_TRUE(sweep.all_ok());
  for (const RowOutcome& oc : sweep.outcomes) {
    EXPECT_FALSE(oc.from_journal);
  }
}

}  // namespace
}  // namespace csim
