// The shared driver flag group (src/report/cli_args.hpp) must parse the same
// way from every tool: checked numbers, identical spellings, clear errors.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "src/apps/app.hpp"
#include "src/core/error.hpp"
#include "src/obs/manifest.hpp"
#include "src/report/cli_args.hpp"
#include "src/report/json.hpp"

namespace csim {
namespace {

using cli::ObsArgs;
using cli::parse_f64;
using cli::parse_u64;

/// Runs `args` through ObsArgs::consume the way the drivers do.
ObsArgs parse_all(std::vector<const char*> args) {
  args.insert(args.begin(), "tool");
  ObsArgs o;
  const int argc = static_cast<int>(args.size());
  char** argv = const_cast<char**>(args.data());
  for (int i = 1; i < argc; ++i) {
    EXPECT_TRUE(o.consume(argc, argv, i)) << "unconsumed flag: " << argv[i];
  }
  return o;
}

TEST(ParseU64, AcceptsPlainNumbers) {
  EXPECT_EQ(parse_u64("--n", "0"), 0u);
  EXPECT_EQ(parse_u64("--n", "123456789"), 123456789u);
}

TEST(ParseU64, RejectsGarbageNamingTheFlag) {
  EXPECT_THROW((void)parse_u64("--metrics-interval", "abc"), ConfigError);
  EXPECT_THROW((void)parse_u64("--metrics-interval", "12x"), ConfigError);
  EXPECT_THROW((void)parse_u64("--metrics-interval", ""), ConfigError);
  try {
    (void)parse_u64("--metrics-interval", "abc");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--metrics-interval"),
              std::string::npos);
  }
}

TEST(ParseU64, RejectsSignsAndSpaces) {
  // strtoull would wrap "-1" to 2^64 - 1.
  for (const char* bad : {"-1", "+1", " 1", "1 ", "0x10"}) {
    EXPECT_THROW((void)parse_u64("--retries", bad), ConfigError) << bad;
  }
  EXPECT_THROW((void)parse_u64("--n", "18446744073709551616"), ConfigError);
}

TEST(ParseF64, AcceptsFloatsRejectsGarbage) {
  EXPECT_DOUBLE_EQ(parse_f64("--row-deadline", "2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_f64("--row-deadline", "10"), 10.0);
  EXPECT_THROW((void)parse_f64("--row-deadline", "abc"), ConfigError);
  EXPECT_THROW((void)parse_f64("--row-deadline", "1.5x"), ConfigError);
  EXPECT_THROW((void)parse_f64("--row-deadline", ""), ConfigError);
}

TEST(ObsArgs, ConsumesTheSharedFlagGroup) {
  const ObsArgs o = parse_all({"--trace-out", "t.json", "--metrics-interval",
                               "500", "--metrics-out", "m", "--manifest",
                               "run.json"});
  EXPECT_EQ(o.trace_out, "t.json");
  EXPECT_EQ(o.metrics_interval, 500u);
  EXPECT_EQ(o.metrics_out, "m");
  EXPECT_EQ(o.manifest_out, "run.json");
  EXPECT_FALSE(o.contention.enabled);
}

TEST(ObsArgs, LeavesForeignFlagsAlone) {
  // --par is not a flag: every run uses the one sequential engine.
  for (const char* flag : {"--procs", "--par"}) {
    ObsArgs o;
    const char* argv[] = {"tool", flag, "64"};
    int i = 1;
    EXPECT_FALSE(o.consume(3, const_cast<char**>(argv), i)) << flag;
    EXPECT_EQ(i, 1);
  }
}

TEST(ObsArgs, ContentionFlagEnablesDefaults) {
  const ObsArgs o = parse_all({"--contention"});
  EXPECT_TRUE(o.contention.enabled);
  const ContentionSpec d{};
  EXPECT_EQ(o.contention.bank_busy, d.bank_busy);
  EXPECT_EQ(o.contention.directory_busy, d.directory_busy);
  EXPECT_EQ(o.contention.nic_busy, d.nic_busy);
}

TEST(ObsArgs, ContentionBusyTripleImpliesEnabled) {
  const ObsArgs o = parse_all({"--contention-busy", "2,5,9"});
  EXPECT_TRUE(o.contention.enabled);
  EXPECT_EQ(o.contention.bank_busy, 2u);
  EXPECT_EQ(o.contention.directory_busy, 5u);
  EXPECT_EQ(o.contention.nic_busy, 9u);
}

TEST(ObsArgs, RejectsMalformedValues) {
  ObsArgs o;
  {
    const char* argv[] = {"tool", "--metrics-interval", "0"};
    int i = 1;
    EXPECT_THROW((void)o.consume(3, const_cast<char**>(argv), i), ConfigError);
  }
  {
    const char* argv[] = {"tool", "--contention-busy", "2,5"};
    int i = 1;
    EXPECT_THROW((void)o.consume(3, const_cast<char**>(argv), i), ConfigError);
  }
  {
    const char* argv[] = {"tool", "--trace-out"};  // missing value
    int i = 1;
    EXPECT_THROW((void)o.consume(2, const_cast<char**>(argv), i), ConfigError);
  }
}

TEST(ObsArgs, ConsumesTheCrashSafetyFlags) {
  const ObsArgs o = parse_all({"--journal-dir", "j", "--resume",
                               "--row-deadline", "2.5", "--retries", "3"});
  EXPECT_EQ(o.policy.journal_dir, "j");
  EXPECT_TRUE(o.policy.resume);
  EXPECT_DOUBLE_EQ(o.policy.row_deadline_seconds, 2.5);
  EXPECT_EQ(o.policy.max_retries, 3u);
  EXPECT_EQ(o.fault_plan, nullptr);
}

TEST(ObsArgs, RetriesAndIntervalRejectWrappingValues) {
  // Each of these once parsed: -1 wrapped to 2^64 - 1 (or 2^32 - 1 retries,
  // whose 1 + max_retries wraps to zero attempts), and more than 63 retries
  // would shift the backoff past 64 bits.
  for (const auto& [flag, bad] :
       {std::pair{"--metrics-interval", "-1"}, std::pair{"--retries", "-1"},
        std::pair{"--retries", "17"}, std::pair{"--retries", "64"}}) {
    ObsArgs o;
    const char* argv[] = {"tool", flag, bad};
    int i = 1;
    EXPECT_THROW((void)o.consume(3, const_cast<char**>(argv), i), ConfigError)
        << flag << ' ' << bad;
  }
  EXPECT_EQ(parse_all({"--retries", "16"}).policy.max_retries, 16u);
}

TEST(ObsArgs, RowDeadlineMustBePositive) {
  for (const char* bad : {"0", "-1"}) {
    ObsArgs o;
    const char* argv[] = {"tool", "--row-deadline", bad};
    int i = 1;
    EXPECT_THROW((void)o.consume(3, const_cast<char**>(argv), i), ConfigError)
        << bad;
  }
}

TEST(ObsArgs, JournalDirMustBeNonEmpty) {
  ObsArgs o;
  const char* argv[] = {"tool", "--journal-dir", ""};
  int i = 1;
  EXPECT_THROW((void)o.consume(3, const_cast<char**>(argv), i), ConfigError);
}

TEST(ObsArgs, FaultPlanFlagParsesTheFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("csim_cli_args_plan_" +
        std::to_string(static_cast<unsigned long>(::getpid())) + ".txt"))
          .string();
  {
    std::ofstream os(path);
    os << "seed 7\n* throw transient 1\n";
  }
  const ObsArgs o = parse_all({"--fault-plan", path.c_str()});
  std::filesystem::remove(path);
  ASSERT_NE(o.fault_plan, nullptr);
  EXPECT_EQ(o.fault_plan->seed(), 7u);
  EXPECT_TRUE(o.fault_plan->lookup(1, 1).has_value());
}

TEST(ObsArgs, FaultPlanFlagRejectsMissingFile) {
  ObsArgs o;
  const char* argv[] = {"tool", "--fault-plan", "/nonexistent/plan.txt"};
  int i = 1;
  EXPECT_THROW((void)o.consume(3, const_cast<char**>(argv), i), ConfigError);
}

TEST(ObsArgs, ConsumesTheSamplingFlags) {
  const ObsArgs o = parse_all({"--sample", "4096,4096,16384", "--ckpt-dir",
                               "ckpts", "--warm-quantum", "262144"});
  EXPECT_TRUE(o.sampling.enabled);
  EXPECT_EQ(o.sampling.warmup_refs, 4096u);
  EXPECT_EQ(o.sampling.detail_refs, 4096u);
  EXPECT_EQ(o.sampling.period_refs, 16384u);
  EXPECT_EQ(o.sampling.warm_quantum, 262144u);
  EXPECT_EQ(o.sampling.checkpoint_dir, "ckpts");
}

// --ckpt-dir end to end: four sampled lu rows that differ only in a
// detailed-interval latency share one warmup, so the sweep writes one
// checkpoint, and checkpointing changes no row's result.
TEST(ObsArgs, CkptDirWritesOneCheckpointPerWarmGroup) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("csim_cli_args_ckpt_" +
       std::to_string(static_cast<unsigned long>(::getpid())));
  fs::remove_all(dir);
  const std::string dir_arg = dir.string();
  const auto run = [](const ObsArgs& o) {
    SweepRequest req;
    req.make_app = [] { return make_app("lu", ProblemScale::Test); };
    for (const Cycles extra : {0u, 50u, 100u, 150u}) {
      MachineSpec c =
          MachineSpecBuilder{}.procs(16).procs_per_cluster(4).cache_kb(4).build();
      c.latency.remote_clean += extra;
      req.configs.push_back(c);
    }
    o.apply(req);
    return run_sweep(req);
  };
  const SweepResult plain = run(parse_all({"--sample", "4096,4096,16384"}));
  const SweepResult ckpt = run(parse_all(
      {"--sample", "4096,4096,16384", "--ckpt-dir", dir_arg.c_str()}));
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir)) files.push_back(e.path());
  fs::remove_all(dir);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].extension(), ".csc");
  ASSERT_EQ(ckpt.rows.size(), plain.rows.size());
  for (std::size_t i = 0; i < ckpt.rows.size(); ++i) {
    ASSERT_TRUE(ckpt.rows[i].ok) << ckpt.rows[i].error;
    EXPECT_TRUE(ckpt.rows[i].sampled);
    EXPECT_EQ(obs::result_digest(ckpt.rows[i]),
              obs::result_digest(plain.rows[i]))
        << "row " << i;
  }
}

TEST(ObsArgs, SamplingFlagsValidateTheirCombinations) {
  // --ckpt-dir and --warm-quantum both modify sampled runs only, so alone
  // they would be silently dead flags; apply() rejects the combination.
  for (const std::vector<const char*>& args :
       {std::vector<const char*>{"--ckpt-dir", "ckpts"},
        std::vector<const char*>{"--warm-quantum", "65536"}}) {
    const ObsArgs o = parse_all(args);
    SweepRequest req;
    EXPECT_THROW(o.apply(req), ConfigError) << args[0];
  }
  {
    ObsArgs o;
    const char* argv[] = {"tool", "--sample", "4096,4096"};
    int i = 1;
    EXPECT_THROW((void)o.consume(3, const_cast<char**>(argv), i), ConfigError);
  }
  {
    ObsArgs o;
    const char* argv[] = {"tool", "--warm-quantum", "0"};
    int i = 1;
    EXPECT_THROW((void)o.consume(3, const_cast<char**>(argv), i), ConfigError);
  }
}

TEST(ObsArgs, ApplyInstallsThePolicyOnTheRequest) {
  ObsArgs o = parse_all({"--journal-dir", "j", "--retries", "2"});
  SweepRequest req;
  o.apply(req);
  EXPECT_EQ(req.policy.journal_dir, "j");
  EXPECT_EQ(req.policy.max_retries, 2u);
  EXPECT_EQ(req.policy.faults, nullptr);

  FaultSpec f;
  auto plan = std::make_shared<FaultPlan>();
  plan->add_wildcard(f);
  o.fault_plan = plan;
  o.apply(req);
  EXPECT_EQ(req.policy.faults, plan.get());
}

TEST(ObsArgs, ApplyRejectsResumeWithoutJournalDir) {
  const ObsArgs o = parse_all({"--resume"});
  SweepRequest req;
  EXPECT_THROW(o.apply(req), ConfigError);
}

TEST(ObsArgs, ObserverFactoryOnlyWhenObservabilityRequested) {
  EXPECT_FALSE(static_cast<bool>(ObsArgs{}.observer_factory(3)));
  ObsArgs traced;
  traced.trace_out = "t.json";
  EXPECT_TRUE(static_cast<bool>(traced.observer_factory(3)));
}

TEST(ObsArgs, UsageDocumentsEveryFlag) {
  const std::string u = ObsArgs::usage();
  for (const char* flag :
       {"--trace-out", "--metrics-interval", "--metrics-out", "--manifest",
        "--contention", "--contention-busy", "--journal-dir", "--resume",
        "--row-deadline", "--retries", "--fault-plan", "--sample",
        "--ckpt-dir", "--warm-quantum"}) {
    EXPECT_NE(u.find(flag), std::string::npos) << flag;
  }
}

// --- Row flags ---------------------------------------------------------------

/// Runs `args` through cli::consume_run_flag the way csim_cli does.
RunSpec parse_run(std::vector<const char*> args) {
  args.insert(args.begin(), "tool");
  RunSpec spec;
  const int argc = static_cast<int>(args.size());
  char** argv = const_cast<char**>(args.data());
  for (int i = 1; i < argc; ++i) {
    EXPECT_TRUE(cli::consume_run_flag(spec, argc, argv, i))
        << "unconsumed flag: " << argv[i];
  }
  return spec;
}

TEST(RunFlags, MatchTheJsonRequestWithTheSameFields) {
  const RunSpec flags = parse_run(
      {"--app", "fft", "--scale", "test", "--procs", "16", "--ppc", "2,8",
       "--cache", "4", "--assoc", "2", "--line", "32", "--style", "memory",
       "--quantum", "64", "--hit-costs"});
  const RunSpec request = RunSpec::from_json(json::parse(
      "{\"app\": \"fft\", \"scale\": \"test\", \"procs\": 16,"
      " \"ppc\": [2, 8], \"cache_kb\": 4, \"assoc\": 2, \"line_bytes\": 32,"
      " \"style\": \"memory\", \"quantum\": 64, \"hit_costs\": true}"));
  EXPECT_EQ(flags, request);
  EXPECT_EQ(parse_run({}), RunSpec::from_json(json::parse("{}")));
}

TEST(RunFlags, RejectEveryBadValue) {
  // Each of these once ran: a misspelt scale ran default scale, a misspelt
  // style the shared cache, "16k" 16 KB, and "-64" 2^32 - 64 processors.
  for (const auto& [flag, bad] :
       {std::pair{"--scale", "tset"}, std::pair{"--style", "memroy"},
        std::pair{"--cache", "16k"}, std::pair{"--procs", "-64"},
        std::pair{"--procs", "0"}, std::pair{"--procs", "4097"},
        std::pair{"--ppc", "1,,4"}, std::pair{"--ppc", ""},
        std::pair{"--app", "nosuchapp"}, std::pair{"--line", "0"},
        std::pair{"--quantum", "0"}, std::pair{"--assoc", "x"}}) {
    RunSpec spec;
    const char* argv[] = {"tool", flag, bad};
    int i = 1;
    EXPECT_THROW((void)cli::consume_run_flag(spec, 3, const_cast<char**>(argv), i),
                 ConfigError)
        << flag << ' ' << bad;
  }
  RunSpec spec;
  const char* argv[] = {"tool", "--procs"};  // missing value
  int i = 1;
  EXPECT_THROW((void)cli::consume_run_flag(spec, 2, const_cast<char**>(argv), i),
               ConfigError);
}

TEST(RunFlags, LeaveOtherFlagsAlone) {
  RunSpec spec;
  const char* argv[] = {"tool", "--csv", "--journal-dir", "j"};
  for (int i = 1; i < 4; ++i) {
    const int before = i;
    EXPECT_FALSE(cli::consume_run_flag(spec, 4, const_cast<char**>(argv), i));
    EXPECT_EQ(i, before);
  }
  EXPECT_EQ(spec, RunSpec{});
}

}  // namespace
}  // namespace csim
