// Run-manifest tests: digest stability across identical runs (the
// determinism-suite extension), digest sensitivity to what actually changed,
// host-time exclusion, and manifest JSON structure.
#include "src/obs/manifest.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/apps/app.hpp"
#include "src/core/simulator.hpp"
#include "src/obs/build_info.hpp"
#include "src/report/experiment.hpp"
#include "tests/obs/json_checker.hpp"

namespace csim {
namespace {

SimResult run_fft(unsigned ppc, ClusterStyle style) {
  auto app = make_app("fft", ProblemScale::Test);
  MachineSpec cfg = paper_machine(ppc, 16 * 1024);
  cfg.cluster_style = style;
  return simulate(*app, cfg);
}

TEST(RunManifest, DigestStableAcrossIdenticalRuns) {
  const SimResult a = run_fft(8, ClusterStyle::SharedCache);
  const SimResult b = run_fft(8, ClusterStyle::SharedCache);
  EXPECT_EQ(obs::result_digest(a), obs::result_digest(b));
  EXPECT_EQ(obs::sweep_digest({a}), obs::sweep_digest({b}));
}

TEST(RunManifest, DigestIgnoresHostTime) {
  SimResult a = run_fft(8, ClusterStyle::SharedCache);
  SimResult b = a;
  b.host_seconds = a.host_seconds + 123.0;
  EXPECT_EQ(obs::result_digest(a), obs::result_digest(b));
}

TEST(RunManifest, DigestDiscriminatesConfigAndResults) {
  const SimResult base = run_fft(8, ClusterStyle::SharedCache);
  EXPECT_NE(obs::result_digest(base),
            obs::result_digest(run_fft(1, ClusterStyle::SharedCache)));
  EXPECT_NE(obs::result_digest(base),
            obs::result_digest(run_fft(8, ClusterStyle::SharedMemory)));
  SimResult tweaked = base;
  tweaked.wall_time += 1;
  EXPECT_NE(obs::result_digest(base), obs::result_digest(tweaked));
  tweaked = base;
  tweaked.totals.read_misses += 1;
  EXPECT_NE(obs::result_digest(base), obs::result_digest(tweaked));
}

TEST(RunManifest, FailedRowsHashErrorKind) {
  SimResult failed;
  failed.ok = false;
  failed.app_name = "fft";
  failed.error_kind = "deadlock";
  SimResult other = failed;
  other.error_kind = "livelock";
  EXPECT_NE(obs::result_digest(failed), obs::result_digest(other));
}

TEST(RunManifest, DigestHexIs16LowercaseDigits) {
  EXPECT_EQ(obs::digest_hex(0), "0000000000000000");
  EXPECT_EQ(obs::digest_hex(0xDEADBEEFCAFEF00DULL), "deadbeefcafef00d");
}

/// A one-row sweep as run_sweep returns it: the row and its outcome.
SweepResult one_row_sweep(const SimResult& r, const RowOutcome& outcome) {
  SweepResult sweep;
  sweep.rows = {r};
  sweep.outcomes = {outcome};
  return sweep;
}

TEST(RunManifest, ManifestJsonIsByteStableAndParses) {
  const SimResult a = run_fft(1, ClusterStyle::SharedCache);
  SimResult b = a;
  b.host_seconds = a.host_seconds * 2 + 1;  // host time may always differ
  const RowOutcome outcome{RowOutcome::Status::Ok, 2, /*from_journal=*/true,
                           0xabcULL};
  obs::SweepProvenance prov;
  prov.shard_index = 1;
  prov.shard_count = 3;
  prov.rows_total = 7;
  prov.cache_hits = 1;

  std::ostringstream os1, os2;
  obs::write_run_manifest(os1, "test_tool", one_row_sweep(a, outcome),
                          1700000000, prov);
  obs::write_run_manifest(os2, "test_tool", one_row_sweep(b, outcome),
                          1700000000, prov);
  // Identical apart from host_seconds: strip that line and compare.
  std::string s1 = os1.str(), s2 = os2.str();
  const auto strip_host = [](std::string& s) {
    const std::size_t k = s.find("\"host_seconds\": ");
    ASSERT_NE(k, std::string::npos);
    const std::size_t comma = s.find(',', k);
    s.erase(k, comma - k);
  };
  strip_host(s1);
  strip_host(s2);
  EXPECT_EQ(s1, s2) << "manifest must be byte-stable modulo host time";

  const testjson::Value doc = testjson::parse(os1.str());
  EXPECT_EQ(doc.at("schema").str, "csim.run_manifest/5");
  EXPECT_EQ(doc.at("tool").str, "test_tool");
  EXPECT_EQ(doc.at("git").str, std::string(obs::git_describe()));
  EXPECT_EQ(doc.at("generated_unix").number, 1700000000.0);
  EXPECT_EQ(doc.at("shard").at("index").number, 1.0);
  EXPECT_EQ(doc.at("shard").at("count").number, 3.0);
  EXPECT_EQ(doc.at("shard").at("rows_total").number, 7.0);
  EXPECT_EQ(doc.at("cache_hits").number, 1.0);
  EXPECT_FALSE(doc.has("journal_warnings"));
  ASSERT_EQ(doc.at("rows").array.size(), 1u);
  const testjson::Value& row = doc.at("rows").array[0];
  EXPECT_EQ(row.at("app").str, "fft");
  EXPECT_TRUE(row.at("ok").boolean);
  EXPECT_EQ(row.at("wall_time").number, static_cast<double>(a.wall_time));
  EXPECT_EQ(row.at("digest").str, obs::digest_hex(obs::result_digest(a)));
  EXPECT_EQ(row.at("config").at("ppc").number, 1.0);
  const testjson::Value& oc = row.at("outcome");
  EXPECT_EQ(oc.at("status").str, "ok");
  EXPECT_EQ(oc.at("attempts").number, 2.0);
  EXPECT_TRUE(oc.at("from_journal").boolean);
  EXPECT_EQ(oc.at("config_digest").str, "0000000000000abc");
  EXPECT_EQ(doc.at("sweep_digest").str,
            obs::digest_hex(obs::sweep_digest({a})));
}

TEST(RunManifest, FailedRowCarriesErrorKindInsteadOfStats) {
  SimResult failed;
  failed.ok = false;
  failed.app_name = "bad\"app";  // exercises JSON escaping too
  failed.error_kind = "protocol";
  SweepResult sweep =
      one_row_sweep(failed, RowOutcome{RowOutcome::Status::Failed, 3});
  sweep.journal_warnings = {"journal: x.csj: checksum mismatch"};
  obs::SweepProvenance prov;
  prov.rows_total = 1;  // unsharded: shard 0/1 over every row
  std::ostringstream os;
  obs::write_run_manifest(os, "t", sweep, 0, prov);
  const testjson::Value doc = testjson::parse(os.str());
  EXPECT_EQ(doc.at("shard").at("index").number, 0.0);
  EXPECT_EQ(doc.at("shard").at("count").number, 1.0);
  EXPECT_EQ(doc.at("shard").at("rows_total").number, 1.0);
  EXPECT_EQ(doc.at("cache_hits").number, 0.0);
  ASSERT_EQ(doc.at("journal_warnings").array.size(), 1u);
  EXPECT_EQ(doc.at("journal_warnings").array[0].str,
            "journal: x.csj: checksum mismatch");
  const testjson::Value& row = doc.at("rows").array[0];
  EXPECT_FALSE(row.at("ok").boolean);
  EXPECT_EQ(row.at("app").str, "bad\"app");
  EXPECT_EQ(row.at("error_kind").str, "protocol");
  EXPECT_FALSE(row.has("wall_time"));
  EXPECT_EQ(row.at("outcome").at("status").str, "failed");
  EXPECT_EQ(row.at("outcome").at("attempts").number, 3.0);
}

TEST(RunManifest, WriteFileRejectsBadPath) {
  EXPECT_THROW(obs::write_run_manifest_file("/nonexistent/dir/m.json", "t",
                                            SweepResult{},
                                            obs::SweepProvenance{}),
               std::runtime_error);
}

}  // namespace
}  // namespace csim
