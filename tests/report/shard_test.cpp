// Sharding algebra (src/report/service.hpp): the k/N spec parser, the pure
// digest partition, shard selection over real sweep configs, the shard
// manifest codec, and the merge validator that refuses to recombine
// artifacts that are not disjoint, complete, and schema-identical.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/app.hpp"
#include "src/core/error.hpp"
#include "src/obs/manifest.hpp"
#include "src/report/experiment.hpp"
#include "src/report/service.hpp"

namespace csim {
namespace {

namespace fs = std::filesystem;

using serve::ShardManifest;
using serve::ShardRowRef;
using serve::ShardSpec;

/// A fresh per-test scratch directory under the system temp dir.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    dir_ = (fs::temp_directory_path() /
            ("csim_shard_test_" + tag + "_" +
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

// --- parse_shard ------------------------------------------------------------

TEST(ShardSpecParse, AcceptsValidSpecs) {
  const ShardSpec a = serve::parse_shard("0/1");
  EXPECT_EQ(a.index, 0u);
  EXPECT_EQ(a.count, 1u);
  EXPECT_FALSE(a.active());
  const ShardSpec b = serve::parse_shard("2/3");
  EXPECT_EQ(b.index, 2u);
  EXPECT_EQ(b.count, 3u);
  EXPECT_TRUE(b.active());
  EXPECT_EQ(b.label(), "2/3");
}

TEST(ShardSpecParse, RejectsMalformedSpecs) {
  EXPECT_THROW((void)serve::parse_shard("3/3"), ConfigError);   // k == N
  EXPECT_THROW((void)serve::parse_shard("4/3"), ConfigError);   // k > N
  EXPECT_THROW((void)serve::parse_shard("1/0"), ConfigError);   // N == 0
  EXPECT_THROW((void)serve::parse_shard("1"), ConfigError);     // no slash
  EXPECT_THROW((void)serve::parse_shard("a/b"), ConfigError);   // not numbers
  EXPECT_THROW((void)serve::parse_shard("1/"), ConfigError);    // empty N
  EXPECT_THROW((void)serve::parse_shard("/2"), ConfigError);    // empty k
  EXPECT_THROW((void)serve::parse_shard("-1/2"), ConfigError);  // negative
  EXPECT_THROW((void)serve::parse_shard("0/9999"), ConfigError);  // > 4096
  EXPECT_THROW((void)serve::parse_shard(""), ConfigError);
}

// --- shard_of ---------------------------------------------------------------

TEST(ShardPartition, EveryDigestLandsInExactlyOneShard) {
  // Synthetic digests with FNV-like spread; the partition is a pure function,
  // so one pass per N suffices to prove disjointness + completeness.
  std::vector<std::uint64_t> digests;
  std::uint64_t d = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 500; ++i) {
    d = (d ^ static_cast<std::uint64_t>(i)) * 0x100000001b3ULL;
    digests.push_back(d);
  }
  for (unsigned n : {1u, 2u, 3u, 5u, 8u}) {
    std::size_t covered = 0;
    for (std::uint64_t digest : digests) {
      unsigned owners = 0;
      for (unsigned k = 0; k < n; ++k) {
        owners += serve::shard_of(digest, n) == k;
      }
      EXPECT_EQ(owners, 1u) << "digest " << digest << " N " << n;
      covered += owners;
    }
    EXPECT_EQ(covered, digests.size());
  }
}

TEST(ShardPartition, IsDeterministic) {
  for (std::uint64_t d : {0ULL, 1ULL, 0xdeadbeefULL, ~0ULL}) {
    EXPECT_EQ(serve::shard_of(d, 3), serve::shard_of(d, 3));
    EXPECT_EQ(serve::shard_of(d, 1), 0u);
  }
}

// --- select_shard -----------------------------------------------------------

std::vector<MachineSpec> sweep_configs(const std::vector<unsigned>& ppcs) {
  std::vector<MachineSpec> configs;
  for (unsigned ppc : ppcs) {
    configs.push_back(MachineSpecBuilder{}
                          .procs(16)
                          .procs_per_cluster(ppc)
                          .cache_kb(4)
                          .build());
  }
  return configs;
}

TEST(ShardSelect, ShardsPartitionTheSweep) {
  const std::vector<MachineSpec> configs =
      sweep_configs({1, 2, 4, 8, 16, 1, 2, 4});  // duplicates share digests
  std::set<std::size_t> seen;
  std::size_t kept = 0;
  for (unsigned k = 0; k < 3; ++k) {
    const serve::ShardSelection sel =
        serve::select_shard(configs, "fft", ProblemScale::Test, {k, 3});
    EXPECT_EQ(sel.rows_total, configs.size());
    ASSERT_EQ(sel.indices.size(), sel.digests.size());
    for (std::size_t i = 0; i < sel.indices.size(); ++i) {
      EXPECT_TRUE(seen.insert(sel.indices[i]).second)
          << "row " << sel.indices[i] << " claimed twice";
      EXPECT_EQ(serve::shard_of(sel.digests[i], 3), k);
      EXPECT_EQ(sel.digests[i],
                obs::config_digest(configs[sel.indices[i]], "fft",
                                   ProblemScale::Test));
    }
    kept += sel.indices.size();
  }
  EXPECT_EQ(kept, configs.size());
}

TEST(ShardSelect, SingleShardKeepsEverything) {
  const std::vector<MachineSpec> configs = sweep_configs({1, 2, 4});
  const serve::ShardSelection sel =
      serve::select_shard(configs, "fft", ProblemScale::Test, {0, 1});
  EXPECT_EQ(sel.indices.size(), configs.size());
}

TEST(ShardSelect, EmptyShardIsValid) {
  // One row, many shards: N-1 of them are legitimately empty.
  const std::vector<MachineSpec> configs = sweep_configs({4});
  const std::uint64_t d =
      obs::config_digest(configs[0], "fft", ProblemScale::Test);
  const unsigned owner = serve::shard_of(d, 7);
  for (unsigned k = 0; k < 7; ++k) {
    const serve::ShardSelection sel =
        serve::select_shard(configs, "fft", ProblemScale::Test, {k, 7});
    EXPECT_EQ(sel.indices.size(), k == owner ? 1u : 0u);
    EXPECT_EQ(sel.rows_total, 1u);
  }
}

// --- shard manifest codec ---------------------------------------------------

ShardManifest sample_manifest() {
  ShardManifest m;
  m.shard = {1, 3};
  m.rows_total = 5;
  m.csv_path = "s1.csv";
  m.rows.push_back({0, 0x0102030405060708ULL, 0});
  m.rows.push_back({3, 0x1122334455667788ULL, -1});  // failed row
  return m;
}

TEST(ShardManifestCodec, RoundTrips) {
  const ShardManifest m = sample_manifest();
  const ShardManifest back =
      serve::parse_shard_manifest(serve::write_shard_manifest(m), "mem");
  EXPECT_EQ(back.shard.index, m.shard.index);
  EXPECT_EQ(back.shard.count, m.shard.count);
  EXPECT_EQ(back.rows_total, m.rows_total);
  EXPECT_EQ(back.csv_path, m.csv_path);
  ASSERT_EQ(back.rows.size(), m.rows.size());
  for (std::size_t i = 0; i < m.rows.size(); ++i) {
    EXPECT_EQ(back.rows[i].index, m.rows[i].index);
    EXPECT_EQ(back.rows[i].digest, m.rows[i].digest);
    EXPECT_EQ(back.rows[i].csv_line, m.rows[i].csv_line);
  }
}

TEST(ShardManifestCodec, RejectsWrongSchemaAndGarbage) {
  EXPECT_THROW((void)serve::parse_shard_manifest("not json", "mem"),
               ConfigError);
  EXPECT_THROW((void)serve::parse_shard_manifest("{\"schema\": \"x\"}", "mem"),
               ConfigError);
  std::string doc = serve::write_shard_manifest(sample_manifest());
  doc.replace(doc.find("csim.shard/1"), 12, "csim.shard/9");
  EXPECT_THROW((void)serve::parse_shard_manifest(doc, "mem"), ConfigError);
}

// --- merge ------------------------------------------------------------------

/// Digests whose low bits place them in a known shard of 2: shard_of is a
/// plain modulus, so even digests go to shard 0 and odd to shard 1.
constexpr std::uint64_t kEven1 = 0xa0;
constexpr std::uint64_t kEven2 = 0xb2;
constexpr std::uint64_t kOdd1 = 0xc1;

std::vector<ShardManifest> two_shards() {
  ShardManifest s0;
  s0.shard = {0, 2};
  s0.rows_total = 3;
  s0.csv_path = "s0.csv";
  s0.rows.push_back({0, kEven1, 0});
  s0.rows.push_back({2, kEven2, 1});
  ShardManifest s1;
  s1.shard = {1, 2};
  s1.rows_total = 3;
  s1.csv_path = "s1.csv";
  s1.rows.push_back({1, kOdd1, 0});
  return {s0, s1};
}

TEST(ShardMerge, ReassemblesGlobalOrder) {
  const std::string merged = serve::merge_shard_csvs(
      two_shards(), {"h\nrow0\nrow2\n", "h\nrow1\n"});
  EXPECT_EQ(merged, "h\nrow0\nrow1\nrow2\n");
}

TEST(ShardMerge, SkipsFailedRowsLikeWriteCsv) {
  std::vector<ShardManifest> shards = two_shards();
  shards[1].rows[0].csv_line = -1;  // row 1 failed on shard 1
  const std::string merged =
      serve::merge_shard_csvs(shards, {"h\nrow0\nrow2\n", "h\n"});
  EXPECT_EQ(merged, "h\nrow0\nrow2\n");
}

TEST(ShardMerge, RejectsDuplicateShard) {
  std::vector<ShardManifest> shards = two_shards();
  shards[1] = shards[0];
  EXPECT_THROW(
      (void)serve::merge_shard_csvs(shards, {"h\nrow0\nrow2\n", "h\nrow0\nrow2\n"}),
      ConfigError);
}

TEST(ShardMerge, RejectsMissingShard) {
  std::vector<ShardManifest> shards = {two_shards()[0]};
  EXPECT_THROW((void)serve::merge_shard_csvs(shards, {"h\nrow0\nrow2\n"}),
               ConfigError);
}

TEST(ShardMerge, RejectsHeaderMismatch) {
  EXPECT_THROW((void)serve::merge_shard_csvs(
                   two_shards(), {"h\nrow0\nrow2\n", "DIFFERENT\nrow1\n"}),
               ConfigError);
}

TEST(ShardMerge, RejectsDigestInWrongShard) {
  std::vector<ShardManifest> shards = two_shards();
  shards[1].rows[0].digest = kEven1 + 2;  // even: belongs to shard 0
  EXPECT_THROW(
      (void)serve::merge_shard_csvs(shards, {"h\nrow0\nrow2\n", "h\nrow1\n"}),
      ConfigError);
}

TEST(ShardMerge, RejectsOverlappingDigest) {
  std::vector<ShardManifest> shards = two_shards();
  shards[0].rows[1].digest = kEven1;  // same digest twice in shard 0
  EXPECT_THROW(
      (void)serve::merge_shard_csvs(shards, {"h\nrow0\nrow2\n", "h\nrow1\n"}),
      ConfigError);
}

TEST(ShardMerge, RejectsRowIndexClaimedTwice) {
  std::vector<ShardManifest> shards = two_shards();
  shards[1].rows[0].index = 0;  // shard 0 already owns global row 0
  EXPECT_THROW(
      (void)serve::merge_shard_csvs(shards, {"h\nrow0\nrow2\n", "h\nrow1\n"}),
      ConfigError);
}

TEST(ShardMerge, RejectsUncoveredRowIndex) {
  std::vector<ShardManifest> shards = two_shards();
  shards[0].rows_total = 4;
  shards[1].rows_total = 4;  // row 3 exists but no shard claims it
  EXPECT_THROW(
      (void)serve::merge_shard_csvs(shards, {"h\nrow0\nrow2\n", "h\nrow1\n"}),
      ConfigError);
}

TEST(ShardMerge, RejectsBadCsvLineReferences) {
  std::vector<ShardManifest> shards = two_shards();
  shards[0].rows[1].csv_line = 7;  // beyond the CSV's data lines
  EXPECT_THROW(
      (void)serve::merge_shard_csvs(shards, {"h\nrow0\nrow2\n", "h\nrow1\n"}),
      ConfigError);
  shards = two_shards();
  shards[0].rows[1].csv_line = 0;  // line 0 referenced twice, line 1 orphaned
  EXPECT_THROW(
      (void)serve::merge_shard_csvs(shards, {"h\nrow0\nrow2\n", "h\nrow1\n"}),
      ConfigError);
}

// --- end-to-end: shard + merge == unsharded ---------------------------------

TEST(ShardMerge, ThreeWayShardMergeIsByteExact) {
  // The acceptance criterion in miniature: shard a real sweep three ways,
  // build each shard's artifacts exactly as csim_cli --shard-out does, merge,
  // and demand the bytes of the unsharded CSV. The runs share a journal —
  // that is what makes even the host-timing columns (wall_seconds,
  // sim_refs_per_sec) bit-exact across processes; the deterministic columns
  // need no help (docs/SERVICE.md).
  const TempDir tmp("merge_e2e");
  SweepRequest base;
  base.make_app = [] { return make_app("fft", ProblemScale::Test); };
  for (unsigned ppc : {1u, 2u, 4u, 8u}) {
    base.configs.push_back(
        MachineSpecBuilder{}.procs(16).procs_per_cluster(ppc).cache_kb(4).build());
  }
  base.policy.journal_dir = tmp.path();
  const SweepResult golden = run_sweep(base);
  std::ostringstream golden_csv;
  write_csv(golden_csv, golden);

  std::vector<ShardManifest> manifests;
  std::vector<std::string> csvs;
  for (unsigned k = 0; k < 3; ++k) {
    const serve::ShardSelection sel = serve::select_shard(
        base.configs, "fft", ProblemScale::Test, {k, 3});
    SweepRequest req;
    req.make_app = base.make_app;
    for (std::size_t i : sel.indices) req.configs.push_back(base.configs[i]);
    req.policy.journal_dir = tmp.path();
    req.policy.resume = true;
    const SweepResult part = run_sweep(req);
    std::ostringstream csv;
    write_csv(csv, part);
    ShardManifest m;
    m.shard = {k, 3};
    m.rows_total = sel.rows_total;
    m.csv_path = "s" + std::to_string(k) + ".csv";
    long line = 0;
    for (std::size_t j = 0; j < part.rows.size(); ++j) {
      m.rows.push_back(
          {sel.indices[j], sel.digests[j], part.rows[j].ok ? line++ : -1});
    }
    manifests.push_back(std::move(m));
    csvs.push_back(csv.str());
  }
  EXPECT_EQ(serve::merge_shard_csvs(manifests, csvs), golden_csv.str());
}

}  // namespace
}  // namespace csim
