// The sweep service core (src/report/service.hpp): request parsing rejects,
// the two-tier result cache, and the full request/response session — all
// in-process, no sockets (tools/csim_serve adds only plumbing).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/error.hpp"
#include "src/obs/manifest.hpp"
#include "src/report/json.hpp"
#include "src/report/journal.hpp"
#include "src/report/service.hpp"

namespace csim {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    dir_ = (fs::temp_directory_path() /
            ("csim_service_test_" + tag + "_" +
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

// --- request parsing --------------------------------------------------------

serve::ServiceRequest parse(const std::string& text) {
  return serve::parse_service_request(json::parse(text));
}

TEST(ServiceRequestParse, DefaultsMatchCsimCli) {
  const serve::ServiceRequest req = parse("{}");
  EXPECT_EQ(req.app, "ocean");
  EXPECT_EQ(req.scale, ProblemScale::Default);
  EXPECT_EQ(req.procs, 64u);
  EXPECT_EQ(req.ppcs, (std::vector<unsigned>{1, 2, 4, 8}));
  EXPECT_EQ(req.cache_kb, 0u);
  EXPECT_EQ(req.line_bytes, 64u);
  EXPECT_EQ(req.style, ClusterStyle::SharedCache);
  EXPECT_EQ(req.quantum, 32u);
  EXPECT_FALSE(req.hit_costs);
}

TEST(ServiceRequestParse, ParsesEveryField) {
  const serve::ServiceRequest req = parse(
      "{\"id\": \"r1\", \"app\": \"fft\", \"scale\": \"test\","
      " \"procs\": 16, \"ppc\": [2, 8], \"cache_kb\": 4, \"assoc\": 2,"
      " \"line_bytes\": 32, \"style\": \"memory\", \"quantum\": 64,"
      " \"hit_costs\": true, \"csv_out\": \"out.csv\"}");
  EXPECT_EQ(req.id, "r1");
  EXPECT_EQ(req.app, "fft");
  EXPECT_EQ(req.scale, ProblemScale::Test);
  EXPECT_EQ(req.procs, 16u);
  EXPECT_EQ(req.ppcs, (std::vector<unsigned>{2, 8}));
  EXPECT_EQ(req.cache_kb, 4u);
  EXPECT_EQ(req.assoc, 2u);
  EXPECT_EQ(req.line_bytes, 32u);
  EXPECT_EQ(req.style, ClusterStyle::SharedMemory);
  EXPECT_EQ(req.quantum, 64u);
  EXPECT_TRUE(req.hit_costs);
  EXPECT_EQ(req.csv_out, "out.csv");
}

TEST(ServiceRequestParse, RejectsBadRequests) {
  EXPECT_THROW((void)parse("{\"app\": \"no_such_app\"}"), ConfigError);
  EXPECT_THROW((void)parse("{\"scale\": \"huge\"}"), ConfigError);
  EXPECT_THROW((void)parse("{\"procs\": -4}"), ConfigError);
  EXPECT_THROW((void)parse("{\"procs\": 2.5}"), ConfigError);
  EXPECT_THROW((void)parse("{\"procs\": 0}"), ConfigError);
  EXPECT_THROW((void)parse("{\"ppc\": 4}"), ConfigError);       // not an array
  EXPECT_THROW((void)parse("{\"ppc\": []}"), ConfigError);      // empty
  EXPECT_THROW((void)parse("{\"ppc\": [-1]}"), ConfigError);    // negative
  EXPECT_THROW((void)parse("{\"style\": \"hybrid\"}"), ConfigError);
  EXPECT_THROW((void)parse("{\"typo_field\": 1}"), ConfigError);
  // Not request fields: every run uses the one sequential engine.
  EXPECT_THROW((void)parse("{\"parallel\": 4}"), ConfigError);
  EXPECT_THROW((void)parse("{\"par_horizon\": 60}"), ConfigError);
  EXPECT_THROW((void)parse("[1, 2]"), ConfigError);  // not an object
}

// --- result cache -----------------------------------------------------------

SimResult fake_result(unsigned ppc) {
  SimResult r;
  r.config.num_procs = 16;
  r.config.procs_per_cluster = ppc;
  r.app_name = "fft";
  r.scale = ProblemScale::Test;
  r.wall_time = 1000 + ppc;
  r.events = 42;
  r.host_seconds = 0.5;
  r.totals.reads = 10;
  r.per_proc.resize(16);
  r.per_cluster.resize(16 / ppc);
  return r;
}

TEST(ResultCache, MemoryTierRoundTrips) {
  serve::ResultCache cache;
  const SimResult r = fake_result(4);
  const std::uint64_t d = obs::config_digest(r.config, r.app_name, r.scale);
  EXPECT_FALSE(
      cache.lookup(d, r.config, "fft", ProblemScale::Test, nullptr));
  cache.insert(r, 2);
  const auto hit = cache.lookup(d, r.config, "fft", ProblemScale::Test,
                                nullptr);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->attempts, 2u);
  EXPECT_EQ(hit->result.wall_time, r.wall_time);
  EXPECT_EQ(obs::result_digest(hit->result), obs::result_digest(r));
}

TEST(ResultCache, FailedRowsAreNeverCached) {
  serve::ResultCache cache;
  SimResult r = fake_result(4);
  r.ok = false;
  cache.insert(r, 1);
  EXPECT_EQ(cache.memory_entries(), 0u);
}

TEST(ResultCache, CacheMaxEvictsLeastRecentlyUsed) {
  serve::ResultCache cache(2);  // two entries max
  EXPECT_EQ(cache.max_entries(), 2u);
  const SimResult r1 = fake_result(1);
  const SimResult r2 = fake_result(2);
  const SimResult r4 = fake_result(4);
  const auto digest = [](const SimResult& r) {
    return obs::config_digest(r.config, r.app_name, r.scale);
  };
  cache.insert(r1, 1);
  cache.insert(r2, 1);
  EXPECT_EQ(cache.memory_entries(), 2u);
  // Touch r1 so r2 is the LRU entry, then insert a third row.
  EXPECT_TRUE(cache.lookup(digest(r1), r1.config, "fft", ProblemScale::Test,
                           nullptr));
  cache.insert(r4, 1);
  EXPECT_EQ(cache.memory_entries(), 2u);
  EXPECT_TRUE(cache.lookup(digest(r1), r1.config, "fft", ProblemScale::Test,
                           nullptr));
  EXPECT_TRUE(cache.lookup(digest(r4), r4.config, "fft", ProblemScale::Test,
                           nullptr));
  EXPECT_FALSE(cache.lookup(digest(r2), r2.config, "fft", ProblemScale::Test,
                            nullptr));  // evicted
}

TEST(ResultCache, UnboundedByDefault) {
  serve::ResultCache cache;
  for (unsigned ppc : {1u, 2u, 4u, 8u}) cache.insert(fake_result(ppc), 1);
  EXPECT_EQ(cache.max_entries(), 0u);
  EXPECT_EQ(cache.memory_entries(), 4u);
}

// --- service session --------------------------------------------------------

/// Runs one line through a session, collecting the emitted response lines.
std::vector<std::string> run_line(serve::ServiceSession& session,
                                  const std::string& line,
                                  serve::LineAction* action = nullptr) {
  std::vector<std::string> out;
  const serve::LineAction a = session.handle_line(
      line, [&](const std::string& l) { out.push_back(l); });
  if (action != nullptr) *action = a;
  return out;
}

json::Value parse_line(const std::string& line) { return json::parse(line); }

std::string line_type(const json::Value& v) {
  const json::Value* t = v.find("type");
  return t != nullptr && t->is_string() ? t->as_string() : "";
}

constexpr const char* kSweep =
    "{\"id\": \"t\", \"app\": \"fft\", \"scale\": \"test\", \"procs\": 16,"
    " \"ppc\": [1, 2, 4], \"cache_kb\": 4}";

TEST(ServiceSession, SweepThenRepeatIsAllCacheHits) {
  const TempDir tmp("session");
  serve::ServiceSession session({tmp.path() + "/jdir", {}});

  const std::vector<std::string> first = run_line(session, kSweep);
  ASSERT_GE(first.size(), 4u);  // 3 rows + done
  std::size_t rows = 0;
  for (const std::string& l : first) {
    const json::Value v = parse_line(l);
    if (line_type(v) == "row") {
      ++rows;
      EXPECT_EQ(v.find("from_cache")->as_bool(), false);
      EXPECT_EQ(v.find("status")->as_string(), "ok");
      EXPECT_TRUE(v.find("result_digest") != nullptr);
    }
  }
  EXPECT_EQ(rows, 3u);
  const json::Value done = parse_line(first.back());
  ASSERT_EQ(line_type(done), "done");
  EXPECT_EQ(done.find("cache_hits")->as_number(), 0);
  EXPECT_EQ(done.find("failures")->as_number(), 0);
  EXPECT_EQ(done.find("rows_in_shard")->as_number(), 3);

  // Same request again: served entirely from the memory tier, same digests.
  const std::vector<std::string> second = run_line(session, kSweep);
  for (const std::string& l : second) {
    const json::Value v = parse_line(l);
    if (line_type(v) == "row") {
      EXPECT_EQ(v.find("from_cache")->as_bool(), true);
      EXPECT_EQ(v.find("tier")->as_string(), "memory");
    }
  }
  const json::Value done2 = parse_line(second.back());
  EXPECT_EQ(done2.find("cache_hits")->as_number(), 3);
  EXPECT_EQ(done2.find("memory_hits")->as_number(), 3);
  EXPECT_EQ(done2.find("sweep_digest")->as_string(),
            done.find("sweep_digest")->as_string());

  // A fresh session over the same journal dir: journal-tier hits.
  serve::ServiceSession fresh({tmp.path() + "/jdir", {}});
  const std::vector<std::string> third = run_line(fresh, kSweep);
  for (const std::string& l : third) {
    const json::Value v = parse_line(l);
    if (line_type(v) == "row") {
      EXPECT_EQ(v.find("from_cache")->as_bool(), true);
      EXPECT_EQ(v.find("tier")->as_string(), "journal");
    }
  }
  EXPECT_EQ(parse_line(third.back()).find("journal_hits")->as_number(), 3);
}

/// The `row` lines of a response, parsed.
std::vector<json::Value> row_lines(const std::vector<std::string>& out) {
  std::vector<json::Value> rows;
  for (const std::string& l : out) {
    json::Value v = parse_line(l);
    if (line_type(v) == "row") rows.push_back(std::move(v));
  }
  return rows;
}

// The cache's journal tier is run_sweep's resume inside the session: the
// next three tests drive it through ServiceSession.

TEST(ResultCache, JournalTierProbesAndPromotes) {
  const TempDir tmp("journal_tier");
  const std::string jdir = tmp.path() + "/jdir";
  {
    serve::ServiceSession writer({jdir, {}});
    run_line(writer, kSweep);
  }
  serve::ServiceSession session({jdir, {}});
  const std::vector<std::string> cold = run_line(session, kSweep);
  const std::vector<json::Value> cold_rows = row_lines(cold);
  ASSERT_EQ(cold_rows.size(), 3u);
  for (const json::Value& v : cold_rows) {
    EXPECT_EQ(v.find("from_cache")->as_bool(), true);
    EXPECT_EQ(v.find("tier")->as_string(), "journal");
  }
  EXPECT_EQ(cold.size(), 4u) << "no warning lines";
  EXPECT_EQ(parse_line(cold.back()).find("journal_hits")->as_number(), 3);
  // Promoted: the repeat is served from memory.
  EXPECT_EQ(session.cache().memory_entries(), 3u);
  const std::vector<std::string> warm = run_line(session, kSweep);
  for (const json::Value& v : row_lines(warm)) {
    EXPECT_EQ(v.find("tier")->as_string(), "memory");
  }
  EXPECT_EQ(parse_line(warm.back()).find("memory_hits")->as_number(), 3);
}

TEST(ResultCache, EmptyJournalFileIsAWarnedMiss) {
  // A crash between creating a record file and writing it leaves it empty:
  // the row re-simulates with a warning, and its record is rewritten.
  const TempDir tmp("empty_file");
  const serve::ServiceRequest req = parse(kSweep);
  const std::uint64_t d =
      obs::config_digest(req.configs()[0], "fft", ProblemScale::Test);
  const std::string path = journal_record_path(tmp.path(), d);
  { std::ofstream os(path); }
  serve::ServiceSession session({tmp.path(), {}});
  const std::vector<std::string> out = run_line(session, kSweep);
  std::size_t warnings = 0;
  for (const std::string& l : out) {
    const json::Value v = parse_line(l);
    if (line_type(v) != "warning") continue;
    ++warnings;
    EXPECT_NE(v.find("message")->as_string().find("empty record file"),
              std::string::npos);
  }
  EXPECT_EQ(warnings, 1u);
  for (const json::Value& v : row_lines(out)) {
    EXPECT_EQ(v.find("from_cache")->as_bool(), false);
  }
  const json::Value done = parse_line(out.back());
  EXPECT_EQ(done.find("cache_hits")->as_number(), 0);
  EXPECT_EQ(done.find("failures")->as_number(), 0);
  EXPECT_GT(fs::file_size(path), 0u);
}

TEST(ResultCache, EvictedRowsStillServedFromJournal) {
  // With a journal directory behind the memory tier, the LRU bound trades a
  // file probe, never a re-simulation: rows evicted from the one-entry
  // memory tier come back as journal hits.
  const TempDir tmp("evict_journal");
  serve::ServiceSession session({tmp.path(), {}, 1});
  const std::vector<std::string> first = run_line(session, kSweep);
  EXPECT_EQ(session.cache().memory_entries(), 1u);
  const std::vector<std::string> second = run_line(session, kSweep);
  const json::Value done1 = parse_line(first.back());
  const json::Value done2 = parse_line(second.back());
  EXPECT_EQ(done2.find("memory_hits")->as_number(), 1);
  EXPECT_EQ(done2.find("journal_hits")->as_number(), 2);
  EXPECT_EQ(done2.find("failures")->as_number(), 0);
  EXPECT_EQ(done2.find("sweep_digest")->as_string(),
            done1.find("sweep_digest")->as_string());
  EXPECT_EQ(session.cache().memory_entries(), 1u);
}

TEST(ServiceSession, CsvArtifactIsByteIdenticalAcrossCacheTiers) {
  const TempDir tmp("csv");
  const std::string req = std::string(kSweep).insert(
      1, "\"csv_out\": \"" + tmp.path() + "/out1.csv\", ");
  const std::string req2 = std::string(kSweep).insert(
      1, "\"csv_out\": \"" + tmp.path() + "/out2.csv\", ");
  serve::ServiceSession session({tmp.path() + "/jdir", {}});
  run_line(session, req);   // simulated
  run_line(session, req2);  // all cache hits
  const auto slurp = [](const std::string& p) {
    std::ifstream is(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
  };
  const std::string a = slurp(tmp.path() + "/out1.csv");
  const std::string b = slurp(tmp.path() + "/out2.csv");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(ServiceSession, RowLinesStreamBeforeDone) {
  serve::ServiceSession session({"", {}});
  const std::vector<std::string> out = run_line(session, kSweep);
  ASSERT_FALSE(out.empty());
  for (std::size_t i = 0; i + 1 < out.size(); ++i) {
    EXPECT_EQ(line_type(parse_line(out[i])), "row");
  }
  EXPECT_EQ(line_type(parse_line(out.back())), "done");
}

TEST(ServiceSession, PingShutdownAndBlankFrames) {
  serve::ServiceSession session({"", {}});
  serve::LineAction action{};
  EXPECT_TRUE(run_line(session, "", &action).empty());
  EXPECT_EQ(action, serve::LineAction::Continue);
  EXPECT_TRUE(run_line(session, "   \t", &action).empty());

  const std::vector<std::string> pong =
      run_line(session, "{\"type\": \"ping\", \"id\": \"p\"}", &action);
  ASSERT_EQ(pong.size(), 1u);
  EXPECT_EQ(line_type(parse_line(pong[0])), "pong");
  EXPECT_EQ(parse_line(pong[0]).find("id")->as_string(), "p");
  EXPECT_EQ(action, serve::LineAction::Continue);

  const std::vector<std::string> bye =
      run_line(session, "{\"type\": \"shutdown\"}", &action);
  ASSERT_EQ(bye.size(), 1u);
  EXPECT_EQ(line_type(parse_line(bye[0])), "bye");
  EXPECT_EQ(action, serve::LineAction::Shutdown);
}

TEST(ServiceSession, BadInputIsAnErrorLineAndTheSessionSurvives) {
  serve::ServiceSession session({"", {}});
  for (const char* bad :
       {"{not json", "{\"app\": \"no_such_app\"}", "{\"procs\": -1}",
        "{\"type\": \"frobnicate\"}", "\"just a string\""}) {
    serve::LineAction action{};
    const std::vector<std::string> out = run_line(session, bad, &action);
    ASSERT_EQ(out.size(), 1u) << bad;
    EXPECT_EQ(line_type(parse_line(out[0])), "error") << bad;
    EXPECT_EQ(action, serve::LineAction::Continue);
  }
  // Still serves real requests afterwards.
  const std::vector<std::string> ok = run_line(session, kSweep);
  EXPECT_EQ(line_type(parse_line(ok.back())), "done");
}

TEST(ServiceSession, FailedRowsAreReportedNotCached) {
  serve::ServiceSession session({"", {}});
  // ppc 3 does not divide 16 procs: the row fails inside run_sweep.
  const std::vector<std::string> out = run_line(
      session,
      "{\"app\": \"fft\", \"scale\": \"test\", \"procs\": 16, \"ppc\": [3]}");
  const json::Value row = parse_line(out[0]);
  ASSERT_EQ(line_type(row), "row");
  EXPECT_EQ(row.find("status")->as_string(), "failed");
  EXPECT_TRUE(row.find("error_kind") != nullptr);
  EXPECT_EQ(parse_line(out.back()).find("failures")->as_number(), 1);
  EXPECT_EQ(session.cache().memory_entries(), 0u);
}

TEST(ServiceSession, ShardedSessionServesOnlyItsRows) {
  serve::ServiceSession shard0({"", serve::parse_shard("0/2")});
  serve::ServiceSession shard1({"", serve::parse_shard("1/2")});
  const std::vector<std::string> a = run_line(shard0, kSweep);
  const std::vector<std::string> b = run_line(shard1, kSweep);
  const json::Value da = parse_line(a.back());
  const json::Value db = parse_line(b.back());
  EXPECT_EQ(da.find("rows_total")->as_number(), 3);
  EXPECT_EQ(db.find("rows_total")->as_number(), 3);
  EXPECT_EQ(da.find("rows_in_shard")->as_number() +
                db.find("rows_in_shard")->as_number(),
            3);
  EXPECT_EQ(da.find("shard")->as_string(), "0/2");
  // Global indices are disjoint across the two shards.
  std::vector<double> indices;
  for (const auto& lines : {a, b}) {
    for (const std::string& l : lines) {
      const json::Value v = parse_line(l);
      if (line_type(v) == "row") {
        indices.push_back(v.find("index")->as_number());
      }
    }
  }
  std::sort(indices.begin(), indices.end());
  EXPECT_TRUE(std::adjacent_find(indices.begin(), indices.end()) ==
              indices.end());
}

}  // namespace
}  // namespace csim
