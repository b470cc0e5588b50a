// The sweep journal's record codec and its hardened reader: every corruption
// shape a crash (or the fault injector) can produce must degrade into a
// warning + re-simulation, never a wrong or missing answer.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "src/core/record_file.hpp"
#include "src/obs/manifest.hpp"
#include "src/report/journal.hpp"

namespace csim {
namespace {

namespace fs = std::filesystem;

/// A fresh per-test scratch directory under the system temp dir.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    dir_ = (fs::temp_directory_path() /
            ("csim_journal_test_" + tag + "_" +
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

/// A populated record with every field exercised (non-trivial vectors).
JournalRecord sample_record(std::uint64_t salt = 0) {
  JournalRecord rec;
  rec.config_digest = 0x1234'5678'9abc'def0ULL + salt;
  rec.result_digest = 0x0fed'cba9'8765'4321ULL ^ salt;
  rec.app_name = "fft";
  rec.scale = ProblemScale::Test;
  rec.wall_time = 14595 + salt;
  rec.events = 123456;
  rec.host_seconds = 0.25;
  rec.attempts = 2;
  rec.totals.reads = 15872;
  rec.totals.writes = 15872;
  rec.totals.read_misses = 512;
  rec.totals.by_class[0] = 7;
  rec.per_proc.resize(4);
  rec.per_proc[1].cpu = 1000;
  rec.per_proc[2].sync = 99;
  rec.per_cluster.resize(2);
  rec.per_cluster[0].invalidations = 3;
  return rec;
}

void expect_equal(const JournalRecord& a, const JournalRecord& b) {
  EXPECT_EQ(a.config_digest, b.config_digest);
  EXPECT_EQ(a.result_digest, b.result_digest);
  EXPECT_EQ(a.app_name, b.app_name);
  EXPECT_EQ(a.scale, b.scale);
  EXPECT_EQ(a.wall_time, b.wall_time);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.host_seconds, b.host_seconds);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.totals, b.totals);
  ASSERT_EQ(a.per_proc.size(), b.per_proc.size());
  for (std::size_t i = 0; i < a.per_proc.size(); ++i) {
    EXPECT_EQ(a.per_proc[i], b.per_proc[i]) << "per_proc " << i;
  }
  ASSERT_EQ(a.per_cluster.size(), b.per_cluster.size());
  for (std::size_t i = 0; i < a.per_cluster.size(); ++i) {
    EXPECT_EQ(a.per_cluster[i], b.per_cluster[i]) << "per_cluster " << i;
  }
}

/// Decodes `bytes` as one record, failing the test on rejection.
JournalRecord decode_ok(const std::string& bytes) {
  std::string why;
  std::optional<JournalRecord> rec = decode_journal_record(bytes, why);
  EXPECT_TRUE(rec.has_value()) << why;
  return rec.value_or(JournalRecord{});
}

/// Expects `bytes` to be rejected with a reason containing `what`.
void expect_rejected(std::string_view bytes, const std::string& what) {
  std::string why;
  EXPECT_FALSE(decode_journal_record(bytes, why).has_value());
  EXPECT_NE(why.find(what), std::string::npos) << why;
}

TEST(JournalCodec, RoundTripsEveryField) {
  const JournalRecord rec = sample_record();
  expect_equal(decode_ok(encode_journal_record(rec)), rec);
}

// The on-disk bytes, not just the round trip: journals written by earlier
// builds must stay readable, so an encoder change that the decoder mirrors
// must still fail here.
TEST(JournalCodec, EncodedBytesArePinned) {
  const std::string bytes = encode_journal_record(sample_record());
  EXPECT_EQ(bytes.size(), 803u);
  EXPECT_EQ(fnv1a(bytes), 0xead17eba70972e07ULL);
}

TEST(JournalCodec, Version1RecordsStillDecode) {
  // A version-1 record is the version-2 payload without the trailing
  // sampling provenance (sampled u8, coverage f64, detailed_refs u64).
  const std::string v2 = encode_journal_record(sample_record());
  const std::string_view payload =
      std::string_view(v2).substr(21, v2.size() - 21 - 17);
  RecordWriter v1;
  v1.out = "CSJL";
  v1.u8(1);
  v1.u64(payload.size());
  v1.u64(fnv1a(payload));
  v1.out.append(payload);
  const JournalRecord rec = decode_ok(v1.out);
  expect_equal(rec, sample_record());
  EXPECT_FALSE(rec.sampled);
}

// --- Corruption shapes ------------------------------------------------------

TEST(JournalHardening, TruncatedHeaderIsSkippedWithWarning) {
  const std::string bytes = encode_journal_record(sample_record());
  expect_rejected(std::string_view(bytes).substr(0, 10),
                  "truncated frame header");
}

TEST(JournalHardening, TruncatedPayloadIsSkippedWithWarning) {
  const std::string bytes = encode_journal_record(sample_record());
  // Cut mid-payload: the frame header survives but declares more bytes than
  // remain — the exact shape a killed append would leave without atomicity.
  expect_rejected(std::string_view(bytes).substr(0, bytes.size() / 2),
                  "truncated record");
}

TEST(JournalHardening, ChecksumMismatchIsSkippedWithWarning) {
  std::string bytes = encode_journal_record(sample_record());
  bytes[bytes.size() - 3] ^= 0x40;  // flip a payload bit
  expect_rejected(bytes, "checksum mismatch");
}

TEST(JournalHardening, BadMagicDropsTheRestOfTheFile) {
  // Without a trusted header nothing after it is read, not even a sound
  // record.
  expect_rejected("GARBAGE" + encode_journal_record(sample_record()),
                  "bad magic");
}

TEST(JournalHardening, UnsupportedVersionIsSkippedWithWarning) {
  std::string bytes = encode_journal_record(sample_record());
  bytes[4] = 9;  // version byte
  expect_rejected(bytes, "unsupported version 9");
}

TEST(JournalHardening, AbsurdPayloadLengthIsTruncationNotAllocation) {
  std::string bytes = encode_journal_record(sample_record());
  for (int i = 5; i < 13; ++i) bytes[i] = '\xff';  // payload_len = 2^64 - 1
  expect_rejected(bytes, "truncated record");
}

TEST(JournalHardening, BytesAfterTheRecordAreRejected) {
  // A record file holds exactly one frame; anything after it is damage.
  expect_rejected(encode_journal_record(sample_record(1)) +
                      encode_journal_record(sample_record(2)),
                  "bytes after the record");
}

// --- Reading a row by its digest -------------------------------------------

/// A completed row whose record verifies against its own spec.
SimResult sample_row(unsigned ppc) {
  SimResult r;
  r.config.num_procs = 16;
  r.config.procs_per_cluster = ppc;
  r.app_name = "fft";
  r.scale = ProblemScale::Test;
  r.wall_time = 4000 + ppc;
  r.events = 999;
  r.host_seconds = 0.125;
  r.totals.reads = 100;
  r.per_proc.resize(16);
  r.per_cluster.resize(16 / ppc);
  return r;
}

std::uint64_t digest_of(const SimResult& r) {
  return obs::config_digest(r.config, r.app_name, r.scale);
}

/// read_journal_row for `r`'s spec, the read run_sweep's resume makes.
std::optional<JournalHit> read_row(const std::string& dir, const SimResult& r,
                                   std::vector<std::string>& warnings) {
  return read_journal_row(dir, digest_of(r), r.config, r.app_name, r.scale,
                          warnings);
}

/// Writes `bytes` at the record path of `digest`, bypassing the writer.
void write_raw(const std::string& dir, std::uint64_t digest,
               std::string_view bytes) {
  std::ofstream os(journal_record_path(dir, digest), std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(JournalDir, AppendThenLoadRoundTrips) {
  const TempDir tmp("append");
  append_journal_record(tmp.path(),
                        journal_record_from_result(sample_row(1), 1));
  append_journal_record(tmp.path(),
                        journal_record_from_result(sample_row(2), 3));
  std::vector<std::string> warnings;
  const auto h1 = read_row(tmp.path(), sample_row(1), warnings);
  const auto h2 = read_row(tmp.path(), sample_row(2), warnings);
  EXPECT_TRUE(warnings.empty());
  ASSERT_TRUE(h1 && h2);
  EXPECT_EQ(h1->attempts, 1u);
  EXPECT_EQ(h2->attempts, 3u);
  EXPECT_EQ(obs::result_digest(h2->result), obs::result_digest(sample_row(2)));
}

TEST(JournalDir, AppendOverwritesTheSameRowAtomically) {
  const TempDir tmp("overwrite");
  append_journal_record(tmp.path(),
                        journal_record_from_result(sample_row(2), 1));
  append_journal_record(tmp.path(),
                        journal_record_from_result(sample_row(2), 5));
  std::vector<std::string> warnings;
  const auto hit = read_row(tmp.path(), sample_row(2), warnings);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->attempts, 5u);
  // No stray temp files: the atomic writer renamed or cleaned up.
  EXPECT_EQ(std::distance(fs::directory_iterator(tmp.path()),
                          fs::directory_iterator{}),
            1);
}

TEST(JournalDir, MissingDirectoryIsEmptyJournal) {
  std::vector<std::string> warnings;
  EXPECT_FALSE(read_row("/nonexistent/journal/dir", sample_row(2), warnings));
  EXPECT_TRUE(warnings.empty());
}

TEST(JournalDir, CreatesTheDirectoryOnFirstAppend) {
  const TempDir tmp("create");
  const std::string nested = tmp.path() + "/a/b";
  append_journal_record(nested, journal_record_from_result(sample_row(2), 1));
  std::vector<std::string> warnings;
  EXPECT_TRUE(read_row(nested, sample_row(2), warnings));
}

TEST(JournalDir, CorruptFileSkippedHealthySiblingLoads) {
  const TempDir tmp("mixed");
  append_journal_record(tmp.path(),
                        journal_record_from_result(sample_row(1), 1));
  const std::string bytes =
      encode_journal_record(journal_record_from_result(sample_row(2), 1));
  write_raw(tmp.path(), digest_of(sample_row(2)),
            std::string_view(bytes).substr(0, bytes.size() / 3));  // torn
  std::vector<std::string> warnings;
  EXPECT_TRUE(read_row(tmp.path(), sample_row(1), warnings));
  EXPECT_TRUE(warnings.empty());
  EXPECT_FALSE(read_row(tmp.path(), sample_row(2), warnings));
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("truncated"), std::string::npos);
}

TEST(JournalDir, ZeroLengthFileSkippedWithWarning) {
  // A crash between creating a record file and its first write leaves a
  // zero-length .csj: the reader must treat it like a truncated record —
  // warn and re-simulate — not error or silently drop the warning.
  const TempDir tmp("zerolen");
  write_raw(tmp.path(), digest_of(sample_row(2)), "");
  std::vector<std::string> warnings;
  EXPECT_FALSE(read_row(tmp.path(), sample_row(2), warnings));
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("empty record file"), std::string::npos);
}

TEST(JournalDir, RecordUnderAnotherDigestsNameIsRejected) {
  // A sound record is only evidence for the row its file name keys.
  const TempDir tmp("misnamed");
  write_raw(tmp.path(), digest_of(sample_row(2)),
            encode_journal_record(journal_record_from_result(sample_row(1), 1)));
  std::vector<std::string> warnings;
  EXPECT_FALSE(read_row(tmp.path(), sample_row(2), warnings));
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("does not match its file name"),
            std::string::npos);
}

TEST(JournalDir, StaleRecordIsRejected) {
  // A record whose stored row no longer re-hashes to its result digest (an
  // older build's answer, or tampering) costs a re-simulation.
  const TempDir tmp("stale");
  JournalRecord rec = journal_record_from_result(sample_row(2), 1);
  rec.wall_time += 1;
  append_journal_record(tmp.path(), rec);
  std::vector<std::string> warnings;
  EXPECT_FALSE(read_row(tmp.path(), sample_row(2), warnings));
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("fails result-digest verification"),
            std::string::npos);
}

// --- Result conversion ------------------------------------------------------

TEST(JournalResult, FromResultRequiresOk) {
  SimResult r;
  r.ok = false;
  EXPECT_THROW((void)journal_record_from_result(r, 1), std::logic_error);
}

TEST(JournalResult, ResultRoundTripPreservesDigests) {
  SimResult r;
  r.config.num_procs = 16;
  r.config.procs_per_cluster = 4;
  r.app_name = "fft";
  r.scale = ProblemScale::Test;
  r.wall_time = 4242;
  r.events = 999;
  r.host_seconds = 0.125;
  r.totals.reads = 100;
  r.per_proc.resize(16);
  r.per_cluster.resize(4);
  r.per_proc[3].cpu = 55;

  const JournalRecord rec = journal_record_from_result(r, 3);
  EXPECT_EQ(rec.config_digest,
            obs::config_digest(r.config, r.app_name, r.scale));
  EXPECT_EQ(rec.result_digest, obs::result_digest(r));
  EXPECT_EQ(rec.attempts, 3u);

  // The reconstituted row hashes to the same result digest — the exact check
  // run_sweep's resume performs before trusting it.
  std::string why;
  const std::optional<SimResult> back =
      verified_journal_result(rec, r.config, r.app_name, r.scale, why);
  ASSERT_TRUE(back.has_value()) << why;
  EXPECT_TRUE(back->ok);
  EXPECT_EQ(obs::result_digest(*back), rec.result_digest);

  EXPECT_FALSE(verified_journal_result(rec, r.config, "lu", r.scale, why));
  EXPECT_EQ(why, "names a different app/scale");
  JournalRecord tampered = rec;
  tampered.wall_time += 1;
  EXPECT_FALSE(
      verified_journal_result(tampered, r.config, r.app_name, r.scale, why));
  EXPECT_EQ(why, "fails result-digest verification");
}

}  // namespace
}  // namespace csim
