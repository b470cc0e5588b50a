// The sweep journal's record codec and its hardened loader: every corruption
// shape a crash (or the fault injector) can produce must degrade into a
// warning + re-simulation, never a wrong or missing answer.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

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

TEST(JournalCodec, RoundTripsEveryField) {
  const JournalRecord rec = sample_record();
  const JournalLoad load =
      decode_journal_records(encode_journal_record(rec), "mem");
  EXPECT_TRUE(load.warnings.empty());
  ASSERT_EQ(load.records.size(), 1u);
  expect_equal(load.records[0], rec);
}

TEST(JournalCodec, DecodesConcatenatedRecords) {
  const std::string bytes = encode_journal_record(sample_record(1)) +
                            encode_journal_record(sample_record(2));
  const JournalLoad load = decode_journal_records(bytes, "mem");
  EXPECT_TRUE(load.warnings.empty());
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[0].wall_time, sample_record(1).wall_time);
  EXPECT_EQ(load.records[1].wall_time, sample_record(2).wall_time);
}

TEST(JournalCodec, EmptyBufferIsEmptyJournal) {
  const JournalLoad load = decode_journal_records("", "mem");
  EXPECT_TRUE(load.records.empty());
  EXPECT_TRUE(load.warnings.empty());
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
  const JournalLoad load = decode_journal_records(v1.out, "mem");
  EXPECT_TRUE(load.warnings.empty());
  ASSERT_EQ(load.records.size(), 1u);
  expect_equal(load.records[0], sample_record());
  EXPECT_FALSE(load.records[0].sampled);
}

// --- Corruption shapes ------------------------------------------------------

TEST(JournalHardening, TruncatedHeaderIsSkippedWithWarning) {
  const std::string bytes = encode_journal_record(sample_record());
  const JournalLoad load =
      decode_journal_records(std::string_view(bytes).substr(0, 10), "mem");
  EXPECT_TRUE(load.records.empty());
  ASSERT_EQ(load.warnings.size(), 1u);
  EXPECT_NE(load.warnings[0].find("truncated frame header"),
            std::string::npos);
}

TEST(JournalHardening, TruncatedPayloadIsSkippedWithWarning) {
  const std::string bytes = encode_journal_record(sample_record());
  // Cut mid-payload: the frame header survives but declares more bytes than
  // remain — the exact shape a killed append would leave without atomicity.
  const JournalLoad load = decode_journal_records(
      std::string_view(bytes).substr(0, bytes.size() / 2), "mem");
  EXPECT_TRUE(load.records.empty());
  ASSERT_EQ(load.warnings.size(), 1u);
  EXPECT_NE(load.warnings[0].find("truncated record"), std::string::npos);
}

TEST(JournalHardening, ChecksumMismatchIsSkippedWithWarning) {
  std::string bytes = encode_journal_record(sample_record());
  bytes[bytes.size() - 3] ^= 0x40;  // flip a payload bit
  const JournalLoad load = decode_journal_records(bytes, "mem");
  EXPECT_TRUE(load.records.empty());
  ASSERT_EQ(load.warnings.size(), 1u);
  EXPECT_NE(load.warnings[0].find("checksum mismatch"), std::string::npos);
}

TEST(JournalHardening, RecordAfterChecksumFailureStillLoads) {
  // A bit flip in record 1's payload must not take record 2 down with it:
  // the frame length still delimits the damage.
  std::string first = encode_journal_record(sample_record(1));
  first[first.size() - 3] ^= 0x01;
  const std::string bytes = first + encode_journal_record(sample_record(2));
  const JournalLoad load = decode_journal_records(bytes, "mem");
  ASSERT_EQ(load.records.size(), 1u);
  expect_equal(load.records[0], sample_record(2));
  EXPECT_EQ(load.warnings.size(), 1u);
}

TEST(JournalHardening, BadMagicDropsTheRestOfTheFile) {
  std::string bytes = "GARBAGE" + encode_journal_record(sample_record());
  const JournalLoad load = decode_journal_records(bytes, "mem");
  EXPECT_TRUE(load.records.empty());
  ASSERT_EQ(load.warnings.size(), 1u);
  EXPECT_NE(load.warnings[0].find("bad magic"), std::string::npos);
}

TEST(JournalHardening, UnsupportedVersionIsSkippedWithWarning) {
  std::string bytes = encode_journal_record(sample_record());
  bytes[4] = 9;  // version byte
  const JournalLoad load = decode_journal_records(bytes, "mem");
  EXPECT_TRUE(load.records.empty());
  ASSERT_EQ(load.warnings.size(), 1u);
  EXPECT_NE(load.warnings[0].find("unsupported version 9"), std::string::npos);
}

TEST(JournalHardening, AbsurdPayloadLengthIsTruncationNotAllocation) {
  std::string bytes = encode_journal_record(sample_record());
  for (int i = 5; i < 13; ++i) bytes[i] = '\xff';  // payload_len = 2^64 - 1
  const JournalLoad load = decode_journal_records(bytes, "mem");
  EXPECT_TRUE(load.records.empty());
  ASSERT_EQ(load.warnings.size(), 1u);
  EXPECT_NE(load.warnings[0].find("truncated record"), std::string::npos);
}

TEST(JournalHardening, DuplicateDigestFirstRecordWins) {
  JournalRecord second = sample_record();
  second.wall_time = 777;  // same digest key, different payload
  const std::string bytes = encode_journal_record(sample_record()) +
                            encode_journal_record(second);
  const JournalLoad load = decode_journal_records(bytes, "mem");
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].wall_time, sample_record().wall_time);
  ASSERT_EQ(load.warnings.size(), 1u);
  EXPECT_NE(load.warnings[0].find("duplicate record"), std::string::npos);
}

// --- Directory-level append / load ------------------------------------------

TEST(JournalDir, AppendThenLoadRoundTrips) {
  const TempDir tmp("append");
  append_journal_record(tmp.path(), sample_record(1));
  append_journal_record(tmp.path(), sample_record(2));
  const JournalLoad load = load_journal(tmp.path());
  EXPECT_TRUE(load.warnings.empty());
  ASSERT_EQ(load.records.size(), 2u);
}

TEST(JournalDir, AppendOverwritesTheSameRowAtomically) {
  const TempDir tmp("overwrite");
  append_journal_record(tmp.path(), sample_record());
  JournalRecord updated = sample_record();
  updated.attempts = 5;
  append_journal_record(tmp.path(), updated);
  const JournalLoad load = load_journal(tmp.path());
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].attempts, 5u);
  // No stray temp files: the atomic writer renamed or cleaned up.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(tmp.path())) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(JournalDir, MissingDirectoryIsEmptyJournal) {
  const JournalLoad load = load_journal("/nonexistent/journal/dir");
  EXPECT_TRUE(load.records.empty());
  EXPECT_TRUE(load.warnings.empty());
}

TEST(JournalDir, CreatesTheDirectoryOnFirstAppend) {
  const TempDir tmp("create");
  const std::string nested = tmp.path() + "/a/b";
  append_journal_record(nested, sample_record());
  EXPECT_EQ(load_journal(nested).records.size(), 1u);
}

TEST(JournalDir, CorruptFileSkippedHealthySiblingLoads) {
  const TempDir tmp("mixed");
  append_journal_record(tmp.path(), sample_record(1));
  const JournalRecord bad = sample_record(2);
  {
    const std::string bytes = encode_journal_record(bad);
    std::ofstream os(journal_record_path(tmp.path(), bad.config_digest),
                     std::ios::binary);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size() / 3));  // torn
  }
  const JournalLoad load = load_journal(tmp.path());
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].config_digest, sample_record(1).config_digest);
  ASSERT_EQ(load.warnings.size(), 1u);
  EXPECT_NE(load.warnings[0].find("truncated"), std::string::npos);
}

TEST(JournalDir, ZeroLengthFileSkippedWithWarning) {
  // A crash between creating a record file and its first write leaves a
  // zero-length .csj: the loader must treat it like a truncated record —
  // warn and re-simulate — not error or silently drop the warning.
  const TempDir tmp("zerolen");
  append_journal_record(tmp.path(), sample_record(1));
  {
    std::ofstream os(tmp.path() + "/0000000000000002.csj", std::ios::binary);
  }
  const JournalLoad load = load_journal(tmp.path());
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].config_digest, sample_record(1).config_digest);
  ASSERT_EQ(load.warnings.size(), 1u);
  EXPECT_NE(load.warnings[0].find("empty record file"), std::string::npos);
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
  // run_sweep --resume and the service cache perform before trusting it.
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
