#include "src/report/journal.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <unordered_set>
#include <utility>

#include "src/core/record_file.hpp"
#include "src/obs/manifest.hpp"

namespace csim {

namespace {

// Version 2 appends the interval-sampling provenance fields (sampled,
// coverage, detailed_refs). Version-1 files decode with those fields zero.
// A record payload can't meaningfully exceed 64 MiB (4096 procs of buckets
// is ~160 KB); anything larger is a corrupt length field, not a real record.
constexpr RecordFormat kFormat{.name = "journal",
                               .magic = "CSJL",
                               .min_version = 1,
                               .version = 2,
                               .max_payload = 64u << 20,
                               .extension = ".csj"};

constexpr std::size_t kBucketsRecordBytes = 8 * std::size(kTimeBucketFields);

void put_buckets(RecordWriter& w, const TimeBuckets& b) {
  for (const auto field : kTimeBucketFields) w.u64(b.*field);
}

TimeBuckets get_buckets(RecordReader& r) {
  TimeBuckets b;
  for (const auto field : kTimeBucketFields) b.*field = r.u64();
  return b;
}

std::string encode_payload(const JournalRecord& rec) {
  RecordWriter w;
  w.out.reserve(256 + rec.per_proc.size() * kBucketsRecordBytes +
                rec.per_cluster.size() * kCountersRecordBytes);
  w.u64(rec.config_digest);
  w.u64(rec.result_digest);
  w.str(rec.app_name);
  w.u8(static_cast<std::uint8_t>(rec.scale));
  w.u8(1);  // ok flag: only completed rows are journaled (reserved)
  w.u64(rec.wall_time);
  w.u64(rec.events);
  w.f64(rec.host_seconds);
  w.u64(rec.attempts);
  w.counters(rec.totals);
  w.u64(rec.per_proc.size());
  for (const TimeBuckets& b : rec.per_proc) put_buckets(w, b);
  w.u64(rec.per_cluster.size());
  for (const MissCounters& c : rec.per_cluster) w.counters(c);
  // Version 2: interval-sampling provenance.
  w.u8(rec.sampled ? 1 : 0);
  w.f64(rec.coverage);
  w.u64(rec.detailed_refs);
  return std::move(w.out);
}

/// Decodes one payload; returns false (with `why`) on structural damage.
bool decode_payload(std::string_view payload, std::uint8_t version,
                    JournalRecord& rec, std::string& why) {
  RecordReader r(payload);
  rec.config_digest = r.u64();
  rec.result_digest = r.u64();
  rec.app_name = r.str();
  rec.scale = static_cast<ProblemScale>(r.u8());
  const std::uint8_t okflag = r.u8();
  rec.wall_time = r.u64();
  rec.events = r.u64();
  rec.host_seconds = r.f64();
  rec.attempts = static_cast<std::uint32_t>(r.u64());
  rec.totals = r.counters();
  const std::uint64_t nproc = r.u64();
  if (!r.fits(nproc, kBucketsRecordBytes)) {
    why = "per_proc count exceeds payload";
    return false;
  }
  rec.per_proc.reserve(nproc);
  for (std::uint64_t i = 0; i < nproc && r.ok(); ++i) {
    rec.per_proc.push_back(get_buckets(r));
  }
  const std::uint64_t nclust = r.u64();
  if (!r.fits(nclust, kCountersRecordBytes)) {
    why = "per_cluster count exceeds payload";
    return false;
  }
  rec.per_cluster.reserve(nclust);
  for (std::uint64_t i = 0; i < nclust && r.ok(); ++i) {
    rec.per_cluster.push_back(r.counters());
  }
  if (version >= 2) {
    rec.sampled = r.u8() != 0;
    rec.coverage = r.f64();
    rec.detailed_refs = r.u64();
  }
  if (r.ok() && okflag != 1) {
    why = "record not marked ok";
    return false;
  }
  return r.finish(why);
}

}  // namespace

std::string encode_journal_record(const JournalRecord& rec) {
  return encode_frame(kFormat, encode_payload(rec));
}

JournalLoad decode_journal_records(std::string_view bytes,
                                   const std::string& origin) {
  JournalLoad out;
  const auto warn = [&](const std::string& what) {
    out.warnings.push_back("journal: " + origin + ": " + what);
  };
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const Frame frame =
        decode_frame(kFormat, bytes.substr(pos), FrameFit::Prefix);
    if (frame.status == Frame::Status::BadMagic ||
        frame.status == Frame::Status::BadVersion) {
      // Lost framing: without a trusted header there is no reliable way to
      // resync, so drop the rest of the file rather than misparse garbage.
      warn(frame.error + " (rest of file skipped)");
      return out;
    }
    if (frame.status == Frame::Status::TruncatedHeader ||
        frame.status == Frame::Status::BadLength) {
      warn(frame.error + " (record skipped)");
      return out;
    }
    pos += frame.size;
    if (!frame.ok()) {
      warn(frame.error + " (record skipped)");
      continue;  // frame length was intact, so the next record may be fine
    }
    JournalRecord rec;
    std::string why;
    if (!decode_payload(frame.payload, frame.version, rec, why)) {
      warn(why + " (record skipped)");
      continue;
    }
    const bool dup =
        std::any_of(out.records.begin(), out.records.end(),
                    [&](const JournalRecord& r) {
                      return r.config_digest == rec.config_digest;
                    });
    if (dup) {
      warn("duplicate record for config " + digest_hex(rec.config_digest) +
           " (first record wins)");
      continue;
    }
    out.records.push_back(std::move(rec));
  }
  return out;
}

std::string journal_record_path(const std::string& dir,
                                std::uint64_t config_digest) {
  return record_path(kFormat, dir, config_digest);
}

void append_journal_record(const std::string& dir, const JournalRecord& rec) {
  write_record_file(kFormat, dir, rec.config_digest,
                    encode_journal_record(rec));
}

JournalLoad load_journal(const std::string& dir) {
  JournalLoad out;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return out;  // missing directory = empty journal
  std::vector<std::string> paths;
  for (const auto& entry : it) {
    if (entry.path().extension() == kFormat.extension) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());  // directory order is unspecified
  std::unordered_set<std::uint64_t> seen;
  for (const std::string& path : paths) {
    const std::optional<std::string> bytes = read_file(path);
    if (!bytes) {
      out.warnings.push_back("journal: " + path + ": cannot open (skipped)");
      continue;
    }
    if (bytes->empty()) {
      // A crash between creating the file and its first write leaves a
      // zero-length record: same treatment as a truncated frame — warn and
      // re-simulate, never error the whole resume.
      out.warnings.push_back("journal: " + path +
                             ": empty record file (record skipped)");
      continue;
    }
    JournalLoad one = decode_journal_records(*bytes, path);
    for (std::string& w : one.warnings) out.warnings.push_back(std::move(w));
    for (JournalRecord& rec : one.records) {
      if (!seen.insert(rec.config_digest).second) {
        out.warnings.push_back("journal: " + path +
                               ": duplicate record for config " +
                               digest_hex(rec.config_digest) +
                               " (first record wins)");
        continue;
      }
      out.records.push_back(std::move(rec));
    }
  }
  return out;
}

JournalRecord journal_record_from_result(const SimResult& r,
                                         std::uint32_t attempts) {
  if (!r.ok) {
    throw std::logic_error("journal_record_from_result: row not ok");
  }
  JournalRecord rec;
  rec.config_digest = obs::config_digest(r.config, r.app_name, r.scale);
  rec.result_digest = obs::result_digest(r);
  rec.app_name = r.app_name;
  rec.scale = r.scale;
  rec.wall_time = r.wall_time;
  rec.events = r.events;
  rec.host_seconds = r.host_seconds;
  rec.attempts = attempts;
  rec.sampled = r.sampled;
  rec.coverage = r.coverage;
  rec.detailed_refs = r.detailed_refs;
  rec.totals = r.totals;
  rec.per_proc = r.per_proc;
  rec.per_cluster = r.per_cluster;
  return rec;
}

std::optional<SimResult> verified_journal_result(const JournalRecord& rec,
                                                 const MachineSpec& cfg,
                                                 std::string_view app,
                                                 ProblemScale scale,
                                                 std::string& why) {
  if (rec.app_name != app || rec.scale != scale) {
    why = "names a different app/scale";
    return std::nullopt;
  }
  SimResult r;
  r.config = cfg;
  r.app_name = rec.app_name;
  r.scale = rec.scale;
  r.wall_time = rec.wall_time;
  r.events = rec.events;
  r.host_seconds = rec.host_seconds;
  r.sampled = rec.sampled;
  r.coverage = rec.coverage;
  r.detailed_refs = rec.detailed_refs;
  r.per_proc = rec.per_proc;
  r.per_cluster = rec.per_cluster;
  r.totals = rec.totals;
  r.ok = true;
  if (obs::result_digest(r) != rec.result_digest) {
    why = "fails result-digest verification";
    return std::nullopt;
  }
  return r;
}

}  // namespace csim
