#include "src/report/journal.hpp"

#include <optional>
#include <stdexcept>
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

std::optional<JournalRecord> decode_journal_record(std::string_view bytes,
                                                  std::string& why) {
  const Frame frame = decode_frame(kFormat, bytes);
  if (!frame.ok()) {
    why = frame.error;
    return std::nullopt;
  }
  JournalRecord rec;
  if (!decode_payload(frame.payload, frame.version, rec, why)) {
    return std::nullopt;
  }
  return rec;
}

std::string journal_record_path(const std::string& dir,
                                std::uint64_t config_digest) {
  return record_path(kFormat, dir, config_digest);
}

void append_journal_record(const std::string& dir, const JournalRecord& rec) {
  write_record_file(kFormat, dir, rec.config_digest,
                    encode_journal_record(rec));
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

std::optional<JournalHit> read_journal_row(const std::string& dir,
                                          std::uint64_t digest,
                                          const MachineSpec& cfg,
                                          std::string_view app,
                                          ProblemScale scale,
                                          std::vector<std::string>& warnings) {
  const std::string path = journal_record_path(dir, digest);
  const std::optional<std::string> bytes = read_file(path);
  if (!bytes) return std::nullopt;  // never journaled here
  const auto skip = [&](const std::string& why) -> std::optional<JournalHit> {
    warnings.push_back("journal: " + path + ": " + why + " (record skipped)");
    return std::nullopt;
  };
  // A crash between creating the file and its first write leaves a
  // zero-length record: warn and re-simulate like any damaged record.
  if (bytes->empty()) return skip("empty record file");
  std::string why;
  const std::optional<JournalRecord> rec = decode_journal_record(*bytes, why);
  if (!rec) return skip(why);
  if (rec->config_digest != digest) {
    return skip("record digest " + digest_hex(rec->config_digest) +
                " does not match its file name");
  }
  std::optional<SimResult> r =
      verified_journal_result(*rec, cfg, app, scale, why);
  if (!r) {
    warnings.push_back("journal: record " + digest_hex(digest) + " " + why +
                       "; re-simulating");
    return std::nullopt;
  }
  return JournalHit{std::move(*r), rec->attempts};
}

}  // namespace csim
