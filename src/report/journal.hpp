// Crash-safe sweep journal: a write-ahead store of completed sweep rows,
// keyed by config digest (src/obs/manifest.hpp), that lets a killed sweep
// resume without re-simulating finished work (docs/ROBUSTNESS.md §6).
//
// One record file per row, `<journal_dir>/<16-hex-digest>.csj`: a "CSJL"
// record-file frame (src/core/record_file.hpp), written atomically, so a
// crash mid-append leaves either the previous record or none — never a
// half-written file at the final name.
//
// A row's record is read by its digest, one file probe, and the reader
// survives anything a crash or fault injector can produce: truncated
// frames, checksum mismatches, garbage magic, a record under another row's
// name. Bad records are skipped with a warning and the sweep simply
// re-simulates those rows — the journal is a cache, never a source of wrong
// answers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/stats.hpp"

namespace csim {

/// One journaled row: the deterministic payload of an ok SimResult plus the
/// identity digests that key and verify it and the attempt count that
/// produced it (replayed into the resumed sweep's CSV for bit-exactness).
struct JournalRecord {
  std::uint64_t config_digest = 0;  ///< obs::config_digest(cfg, app, scale)
  std::uint64_t result_digest = 0;  ///< obs::result_digest of the stored row
  std::string app_name;
  ProblemScale scale = ProblemScale::Default;
  Cycles wall_time = 0;
  std::uint64_t events = 0;
  double host_seconds = 0;
  std::uint32_t attempts = 1;
  /// Interval-sampling provenance (version 2): whether the row's timing was
  /// extrapolated, from what fraction of references, over how many detailed
  /// references. All zero for unsampled rows.
  bool sampled = false;
  double coverage = 0;
  std::uint64_t detailed_refs = 0;
  MissCounters totals{};
  std::vector<TimeBuckets> per_proc;
  std::vector<MissCounters> per_cluster;
};

/// Serializes `rec` into its on-disk frame (header + checksummed payload).
/// Exposed so the fault injector can emulate torn writes by persisting a
/// prefix of the real bytes.
[[nodiscard]] std::string encode_journal_record(const JournalRecord& rec);

/// Decodes a buffer holding exactly one record frame. Returns nullopt, with
/// `why` naming the damage, on anything else. Never throws on bad data.
[[nodiscard]] std::optional<JournalRecord> decode_journal_record(
    std::string_view bytes, std::string& why);

/// `<dir>/<16-hex config_digest>.csj`: where a row's record lives.
[[nodiscard]] std::string journal_record_path(const std::string& dir,
                                              std::uint64_t config_digest);

/// Atomically writes `rec` to journal_record_path(dir, rec.config_digest),
/// creating `dir` if needed. Throws std::runtime_error on I/O failure.
void append_journal_record(const std::string& dir, const JournalRecord& rec);

/// Builds the journal record for a completed row. Precondition: r.ok.
[[nodiscard]] JournalRecord journal_record_from_result(const SimResult& r,
                                                       std::uint32_t attempts);

/// Reconstitutes the SimResult for `cfg` (the live request's spec; the
/// journal stores only its digest) from a record, and trusts it only if the
/// record names `app` at `scale` and the rebuilt row hashes to the stored
/// result digest. Otherwise returns nullopt with `why` naming the failed
/// check — a corrupt or stale record costs a re-simulation, never a wrong
/// answer.
[[nodiscard]] std::optional<SimResult> verified_journal_result(
    const JournalRecord& rec, const MachineSpec& cfg, std::string_view app,
    ProblemScale scale, std::string& why);

/// A row served from the journal, with the attempt count recorded when it
/// originally ran.
struct JournalHit {
  SimResult result;
  std::uint32_t attempts = 1;
};

/// Reads the record of the row `digest` names (journal_record_path(dir,
/// digest)) for the live spec `cfg` of `app` at `scale`. A missing file or
/// directory is a plain miss. An empty file, a damaged frame or payload, a
/// record under another digest's name, or one that fails
/// verified_journal_result is a miss with one line appended to `warnings`.
[[nodiscard]] std::optional<JournalHit> read_journal_row(
    const std::string& dir, std::uint64_t digest, const MachineSpec& cfg,
    std::string_view app, ProblemScale scale,
    std::vector<std::string>& warnings);

}  // namespace csim
