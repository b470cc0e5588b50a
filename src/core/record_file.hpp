// Record files: the one on-disk format behind the crash-safe sweep journal
// (`.csj`, src/report/journal.hpp) and warm-state checkpoints (`.csc`,
// src/mem/warm_state.hpp). Every record is one self-delimiting frame
//
//   magic (4) | version u8 | payload_len u64 LE | payload_fnv u64 LE | payload
//
// where payload_fnv is the FNV-1a 64 of the payload bytes. A record file is
// named `<dir>/<16-hex digest><ext>` and written atomically (temp + fsync +
// rename, src/core/atomic_file.hpp). This module owns the frame, its hardened
// decoder, the little-endian field codec and the hash; each format keeps only
// its constants (a RecordFormat), its payload schema and its load policy.
// The reference-trace format (src/trace/trace.hpp) is unframed but encodes
// its fields with the same writer and reader.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/core/stats.hpp"

namespace csim {

// --- FNV-1a 64 ---------------------------------------------------------------

/// Streaming FNV-1a 64-bit hash. Every digest the simulator prints or keys
/// files by (config, result, warm-state and sweep digests, record checksums,
/// image checksums) is built from it.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;

  void byte(std::uint8_t b) noexcept {
    h ^= b;
    h *= 1099511628211ULL;
  }
  /// Little-endian, like every integer in a record file.
  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(std::string_view s) noexcept {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  /// Length-prefixed: the u64 size, then the bytes.
  void str(std::string_view s) noexcept {
    u64(s.size());
    bytes(s);
  }
};

/// One-shot FNV-1a 64 of `bytes`.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes) noexcept;

/// 16-hex-digit lowercase rendering of a digest (record file names, logs).
[[nodiscard]] std::string digest_hex(std::uint64_t d);

// --- Field codec -------------------------------------------------------------

/// Bytes one MissCounters occupies in a record: every counter as a u64.
inline constexpr std::size_t kCountersRecordBytes =
    8 * (std::size(kMissCounterFields) + kNumLatencyClasses);

/// Little-endian field writer appending to `out`.
struct RecordWriter {
  std::string out;

  void u8(std::uint8_t v) { out.push_back(static_cast<char>(v)); }
  void u64(std::uint64_t v);
  void f64(double v);
  /// Length-prefixed: the u64 size, then the bytes.
  void str(std::string_view s);
  /// Every counter in kMissCounterFields order, then `by_class`.
  void counters(const MissCounters& c);
};

/// Bounds-checked little-endian reader. A read past the end clears ok()
/// and yields zeros, so a decoder checks once when it is done.
class RecordReader {
 public:
  explicit RecordReader(std::string_view buf) noexcept : buf_(buf) {}

  std::uint8_t u8();
  std::uint64_t u64();
  double f64();
  /// Length-prefixed string, as RecordWriter::str writes it.
  std::string str();
  /// The next `n` raw bytes (empty, and ok() cleared, when fewer remain).
  std::string_view bytes(std::size_t n);
  MissCounters counters();

  /// Count guard, checked before reserving: whether `n` entries of at least
  /// `bytes_per_entry` bytes each fit in what is left. A count that cannot
  /// fit is a corrupt field, not a big record; ok() is cleared.
  bool fits(std::uint64_t n, std::size_t bytes_per_entry);

  /// Payload epilogue: false, with `why`, when a read ran past the end or
  /// bytes are left over.
  bool finish(std::string& why) const;

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return buf_.size() - pos_;
  }

 private:
  std::string_view buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- Frames ------------------------------------------------------------------

/// A record-file format's constants.
struct RecordFormat {
  std::string_view name;       ///< prefixes errors, e.g. "journal"
  std::string_view magic;      ///< exactly 4 bytes
  std::uint8_t min_version;    ///< oldest version the decoder accepts
  std::uint8_t version;        ///< the version the encoder writes
  std::uint64_t max_payload;   ///< a longer declared payload is corruption
  std::string_view extension;  ///< file name suffix, e.g. ".csj"
};

/// Frames `payload` as one record of `fmt` at its current version.
[[nodiscard]] std::string encode_frame(const RecordFormat& fmt,
                                       std::string_view payload);

/// One decoded frame, or why the bytes do not hold one.
struct Frame {
  std::uint8_t version = 0;
  std::string_view payload;  ///< ok() only; a view into the decoded bytes
  std::string error;         ///< e.g. "checksum mismatch"; empty when ok()

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Hardened decode of a buffer holding exactly one frame (a record file):
/// checks the header length, the magic, the version range, the declared
/// length against the format's cap and the bytes available, and the payload
/// checksum, in that order. Never throws on bad data.
[[nodiscard]] Frame decode_frame(const RecordFormat& fmt,
                                 std::string_view bytes);

// --- Files -------------------------------------------------------------------

/// `<dir>/<16-hex digest><fmt.extension>`.
[[nodiscard]] std::string record_path(const RecordFormat& fmt,
                                      const std::string& dir,
                                      std::uint64_t digest);

/// Creates `dir` if needed, then atomically writes `frame` to
/// record_path(fmt, dir, digest) and returns that path. Throws
/// std::runtime_error on I/O failure.
std::string write_record_file(const RecordFormat& fmt, const std::string& dir,
                              std::uint64_t digest, std::string_view frame);

/// The whole file, or nullopt when it cannot be opened.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace csim
