// Sweep service core (docs/SERVICE.md): everything tools/csim_serve and
// tools/csim_merge do, factored into a socket-free library so the protocol,
// the cache, and the shard/merge algebra are unit-testable in-process.
//
// Three layers:
//
//  * Sharding — a sweep row belongs to shard `config_digest % N`. The
//    partition is a pure function of the row's identity digest
//    (src/obs/manifest.hpp), so N hosts given the same request agree on the
//    split without coordination, and tools/csim_merge can verify that the
//    per-shard artifacts it recombines are disjoint and complete.
//
//  * ResultCache — the memory tier of the service's digest-keyed result
//    cache: an LRU map of completed rows, so a warm repeat is served at
//    memory speed. The journal tier is run_sweep's resume over the
//    write-ahead journal (src/report/journal.hpp): a cold row costs one
//    file probe (`<dir>/<digest>.csj`). Every hit from either tier is
//    verified by recomputing the stored result digest before it is served
//    — the cache can cost a re-simulation, never a wrong answer.
//
//  * ServiceSession — the newline-framed JSON request/response protocol:
//    one request per line in, a stream of `row` lines out as rows complete
//    (memory hits first, then journal hits and simulated rows via
//    SweepRequest::on_row), terminated by one `done` (or `error`) line.
//    Malformed input becomes a structured `error` response; the session —
//    and the daemon above it — stays up.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/report/experiment.hpp"
#include "src/report/journal.hpp"
#include "src/report/run_spec.hpp"

namespace csim::json {
class Value;
}

namespace csim::serve {

// ---------------------------------------------------------------- sharding

/// A `k/N` shard spec: this host owns the rows whose config digest maps to
/// shard `index` of `count`. The default (`count == 1`) is the unsharded
/// sweep — every row is ours.
struct ShardSpec {
  unsigned index = 0;
  unsigned count = 1;

  [[nodiscard]] bool active() const noexcept { return count > 1; }
  [[nodiscard]] std::string label() const;  ///< "k/N"
};

/// Parses "k/N" (0 <= k < N, N >= 1). Throws ConfigError otherwise.
[[nodiscard]] ShardSpec parse_shard(const std::string& spec);

/// The shard owning `config_digest` under an N-way split. Pure and stable:
/// the same digest and N always map to the same shard, every digest lands in
/// exactly one shard, and FNV-1a digests spread uniformly over small N.
[[nodiscard]] unsigned shard_of(std::uint64_t config_digest,
                                unsigned count) noexcept;

/// The rows of a config list owned by `shard`, in request order.
struct ShardSelection {
  std::vector<std::size_t> indices;    ///< global row indices kept
  std::vector<std::uint64_t> digests;  ///< parallel to indices
  std::size_t rows_total = 0;          ///< full sweep size before selection
};

[[nodiscard]] ShardSelection select_shard(
    const std::vector<MachineSpec>& configs, std::string_view app,
    ProblemScale scale, const ShardSpec& shard);

// ------------------------------------------------- shard merge artifacts

/// One row of a shard manifest: where a global sweep row landed in this
/// shard's CSV artifact.
struct ShardRowRef {
  std::size_t index = 0;       ///< global row index in the full sweep
  std::uint64_t digest = 0;    ///< config digest (the partition key)
  long csv_line = -1;          ///< 0-based data line in the shard CSV;
                               ///< -1 = failed row (not in the CSV)
};

/// The JSON sidecar `csim_cli --shard k/N --shard-out BASE` writes next to
/// its BASE.csv: enough provenance for csim_merge to reassemble the
/// unsharded CSV bit-exactly and to prove no row was dropped, duplicated,
/// or smuggled between shards.
struct ShardManifest {
  ShardSpec shard;
  std::size_t rows_total = 0;
  std::string csv_path;  ///< as written; resolved relative to the JSON file
  std::vector<ShardRowRef> rows;
};

/// Serializes the "csim.shard/1" JSON document.
[[nodiscard]] std::string write_shard_manifest(const ShardManifest& m);

/// Parses a "csim.shard/1" document; `origin` names the source in errors.
/// Throws ConfigError on anything malformed.
[[nodiscard]] ShardManifest parse_shard_manifest(std::string_view text,
                                                 const std::string& origin);

/// Recombines per-shard CSV artifacts into the byte stream an unsharded run
/// would have produced. `csv_contents` is parallel to `shards`. Validates,
/// throwing ConfigError on the first violation:
///   - every shard 0..N-1 present exactly once, all agreeing on N and on
///     the full sweep's row count;
///   - identical (byte-for-byte) CSV header lines;
///   - digest disjointness: each digest in exactly one shard, and in the
///     shard the partition function assigns it to;
///   - completeness: the global indices cover 0..rows_total-1 exactly once,
///     and every CSV data line is referenced exactly once.
[[nodiscard]] std::string merge_shard_csvs(
    const std::vector<ShardManifest>& shards,
    const std::vector<std::string>& csv_contents);

// ----------------------------------------------------------- result cache

/// The service's in-memory result cache, keyed by config digest and bounded
/// least-recently-used. Lookups verify the stored result digest before
/// serving (the same rule as run_sweep's resume); a stale entry degrades to
/// a warning and a re-simulation. Not thread-safe — the service handles
/// requests sequentially (rows parallelize inside run_sweep, whose on_row
/// calls are serialized).
class ResultCache {
 public:
  /// `max_entries` bounds the cache (LRU eviction); 0 = unbounded.
  explicit ResultCache(std::size_t max_entries = 0) : max_(max_entries) {}

  /// Looks up `digest`, touching its recency. Appends any diagnostic
  /// (digest mismatch) to `warnings`.
  [[nodiscard]] std::optional<JournalHit> lookup(
      std::uint64_t digest, const MachineSpec& cfg, std::string_view app,
      ProblemScale scale, std::vector<std::string>* warnings);

  /// Inserts a completed row (simulated or read from the journal). Failed
  /// rows are never cached.
  void insert(const SimResult& r, std::uint32_t attempts);

  [[nodiscard]] std::size_t memory_entries() const noexcept {
    return memory_.size();
  }
  [[nodiscard]] std::size_t max_entries() const noexcept { return max_; }

 private:
  struct Entry {
    JournalRecord record;
    std::list<std::uint64_t>::iterator lru;  ///< position in lru_
  };
  void touch(Entry& e);

  std::size_t max_;
  std::unordered_map<std::uint64_t, Entry> memory_;
  std::list<std::uint64_t> lru_;  ///< front = most recent
};

// -------------------------------------------------------- service session

/// One parsed sweep request: the shared RunSpec row description (same
/// builder path and defaults as csim_cli) plus the service envelope.
struct ServiceRequest : RunSpec {
  std::string id;       ///< echoed on every response line
  std::string csv_out;  ///< optional: write the sweep CSV artifact here
};

/// Parses a request object (already JSON-decoded). Throws ConfigError on an
/// unknown app, a non-positive or out-of-range number ("negative scale"),
/// a bad scale/style string, or a wrongly-typed field.
[[nodiscard]] ServiceRequest parse_service_request(const json::Value& v);

struct ServiceConfig {
  std::string journal_dir;  ///< the cache's journal tier; empty = memory only
  ShardSpec shard{};        ///< rows outside this shard are not simulated
  /// Upper bound on in-memory cache entries (--cache-max); 0 = unbounded.
  /// Eviction is least-recently-used: a journal directory keeps evicted
  /// rows served at one file probe, a memory-only daemon re-simulates.
  std::size_t cache_max = 0;
};

/// What handle_line tells the caller to do next (the daemon's accept loop).
enum class LineAction : std::uint8_t {
  Continue,  ///< keep reading lines
  Shutdown,  ///< a shutdown request was acknowledged; stop the daemon
};

/// The request/response state machine behind tools/csim_serve. One instance
/// lives as long as the daemon; its ResultCache carries results across
/// connections. Protocol errors never throw out of handle_line — they
/// become `error` response lines so one bad client line cannot take the
/// daemon down.
class ServiceSession {
 public:
  using Emit = std::function<void(const std::string& line)>;

  explicit ServiceSession(ServiceConfig cfg);

  /// Processes one newline-framed request. Emits zero or more `row` /
  /// `warning` lines followed by exactly one `done`, `error`, `pong`, or
  /// `bye` line (blank input emits nothing).
  LineAction handle_line(std::string_view line, const Emit& emit);

  [[nodiscard]] ResultCache& cache() noexcept { return cache_; }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  void run_request(const ServiceRequest& req, const Emit& emit);

  ServiceConfig cfg_;
  ResultCache cache_;
};

}  // namespace csim::serve
