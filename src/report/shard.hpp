// Sharded sweeps (docs/ROBUSTNESS.md §7): a sweep row belongs to shard
// `config_digest % N`. The partition is a pure function of the row's
// identity digest (src/obs/manifest.hpp), so N hosts given the same sweep
// agree on the split without coordination, and tools/csim_merge can verify
// that the per-shard artifacts it recombines are disjoint and complete.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/machine.hpp"

namespace csim {

/// The largest shard count a `--shard` spec or a shard manifest may name.
inline constexpr unsigned kMaxShards = 4096;

/// A `k/N` shard spec: this host owns the rows whose config digest maps to
/// shard `index` of `count`. The default (`count == 1`) is the unsharded
/// sweep — every row is ours.
struct ShardSpec {
  unsigned index = 0;
  unsigned count = 1;

  [[nodiscard]] bool active() const noexcept { return count > 1; }
  [[nodiscard]] std::string label() const;  ///< "k/N"
};

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
/// Throws ConfigError on anything malformed, including an integer field
/// beyond 2^53 (the largest integer a double holds exactly).
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
///   - completeness: the shards list exactly rows_total rows, whose global
///     indices cover 0..rows_total-1 exactly once, and every CSV data line
///     is referenced exactly once.
[[nodiscard]] std::string merge_shard_csvs(
    const std::vector<ShardManifest>& shards,
    const std::vector<std::string>& csv_contents);

}  // namespace csim
