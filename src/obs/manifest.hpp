// Run manifests: one JSON record per sweep row capturing configuration,
// build provenance (git describe), host wall time, and a digest of the
// simulation result — enough to reproduce (and verify the reproduction of)
// any figure from its manifest alone.
//
// The digest covers only deterministic simulation outputs (configuration,
// wall_time in cycles, event count, miss taxonomy, time buckets); host wall
// time and timestamps are recorded but excluded, so two identical runs
// always produce the same digest (pinned by the determinism suite).
#pragma once

#include <cstdint>
#include <ctime>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/record_file.hpp"
#include "src/core/stats.hpp"

namespace csim {
struct SweepResult;
}

namespace csim::obs {

/// FNV-1a 64-bit digest of a simulation result's deterministic fields.
/// Failed runs (ok == false) hash their error kind instead of statistics.
[[nodiscard]] std::uint64_t result_digest(const SimResult& r);

/// FNV-1a 64-bit digest of a sweep row's *identity*: the application name,
/// problem scale, and every simulation-affecting MachineSpec field
/// (topology, cache geometry, latency model, contention model, quantum...).
/// Operational knobs that cannot change results — watchdog budgets, audit
/// cadence, host deadlines — are excluded, so a row journaled under one
/// deadline/retry policy is still a cache hit under another. Keys the
/// crash-safe sweep journal (src/report/journal.hpp).
[[nodiscard]] std::uint64_t config_digest(const MachineSpec& cfg,
                                          std::string_view app,
                                          ProblemScale scale);

/// FNV-1a 64-bit digest of a sampled row's *warmup identity*: the
/// application, scale, and every knob that determines the memory state and
/// processor clocks at the warmup boundary (topology, cache geometry, page
/// size, hit latency, warm quantum, and the boundary reference count). Knobs
/// that only matter inside detailed intervals — the latency model, the
/// contention model, the detailed runahead quantum, interval placement past
/// the first boundary — are excluded, so one warm-state checkpoint
/// (src/mem/warm_state.hpp) serves every row of a latency/contention sweep.
[[nodiscard]] std::uint64_t warm_config_digest(const MachineSpec& cfg,
                                               std::string_view app,
                                               ProblemScale scale);

/// Digest of a whole sweep: FNV-1a over the row digests, in order.
[[nodiscard]] std::uint64_t sweep_digest(const std::vector<SimResult>& rows);

/// 16-hex-digit lowercase rendering of a digest (src/core/record_file.hpp).
using csim::digest_hex;

/// Provenance of a sweep artifact: which slice of the full sweep it covers
/// (csim_cli --shard) and how much of it was served without simulating.
struct SweepProvenance {
  unsigned shard_index = 0;
  unsigned shard_count = 1;    ///< 1 = unsharded
  std::size_t rows_total = 0;  ///< full sweep rows before shard selection
  std::size_t cache_hits = 0;  ///< rows served from the cache / journal
};

/// Writes the "csim.run_manifest/5" JSON document for a sweep: the shard and
/// cache-hit provenance, then per row the configuration, the statistics (or
/// the error kind of a failed row), host time, the outcome (status,
/// attempts, journal provenance, config digest) and the result digest, then
/// any journal warnings and the sweep digest. `tool` names the producing
/// driver (e.g. "csim_cli"); `generated_unix` stamps the manifest (pass a
/// fixed value in tests for byte-stable output).
void write_run_manifest(std::ostream& os, const std::string& tool,
                        const SweepResult& sweep, std::time_t generated_unix,
                        const SweepProvenance& prov);

/// Convenience: writes the document to `path`, stamped with the current
/// time, atomically (temp + rename).
void write_run_manifest_file(const std::string& path, const std::string& tool,
                             const SweepResult& sweep,
                             const SweepProvenance& prov);

}  // namespace csim::obs
