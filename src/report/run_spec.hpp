// RunSpec: the one description of "which machine rows a sweep runs".
//
// csim_cli's row flags (cli::consume_run_flag) fill a RunSpec, and configs()
// is the one builder path from it to run_sweep's rows.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/machine.hpp"

namespace csim {

/// The accepted values of a numeric RunSpec field, which the CLI's row
/// flags (cli::consume_run_flag) enforce.
struct FieldRange {
  std::uint64_t min;
  std::uint64_t max;
};
inline constexpr FieldRange kProcsRange{1, 4096};  ///< procs and every ppc
inline constexpr FieldRange kCacheKbRange{0, 1u << 20};
inline constexpr FieldRange kAssocRange{0, 4096};
inline constexpr FieldRange kLineBytesRange{1, 4096};
inline constexpr FieldRange kQuantumRange{1, 1u << 30};

/// Whether `name` is a registered app (app_names()).
[[nodiscard]] bool known_app(std::string_view name);
/// "test", "default" or "paper"; nullopt for anything else.
[[nodiscard]] std::optional<ProblemScale> scale_named(std::string_view name);
/// "cache" or "memory"; nullopt for anything else.
[[nodiscard]] std::optional<ClusterStyle> style_named(std::string_view name);

struct RunSpec {
  std::string app = "ocean";
  ProblemScale scale = ProblemScale::Default;
  unsigned procs = 64;
  std::vector<unsigned> ppcs = {1, 2, 4, 8};
  std::size_t cache_kb = 0;  ///< per-processor KB; 0 = infinite
  unsigned assoc = 0;        ///< 0 = fully associative
  unsigned line_bytes = 64;
  ClusterStyle style = ClusterStyle::SharedCache;
  Cycles quantum = 32;
  bool hit_costs = false;
  /// Queued-resource contention model (--contention, --contention-busy).
  ContentionSpec contention{};

  bool operator==(const RunSpec&) const = default;

  /// The MachineSpec rows of this spec, one per ppc, in request order.
  /// Unvalidated (build_unchecked): a bad row — e.g. ppc 3 with 64
  /// processors — must degrade inside run_sweep into a failed-row result,
  /// not abort the sweep before it starts.
  [[nodiscard]] std::vector<MachineSpec> configs() const;
};

}  // namespace csim
