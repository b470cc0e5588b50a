// RunSpec: the one description of "which machine rows a sweep runs".
//
// The CLI parses flags into a RunSpec, the service parses its newline-framed
// JSON request into the same RunSpec (ServiceRequest derives from it), and
// configs() is the single builder path both feed to run_sweep, so the two
// share one copy of the defaults. to_json()/from_json() round-trip the
// service-visible fields, so a request can be captured, replayed, and
// diffed as text.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/machine.hpp"

namespace csim::json {
class Value;
}

namespace csim {

/// The accepted values of a numeric RunSpec field. RunSpec::from_json and
/// the CLI's row flags (cli::consume_run_flag) enforce the same ones.
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

/// Checked JSON field accessors shared by the request parsers (RunSpec,
/// service envelope). All throw ConfigError("request: ...") on a type or
/// range violation, so a malformed request names the offending field.
namespace jsonreq {
[[noreturn]] void fail(const std::string& what);
std::string get_string(const json::Value& v, const char* key,
                       std::string fallback);
std::uint64_t as_integer(const json::Value& f, const char* key,
                         FieldRange range);
std::uint64_t get_integer(const json::Value& v, const char* key,
                          std::uint64_t fallback, FieldRange range);
bool get_bool(const json::Value& v, const char* key, bool fallback);
}  // namespace jsonreq

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
  /// Queued-resource contention model (--contention; CLI-only — not part of
  /// the JSON schema, so to_json()/from_json() leave it at its default).
  ContentionSpec contention{};

  bool operator==(const RunSpec&) const = default;

  /// The MachineSpec rows of this spec, one per ppc, in request order.
  /// Unvalidated (build_unchecked): a bad row — e.g. ppc 3 with 64
  /// processors — must degrade inside run_sweep into a failed-row result,
  /// not abort the sweep before it starts.
  [[nodiscard]] std::vector<MachineSpec> configs() const;

  /// Canonical JSON object of the service-visible fields (always every
  /// field, sorted as declared).
  [[nodiscard]] std::string to_json() const;

  /// Reads the service-visible fields out of a JSON object, applying this
  /// struct's defaults for absent ones. Ignores unknown fields (the service
  /// envelope adds its own); throws ConfigError on a bad value (unknown
  /// app, bad scale/style, out-of-range or wrongly-typed number).
  [[nodiscard]] static RunSpec from_json(const json::Value& v);

  /// The JSON field names from_json consumes (for enclosing protocols'
  /// unknown-field validation).
  [[nodiscard]] static const std::vector<std::string>& json_fields();
};

}  // namespace csim
