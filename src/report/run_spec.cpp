#include "src/report/run_spec.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/apps/app.hpp"
#include "src/core/error.hpp"
#include "src/report/json.hpp"

namespace csim {

namespace jsonreq {

void fail(const std::string& what) { throw ConfigError("request: " + what); }

std::string get_string(const json::Value& v, const char* key,
                       std::string fallback) {
  const json::Value* f = v.find(key);
  if (f == nullptr) return fallback;
  if (!f->is_string()) {
    fail(std::string("field '") + key + "' must be a string");
  }
  return f->as_string();
}

std::uint64_t as_integer(const json::Value& f, const char* key,
                         FieldRange range) {
  if (!f.is_number()) {
    fail(std::string("field '") + key + "' must be a number");
  }
  const double d = f.as_number();
  if (d != std::floor(d) || d < 0) {
    fail(std::string("field '") + key + "' must be a non-negative integer");
  }
  const auto n = static_cast<std::uint64_t>(d);
  if (n < range.min || n > range.max) {
    fail(std::string("field '") + key + "' out of range (" +
         std::to_string(range.min) + ".." + std::to_string(range.max) + ")");
  }
  return n;
}

std::uint64_t get_integer(const json::Value& v, const char* key,
                          std::uint64_t fallback, FieldRange range) {
  const json::Value* f = v.find(key);
  if (f == nullptr) return fallback;
  return as_integer(*f, key, range);
}

bool get_bool(const json::Value& v, const char* key, bool fallback) {
  const json::Value* f = v.find(key);
  if (f == nullptr) return fallback;
  if (!f->is_bool()) {
    fail(std::string("field '") + key + "' must be a boolean");
  }
  return f->as_bool();
}

}  // namespace jsonreq

bool known_app(std::string_view name) {
  const std::vector<std::string> names = app_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::optional<ProblemScale> scale_named(std::string_view name) {
  if (name == "test") return ProblemScale::Test;
  if (name == "default") return ProblemScale::Default;
  if (name == "paper") return ProblemScale::Paper;
  return std::nullopt;
}

std::optional<ClusterStyle> style_named(std::string_view name) {
  if (name == "cache") return ClusterStyle::SharedCache;
  if (name == "memory") return ClusterStyle::SharedMemory;
  return std::nullopt;
}

std::vector<MachineSpec> RunSpec::configs() const {
  std::vector<MachineSpec> out;
  out.reserve(ppcs.size());
  for (unsigned ppc : ppcs) {
    out.push_back(MachineSpecBuilder{}
                      .procs(procs)
                      .procs_per_cluster(ppc)
                      .cache_kb(cache_kb)
                      .associativity(assoc)
                      .line_bytes(line_bytes)
                      .style(style)
                      .runahead_quantum(quantum)
                      .model_shared_hit_costs(hit_costs)
                      .contention(contention)
                      .build_unchecked());
  }
  return out;
}

std::string RunSpec::to_json() const {
  std::ostringstream os;
  os << "{\"app\":" << json::quoted(app) << ",\"scale\":\"" << to_string(scale)
     << "\",\"procs\":" << procs << ",\"ppc\":[";
  for (std::size_t i = 0; i < ppcs.size(); ++i) {
    if (i != 0) os << ',';
    os << ppcs[i];
  }
  os << "],\"cache_kb\":" << cache_kb << ",\"assoc\":" << assoc
     << ",\"line_bytes\":" << line_bytes << ",\"style\":\""
     << (style == ClusterStyle::SharedMemory ? "memory" : "cache")
     << "\",\"quantum\":" << quantum << ",\"hit_costs\":"
     << (hit_costs ? "true" : "false") << '}';
  return os.str();
}

RunSpec RunSpec::from_json(const json::Value& v) {
  if (!v.is_object()) jsonreq::fail("document is not an object");
  RunSpec spec;
  spec.app = jsonreq::get_string(v, "app", spec.app);
  if (!known_app(spec.app)) jsonreq::fail("unknown app '" + spec.app + "'");
  const std::optional<ProblemScale> scale =
      scale_named(jsonreq::get_string(v, "scale", "default"));
  if (!scale) jsonreq::fail("field 'scale' must be test, default, or paper");
  spec.scale = *scale;
  spec.procs = static_cast<unsigned>(
      jsonreq::get_integer(v, "procs", 64, kProcsRange));
  if (const json::Value* ppc = v.find("ppc"); ppc != nullptr) {
    if (!ppc->is_array() || ppc->as_array().empty()) {
      jsonreq::fail("field 'ppc' must be a non-empty array");
    }
    spec.ppcs.clear();
    for (const json::Value& e : ppc->as_array()) {
      spec.ppcs.push_back(
          static_cast<unsigned>(jsonreq::as_integer(e, "ppc", kProcsRange)));
    }
  }
  spec.cache_kb = jsonreq::get_integer(v, "cache_kb", 0, kCacheKbRange);
  spec.assoc =
      static_cast<unsigned>(jsonreq::get_integer(v, "assoc", 0, kAssocRange));
  spec.line_bytes = static_cast<unsigned>(
      jsonreq::get_integer(v, "line_bytes", 64, kLineBytesRange));
  const std::optional<ClusterStyle> style =
      style_named(jsonreq::get_string(v, "style", "cache"));
  if (!style) jsonreq::fail("field 'style' must be cache or memory");
  spec.style = *style;
  spec.quantum = jsonreq::get_integer(v, "quantum", 32, kQuantumRange);
  spec.hit_costs = jsonreq::get_bool(v, "hit_costs", false);
  return spec;
}

const std::vector<std::string>& RunSpec::json_fields() {
  static const std::vector<std::string> fields = {
      "app",   "scale",      "procs", "ppc",     "cache_kb",
      "assoc", "line_bytes", "style", "quantum", "hit_costs"};
  return fields;
}

}  // namespace csim
