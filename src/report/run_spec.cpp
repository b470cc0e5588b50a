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
                         std::uint64_t min, std::uint64_t max) {
  if (!f.is_number()) {
    fail(std::string("field '") + key + "' must be a number");
  }
  const double d = f.as_number();
  if (d != std::floor(d) || d < 0) {
    fail(std::string("field '") + key + "' must be a non-negative integer");
  }
  const auto n = static_cast<std::uint64_t>(d);
  if (n < min || n > max) {
    fail(std::string("field '") + key + "' out of range (" +
         std::to_string(min) + ".." + std::to_string(max) + ")");
  }
  return n;
}

std::uint64_t get_integer(const json::Value& v, const char* key,
                          std::uint64_t fallback, std::uint64_t min,
                          std::uint64_t max) {
  const json::Value* f = v.find(key);
  if (f == nullptr) return fallback;
  return as_integer(*f, key, min, max);
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
  const std::vector<std::string> names = app_names();
  if (std::find(names.begin(), names.end(), spec.app) == names.end()) {
    jsonreq::fail("unknown app '" + spec.app + "'");
  }
  const std::string scale = jsonreq::get_string(v, "scale", "default");
  if (scale == "test") {
    spec.scale = ProblemScale::Test;
  } else if (scale == "default") {
    spec.scale = ProblemScale::Default;
  } else if (scale == "paper") {
    spec.scale = ProblemScale::Paper;
  } else {
    jsonreq::fail("field 'scale' must be test, default, or paper");
  }
  spec.procs =
      static_cast<unsigned>(jsonreq::get_integer(v, "procs", 64, 1, 4096));
  if (const json::Value* ppc = v.find("ppc"); ppc != nullptr) {
    if (!ppc->is_array() || ppc->as_array().empty()) {
      jsonreq::fail("field 'ppc' must be a non-empty array");
    }
    spec.ppcs.clear();
    for (const json::Value& e : ppc->as_array()) {
      spec.ppcs.push_back(
          static_cast<unsigned>(jsonreq::as_integer(e, "ppc", 1, 4096)));
    }
  }
  spec.cache_kb = jsonreq::get_integer(v, "cache_kb", 0, 0, 1u << 20);
  spec.assoc =
      static_cast<unsigned>(jsonreq::get_integer(v, "assoc", 0, 0, 4096));
  spec.line_bytes =
      static_cast<unsigned>(jsonreq::get_integer(v, "line_bytes", 64, 1, 4096));
  const std::string style = jsonreq::get_string(v, "style", "cache");
  if (style == "cache") {
    spec.style = ClusterStyle::SharedCache;
  } else if (style == "memory") {
    spec.style = ClusterStyle::SharedMemory;
  } else {
    jsonreq::fail("field 'style' must be cache or memory");
  }
  spec.quantum = jsonreq::get_integer(v, "quantum", 32, 1, 1u << 30);
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
