#include "src/report/shard.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

#include "src/core/error.hpp"
#include "src/obs/manifest.hpp"
#include "src/report/json.hpp"

namespace csim {

std::string ShardSpec::label() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

unsigned shard_of(std::uint64_t config_digest, unsigned count) noexcept {
  if (count <= 1) return 0;
  // FNV-1a output is well mixed, so a plain modulus spreads uniformly.
  return static_cast<unsigned>(config_digest % count);
}

ShardSelection select_shard(const std::vector<MachineSpec>& configs,
                            std::string_view app, ProblemScale scale,
                            const ShardSpec& shard) {
  ShardSelection sel;
  sel.rows_total = configs.size();
  sel.indices.reserve(configs.size());
  sel.digests.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::uint64_t d = obs::config_digest(configs[i], app, scale);
    if (shard_of(d, shard.count) != shard.index) continue;
    sel.indices.push_back(i);
    sel.digests.push_back(d);
  }
  return sel;
}

// ------------------------------------------------- shard merge artifacts

std::string write_shard_manifest(const ShardManifest& m) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"csim.shard/1\",\n";
  os << "  \"shard\": {\"index\": " << m.shard.index
     << ", \"count\": " << m.shard.count << "},\n";
  os << "  \"rows_total\": " << m.rows_total << ",\n";
  os << "  \"csv\": " << json::quoted(m.csv_path) << ",\n";
  os << "  \"rows\": [\n";
  for (std::size_t i = 0; i < m.rows.size(); ++i) {
    const ShardRowRef& r = m.rows[i];
    os << "    {\"index\": " << r.index << ", \"digest\": \""
       << obs::digest_hex(r.digest) << "\", \"csv_line\": " << r.csv_line
       << "}" << (i + 1 < m.rows.size() ? "," : "") << '\n';
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

namespace {

/// Field accessors over a parsed shard manifest; every failure names the
/// originating file and field.
[[noreturn]] void manifest_fail(const std::string& origin,
                                const std::string& what) {
  throw ConfigError("shard manifest " + origin + ": " + what);
}

/// An integer field, within ±2^53 so that every cast of it is exact.
double require_number(const json::Value& v, const std::string& key,
                      const std::string& origin) {
  const json::Value* f = v.find(key);
  if (f == nullptr || !f->is_number()) {
    manifest_fail(origin, "missing or non-numeric field '" + key + "'");
  }
  const double d = f->as_number();
  if (d != std::floor(d)) {
    manifest_fail(origin, "field '" + key + "' is not an integer");
  }
  if (std::fabs(d) > 0x1p53) {
    manifest_fail(origin, "field '" + key + "' is out of range");
  }
  return d;
}

std::uint64_t parse_digest_hex(const std::string& hex,
                               const std::string& origin) {
  if (hex.size() != 16 ||
      hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
    manifest_fail(origin, "bad digest '" + hex + "'");
  }
  return std::strtoull(hex.c_str(), nullptr, 16);
}

}  // namespace

ShardManifest parse_shard_manifest(std::string_view text,
                                   const std::string& origin) {
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const ConfigError& e) {
    manifest_fail(origin, e.what());
  }
  if (!doc.is_object()) manifest_fail(origin, "document is not an object");
  const json::Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "csim.shard/1") {
    manifest_fail(origin, "schema is not csim.shard/1");
  }
  ShardManifest m;
  const json::Value* shard = doc.find("shard");
  if (shard == nullptr || !shard->is_object()) {
    manifest_fail(origin, "missing 'shard' object");
  }
  const double idx = require_number(*shard, "index", origin);
  const double cnt = require_number(*shard, "count", origin);
  if (cnt < 1 || cnt > kMaxShards || idx < 0 || idx >= cnt) {
    manifest_fail(origin, "shard index/count out of range");
  }
  m.shard.index = static_cast<unsigned>(idx);
  m.shard.count = static_cast<unsigned>(cnt);
  const double total = require_number(doc, "rows_total", origin);
  if (total < 0) manifest_fail(origin, "rows_total is negative");
  m.rows_total = static_cast<std::size_t>(total);
  const json::Value* csv = doc.find("csv");
  if (csv == nullptr || !csv->is_string() || csv->as_string().empty()) {
    manifest_fail(origin, "missing 'csv' path");
  }
  m.csv_path = csv->as_string();
  const json::Value* rows = doc.find("rows");
  if (rows == nullptr || !rows->is_array()) {
    manifest_fail(origin, "missing 'rows' array");
  }
  for (const json::Value& rv : rows->as_array()) {
    if (!rv.is_object()) manifest_fail(origin, "row entry is not an object");
    ShardRowRef ref;
    const double index = require_number(rv, "index", origin);
    if (index < 0) manifest_fail(origin, "row index is negative");
    ref.index = static_cast<std::size_t>(index);
    const json::Value* dig = rv.find("digest");
    if (dig == nullptr || !dig->is_string()) {
      manifest_fail(origin, "row missing 'digest'");
    }
    ref.digest = parse_digest_hex(dig->as_string(), origin);
    const double line = require_number(rv, "csv_line", origin);
    if (line < -1) manifest_fail(origin, "row csv_line below -1");
    ref.csv_line = static_cast<long>(line);
    m.rows.push_back(ref);
  }
  return m;
}

namespace {

/// Lines of a CSV blob, without their newlines; a trailing newline does not
/// produce a final empty line.
std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

}  // namespace

std::string merge_shard_csvs(const std::vector<ShardManifest>& shards,
                             const std::vector<std::string>& csv_contents) {
  if (shards.empty()) throw ConfigError("merge: no shard manifests given");
  if (csv_contents.size() != shards.size()) {
    throw ConfigError("merge: shard/CSV count mismatch");
  }
  const unsigned count = shards[0].shard.count;
  const std::size_t rows_total = shards[0].rows_total;
  if (shards.size() != count) {
    throw ConfigError("merge: have " + std::to_string(shards.size()) +
                      " shards but the spec says " + std::to_string(count));
  }
  std::vector<char> shard_seen(count, 0);
  std::vector<std::vector<std::string_view>> lines(shards.size());
  std::size_t rows_listed = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const ShardManifest& m = shards[s];
    if (m.shard.count != count) {
      throw ConfigError("merge: shard " + m.shard.label() +
                        " disagrees on the shard count");
    }
    if (m.rows_total != rows_total) {
      throw ConfigError("merge: shard " + m.shard.label() +
                        " disagrees on the full sweep's row count");
    }
    if (shard_seen[m.shard.index] != 0) {
      throw ConfigError("merge: shard " + m.shard.label() + " given twice");
    }
    shard_seen[m.shard.index] = 1;
    rows_listed += m.rows.size();
    lines[s] = split_lines(csv_contents[s]);
    if (lines[s].empty()) {
      throw ConfigError("merge: shard " + m.shard.label() +
                        " CSV has no header line");
    }
    if (lines[s][0] != lines[0][0]) {
      throw ConfigError("merge: shard " + m.shard.label() +
                        " CSV header differs from shard " +
                        shards[0].shard.label() + "'s (schema drift)");
    }
  }
  // Checked before rows_total sizes anything. With the counts equal, the
  // range and claimed-twice checks below leave no row index uncovered.
  if (rows_listed != rows_total) {
    throw ConfigError("merge: the shards list " + std::to_string(rows_listed) +
                      " rows but rows_total is " + std::to_string(rows_total));
  }

  std::unordered_map<std::uint64_t, unsigned> digest_owner;
  std::vector<const std::string_view*> out_rows(rows_total, nullptr);
  std::vector<char> covered(rows_total, 0);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const ShardManifest& m = shards[s];
    const std::size_t data_lines = lines[s].size() - 1;
    std::vector<char> used(data_lines, 0);
    for (const ShardRowRef& ref : m.rows) {
      if (shard_of(ref.digest, count) != m.shard.index) {
        throw ConfigError("merge: digest " + obs::digest_hex(ref.digest) +
                          " does not belong to shard " + m.shard.label());
      }
      if (!digest_owner.emplace(ref.digest, m.shard.index).second) {
        throw ConfigError("merge: digest " + obs::digest_hex(ref.digest) +
                          " appears in more than one shard");
      }
      if (ref.index >= rows_total) {
        throw ConfigError("merge: row index " + std::to_string(ref.index) +
                          " exceeds rows_total");
      }
      if (covered[ref.index] != 0) {
        throw ConfigError("merge: row index " + std::to_string(ref.index) +
                          " claimed by two shards");
      }
      covered[ref.index] = 1;
      if (ref.csv_line < 0) continue;  // failed row: not in any CSV
      const auto line = static_cast<std::size_t>(ref.csv_line);
      if (line >= data_lines) {
        throw ConfigError("merge: shard " + m.shard.label() +
                          " references CSV line " + std::to_string(line) +
                          " beyond its " + std::to_string(data_lines) +
                          " data lines");
      }
      if (used[line] != 0) {
        throw ConfigError("merge: shard " + m.shard.label() + " CSV line " +
                          std::to_string(line) + " referenced twice");
      }
      used[line] = 1;
      out_rows[ref.index] = &lines[s][1 + line];
    }
    for (std::size_t l = 0; l < data_lines; ++l) {
      if (used[l] == 0) {
        throw ConfigError("merge: shard " + m.shard.label() + " CSV line " +
                          std::to_string(l) +
                          " is not referenced by its manifest");
      }
    }
  }

  std::string out;
  out.reserve(csv_contents[0].size() * shards.size());
  out.append(lines[0][0]);
  out.push_back('\n');
  for (std::size_t i = 0; i < rows_total; ++i) {
    if (out_rows[i] == nullptr) continue;  // failed row, skipped like write_csv
    out.append(*out_rows[i]);
    out.push_back('\n');
  }
  return out;
}

}  // namespace csim
