#include "src/report/service.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "src/apps/app.hpp"
#include "src/core/atomic_file.hpp"
#include "src/core/error.hpp"
#include "src/obs/manifest.hpp"
#include "src/report/json.hpp"

namespace csim::serve {

namespace {

/// Strict unsigned parse for shard specs ("03" is fine, "3x" is not).
unsigned long parse_unsigned(const std::string& what, const std::string& s) {
  errno = 0;
  char* end = nullptr;
  const unsigned long n = std::strtoul(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE) {
    throw ConfigError(what + ": not a number: '" + s + "'");
  }
  return n;
}

}  // namespace

// ---------------------------------------------------------------- sharding

std::string ShardSpec::label() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

ShardSpec parse_shard(const std::string& spec) {
  const std::size_t slash = spec.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= spec.size()) {
    throw ConfigError("--shard: expected k/N, got '" + spec + "'");
  }
  ShardSpec s;
  const unsigned long k = parse_unsigned("--shard", spec.substr(0, slash));
  const unsigned long n = parse_unsigned("--shard", spec.substr(slash + 1));
  if (n == 0 || n > 4096) {
    throw ConfigError("--shard: count out of range (1..4096): '" + spec +
                      "'");
  }
  if (k >= n) {
    throw ConfigError("--shard: index must satisfy 0 <= k < N: '" + spec +
                      "'");
  }
  s.index = static_cast<unsigned>(k);
  s.count = static_cast<unsigned>(n);
  return s;
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
  if (cnt < 1 || cnt > 4096 || idx < 0 || idx >= cnt) {
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
  for (std::size_t i = 0; i < rows_total; ++i) {
    if (covered[i] == 0) {
      throw ConfigError("merge: row index " + std::to_string(i) +
                        " is missing from every shard");
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

// ----------------------------------------------------------- result cache

void ResultCache::touch(Entry& e) {
  lru_.splice(lru_.begin(), lru_, e.lru);  // iterators stay valid
}

std::optional<JournalHit> ResultCache::lookup(
    std::uint64_t digest, const MachineSpec& cfg, std::string_view app,
    ProblemScale scale, std::vector<std::string>* warnings) {
  const auto it = memory_.find(digest);
  if (it == memory_.end()) return std::nullopt;
  touch(it->second);
  const JournalRecord& rec = it->second.record;
  std::string why;
  std::optional<SimResult> r = verified_journal_result(rec, cfg, app, scale, why);
  if (!r) {
    if (warnings != nullptr) {
      warnings->push_back("cache: record " + obs::digest_hex(digest) + " " +
                          why + "; re-simulating");
    }
    return std::nullopt;
  }
  return JournalHit{std::move(*r), rec.attempts};
}

void ResultCache::insert(const SimResult& r, std::uint32_t attempts) {
  if (!r.ok) return;
  JournalRecord rec = journal_record_from_result(r, attempts);
  const std::uint64_t digest = rec.config_digest;
  const auto it = memory_.find(digest);
  if (it != memory_.end()) {
    it->second.record = std::move(rec);
    touch(it->second);
    return;
  }
  lru_.push_front(digest);
  memory_.emplace(digest, Entry{std::move(rec), lru_.begin()});
  if (max_ != 0 && memory_.size() > max_) {
    memory_.erase(lru_.back());
    lru_.pop_back();
  }
}

// -------------------------------------------------------- service session

namespace {

/// Fields of the service envelope, on top of RunSpec::json_fields().
constexpr const char* kEnvelopeFields[] = {"type", "id", "csv_out"};

}  // namespace

ServiceRequest parse_service_request(const json::Value& v) {
  if (!v.is_object()) jsonreq::fail("document is not an object");
  const std::vector<std::string>& spec_fields = RunSpec::json_fields();
  for (const auto& [key, value] : v.as_object()) {
    const bool known =
        std::find(spec_fields.begin(), spec_fields.end(), key) !=
            spec_fields.end() ||
        std::any_of(std::begin(kEnvelopeFields), std::end(kEnvelopeFields),
                    [&k = key](const char* f) { return k == f; });
    if (!known) jsonreq::fail("unknown field '" + key + "'");
  }
  ServiceRequest req;
  static_cast<RunSpec&>(req) = RunSpec::from_json(v);
  req.id = jsonreq::get_string(v, "id", "");
  req.csv_out = jsonreq::get_string(v, "csv_out", "");
  return req;
}

namespace {

std::string error_line(const std::string& id, const std::string& what) {
  return "{\"type\":\"error\",\"id\":" + json::quoted(id) +
         ",\"error\":" + json::quoted(what) + "}";
}

std::string warning_line(const std::string& id, const std::string& what) {
  return "{\"type\":\"warning\",\"id\":" + json::quoted(id) +
         ",\"message\":" + json::quoted(what) + "}";
}

/// One `row` line; `tier` names the cache tier that served the row, null
/// for a simulated row.
std::string row_line(const std::string& id, std::size_t global_index,
                     std::uint64_t digest, const SimResult& r,
                     const RowOutcome& oc, const char* tier) {
  std::ostringstream os;
  os << "{\"type\":\"row\",\"id\":" << json::quoted(id)
     << ",\"index\":" << global_index << ",\"digest\":\""
     << obs::digest_hex(digest) << "\",\"app\":" << json::quoted(r.app_name)
     << ",\"scale\":\"" << to_string(r.scale) << "\",\"procs\":"
     << r.config.num_procs << ",\"ppc\":" << r.config.procs_per_cluster
     << ",\"status\":\"" << to_string(oc.status) << "\",\"attempts\":"
     << oc.attempts << ",\"from_cache\":" << (tier ? "true" : "false");
  if (tier != nullptr) os << ",\"tier\":\"" << tier << "\"";
  if (r.ok) {
    const TimeBuckets a = r.aggregate();
    os << ",\"wall_time\":" << r.wall_time << ",\"events\":" << r.events
       << ",\"cpu\":" << a.cpu << ",\"load\":" << a.load
       << ",\"merge\":" << a.merge << ",\"sync\":" << a.sync
       << ",\"contention\":" << a.contention
       << ",\"reads\":" << r.totals.reads << ",\"writes\":" << r.totals.writes
       << ",\"read_misses\":" << r.totals.read_misses
       << ",\"write_misses\":" << r.totals.write_misses;
    char host[40];
    std::snprintf(host, sizeof host, ",\"host_seconds\":%.6f",
                  r.host_seconds);
    os << host << ",\"result_digest\":\""
       << obs::digest_hex(obs::result_digest(r)) << "\"";
  } else {
    os << ",\"error_kind\":" << json::quoted(r.error_kind)
       << ",\"error\":" << json::quoted(r.error);
  }
  os << "}";
  return os.str();
}

}  // namespace

ServiceSession::ServiceSession(ServiceConfig cfg)
    : cfg_(std::move(cfg)), cache_(cfg_.cache_max) {}

LineAction ServiceSession::handle_line(std::string_view line,
                                       const Emit& emit) {
  // Blank frames (keep-alives, trailing newlines) are ignored, not errors.
  if (line.find_first_not_of(" \t\r\n") == std::string_view::npos) {
    return LineAction::Continue;
  }
  json::Value doc;
  try {
    doc = json::parse(line);
  } catch (const std::exception& e) {
    emit(error_line("", std::string("malformed frame: ") + e.what()));
    return LineAction::Continue;
  }
  // Best-effort id for error responses even when validation fails later.
  std::string id;
  if (const json::Value* f = doc.find("id"); f != nullptr && f->is_string()) {
    id = f->as_string();
  }
  const json::Value* type = doc.find("type");
  const std::string kind =
      type != nullptr && type->is_string() ? type->as_string() : "sweep";
  if (kind == "ping") {
    emit("{\"type\":\"pong\",\"id\":" + json::quoted(id) + "}");
    return LineAction::Continue;
  }
  if (kind == "shutdown") {
    emit("{\"type\":\"bye\",\"id\":" + json::quoted(id) + "}");
    return LineAction::Shutdown;
  }
  if (kind != "sweep") {
    emit(error_line(id, "unknown request type '" + kind + "'"));
    return LineAction::Continue;
  }
  try {
    const ServiceRequest req = parse_service_request(doc);
    run_request(req, emit);
  } catch (const std::exception& e) {
    emit(error_line(id, e.what()));
  }
  return LineAction::Continue;
}

void ServiceSession::run_request(const ServiceRequest& sreq,
                                 const Emit& emit) {
  // The app's canonical identity keys every digest; the registry name was
  // validated at parse time, so this cannot throw for an unknown app.
  std::string app_name;
  ProblemScale scale = sreq.scale;
  {
    const std::unique_ptr<Program> probe = make_app(sreq.app, sreq.scale);
    app_name = probe->name();
    scale = probe->scale();
  }
  const std::vector<MachineSpec> configs = sreq.configs();
  const ShardSelection sel =
      select_shard(configs, app_name, scale, cfg_.shard);

  // The shard's rows in request order, parallel to sel.indices.
  SweepResult out;
  out.rows.resize(sel.indices.size());
  out.outcomes.resize(sel.indices.size());
  std::vector<std::size_t> misses;  // rows the memory tier cannot serve
  std::size_t memory_hits = 0;
  std::size_t journal_hits = 0;
  std::vector<std::string> warnings;
  for (std::size_t i = 0; i < sel.indices.size(); ++i) {
    const std::uint64_t digest = sel.digests[i];
    std::optional<JournalHit> hit =
        cache_.lookup(digest, configs[sel.indices[i]], app_name, scale,
                      &warnings);
    if (!hit) {
      misses.push_back(i);
      continue;
    }
    ++memory_hits;
    out.rows[i] = std::move(hit->result);
    out.outcomes[i] =
        RowOutcome{RowOutcome::Status::Ok, hit->attempts, false, digest};
    emit(row_line(sreq.id, sel.indices[i], digest, out.rows[i],
                  out.outcomes[i], "memory"));
  }
  for (const std::string& w : warnings) emit(warning_line(sreq.id, w));

  if (!misses.empty()) {
    SweepRequest req;
    req.make_app = [app = sreq.app, req_scale = sreq.scale] {
      return make_app(app, req_scale);
    };
    req.configs.reserve(misses.size());
    for (std::size_t i : misses) req.configs.push_back(configs[sel.indices[i]]);
    // The journal tier: resume serves every row the journal holds with one
    // read by digest, and the write-ahead append makes each simulated row
    // durable (and a future hit) the moment it completes, so a kill -9
    // mid-sweep loses at most in-flight rows — the CI service-smoke job
    // proves this end to end.
    req.policy.journal_dir = cfg_.journal_dir;
    req.policy.resume = true;
    req.on_row = [&](std::size_t k, const SimResult& r,
                     const RowOutcome& oc) {
      const std::size_t i = misses[k];
      out.rows[i] = r;
      out.outcomes[i] = oc;
      if (oc.from_journal) ++journal_hits;
      cache_.insert(r, oc.attempts);  // promotes journal hits to memory
      emit(row_line(sreq.id, sel.indices[i], sel.digests[i], r, oc,
                    oc.from_journal ? "journal" : nullptr));
    };
    const SweepResult swept = run_sweep(req);
    for (const std::string& w : swept.journal_warnings) {
      emit(warning_line(sreq.id, w));
    }
  }

  if (!sreq.csv_out.empty()) {
    atomic_write_file(sreq.csv_out,
                      [&](std::ostream& os) { write_csv(os, out); });
  }

  std::ostringstream done;
  done << "{\"type\":\"done\",\"id\":" << json::quoted(sreq.id)
       << ",\"app\":" << json::quoted(app_name) << ",\"rows_total\":"
       << sel.rows_total << ",\"rows_in_shard\":" << out.size()
       << ",\"cache_hits\":" << memory_hits + journal_hits
       << ",\"memory_hits\":" << memory_hits
       << ",\"journal_hits\":" << journal_hits
       << ",\"failures\":" << out.failures() << ",\"shard\":\""
       << cfg_.shard.label() << "\",\"sweep_digest\":\""
       << obs::digest_hex(obs::sweep_digest(out.rows)) << "\"";
  if (!sreq.csv_out.empty()) {
    done << ",\"csv\":" << json::quoted(sreq.csv_out);
  }
  done << "}";
  emit(done.str());
}

}  // namespace csim::serve
