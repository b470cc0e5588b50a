#include "src/obs/manifest.hpp"

#include <cstdio>
#include <ostream>

#include "src/core/atomic_file.hpp"
#include "src/obs/build_info.hpp"
#include "src/report/experiment.hpp"
#include "src/report/json.hpp"

namespace csim::obs {

namespace {

void hash_counters(Fnv1a& f, const MissCounters& c) {
  for (const auto field : kMissCounterFields) f.u64(c.*field);
  for (const std::uint64_t v : c.by_class) f.u64(v);
}

void hash_buckets(Fnv1a& f, const TimeBuckets& b) {
  for (const auto field : kTimeBucketFields) f.u64(b.*field);
}

const char* style_name(ClusterStyle s) {
  return s == ClusterStyle::SharedMemory ? "shared_memory" : "shared_cache";
}

}  // namespace

std::uint64_t config_digest(const MachineSpec& cfg, std::string_view app,
                            ProblemScale scale) {
  Fnv1a f;
  f.str(app);
  f.byte(static_cast<std::uint8_t>(scale));
  f.u64(cfg.num_procs);
  f.u64(cfg.procs_per_cluster);
  f.byte(static_cast<std::uint8_t>(cfg.cluster_style));
  f.u64(cfg.cache.per_proc_bytes);
  f.u64(cfg.cache.line_bytes);
  f.u64(cfg.cache.associativity);
  f.u64(cfg.latency.local_clean);
  f.u64(cfg.latency.local_dirty_remote);
  f.u64(cfg.latency.remote_clean);
  f.u64(cfg.latency.remote_dirty_third);
  f.u64(cfg.latency.snoop_transfer);
  f.u64(cfg.latency.cluster_memory);
  f.u64(cfg.hit_latency);
  f.byte(cfg.model_shared_hit_costs ? 1 : 0);
  f.u64(cfg.banks_per_proc);
  f.byte(cfg.contention.enabled ? 1 : 0);
  f.u64(cfg.contention.bank_busy);
  f.u64(cfg.contention.directory_busy);
  f.u64(cfg.contention.nic_busy);
  f.u64(cfg.page_bytes);
  f.u64(cfg.runahead_quantum);
  // Appended only when sampling is on: every digest of an unsampled
  // configuration hashes the exact byte stream it always has (the golden
  // digest suite pins this), and journal entries from older builds stay
  // valid cache hits.
  if (cfg.sampling.enabled) {
    f.byte(1);
    f.u64(cfg.sampling.warmup_refs);
    f.u64(cfg.sampling.detail_refs);
    f.u64(cfg.sampling.period_refs);
    f.u64(cfg.sampling.detail_at.size());
    for (std::uint64_t at : cfg.sampling.detail_at) f.u64(at);
    f.u64(cfg.sampling.warm_quantum);
  }
  return f.h;
}

std::uint64_t warm_config_digest(const MachineSpec& cfg, std::string_view app,
                                 ProblemScale scale) {
  Fnv1a f;
  f.str(app);
  f.byte(static_cast<std::uint8_t>(scale));
  f.u64(cfg.num_procs);
  f.u64(cfg.procs_per_cluster);
  f.byte(static_cast<std::uint8_t>(cfg.cluster_style));
  f.u64(cfg.cache.per_proc_bytes);
  f.u64(cfg.cache.line_bytes);
  f.u64(cfg.cache.associativity);
  f.u64(cfg.page_bytes);
  f.u64(cfg.hit_latency);
  f.byte(cfg.model_shared_hit_costs ? 1 : 0);
  f.u64(cfg.banks_per_proc);
  f.u64(cfg.sampling.warm_quantum);
  // The effective warmup boundary: explicit detail_at points override the
  // periodic schedule, so the first of them is where warming ends.
  f.u64(cfg.sampling.detail_at.empty() ? cfg.sampling.warmup_refs
                                       : cfg.sampling.detail_at[0]);
  return f.h;
}

std::uint64_t result_digest(const SimResult& r) {
  Fnv1a f;
  f.str(r.app_name);
  f.byte(static_cast<std::uint8_t>(r.scale));
  f.u64(r.config.num_procs);
  f.u64(r.config.procs_per_cluster);
  f.byte(static_cast<std::uint8_t>(r.config.cluster_style));
  f.u64(r.config.cache.per_proc_bytes);
  f.u64(r.config.cache.line_bytes);
  f.u64(r.config.cache.associativity);
  f.u64(r.config.hit_latency);
  f.u64(r.config.runahead_quantum);
  f.byte(r.config.model_shared_hit_costs ? 1 : 0);
  f.byte(r.ok ? 1 : 0);
  if (!r.ok) {
    f.str(r.error_kind);
    return f.h;
  }
  f.u64(r.wall_time);
  f.u64(r.events);
  hash_counters(f, r.totals);
  f.u64(r.per_proc.size());
  for (const TimeBuckets& b : r.per_proc) hash_buckets(f, b);
  f.u64(r.per_cluster.size());
  for (const MissCounters& c : r.per_cluster) hash_counters(f, c);
  // Appended only for sampled rows: unsampled results hash the exact byte
  // stream they always have (golden digests unchanged).
  if (r.sampled) {
    f.byte(1);
    f.u64(r.detailed_refs);
  }
  return f.h;
}

std::uint64_t sweep_digest(const std::vector<SimResult>& rows) {
  Fnv1a f;
  f.u64(rows.size());
  for (const SimResult& r : rows) f.u64(result_digest(r));
  return f.h;
}

void write_run_manifest(std::ostream& os, const std::string& tool,
                        const SweepResult& sweep, std::time_t generated_unix,
                        const SweepProvenance& prov) {
  const std::vector<SimResult>& rows = sweep.rows;
  os << "{\n";
  os << "  \"schema\": \"csim.run_manifest/5\",\n";
  os << "  \"tool\": \"" << json::escape(tool) << "\",\n";
  os << "  \"git\": \"" << json::escape(git_describe()) << "\",\n";
  os << "  \"generated_unix\": " << static_cast<long long>(generated_unix)
     << ",\n";
  os << "  \"shard\": {\"index\": " << prov.shard_index
     << ", \"count\": " << prov.shard_count
     << ", \"rows_total\": " << prov.rows_total << "},\n";
  os << "  \"cache_hits\": " << prov.cache_hits << ",\n";
  os << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SimResult& r = rows[i];
    os << "    {\"app\": \"" << json::escape(r.app_name)
       << "\", \"scale\": \"" << to_string(r.scale)
       << "\", \"ok\": " << (r.ok ? "true" : "false")
       << ",\n     \"config\": {\"label\": \""
       << json::escape(r.config.label())
       << "\", \"procs\": " << r.config.num_procs
       << ", \"ppc\": " << r.config.procs_per_cluster << ", \"style\": \""
       << style_name(r.config.cluster_style)
       << "\", \"cache_bytes\": " << r.config.cache.per_proc_bytes
       << ", \"line_bytes\": " << r.config.cache.line_bytes
       << ", \"assoc\": " << r.config.cache.associativity
       << ", \"quantum\": " << r.config.runahead_quantum << "},\n";
    if (r.ok) {
      os << "     \"wall_time\": " << r.wall_time
         << ", \"events\": " << r.events;
      if (r.sampled) {
        char cov[32];
        std::snprintf(cov, sizeof cov, "%.6f", r.coverage);
        os << ", \"sampled\": true, \"coverage\": " << cov
           << ", \"detailed_refs\": " << r.detailed_refs;
      }
    } else {
      os << "     \"error_kind\": \"" << json::escape(r.error_kind) << "\"";
    }
    char host[32];
    std::snprintf(host, sizeof host, "%.6f", r.host_seconds);
    os << ", \"host_seconds\": " << host << ",\n";
    if (i < sweep.outcomes.size()) {
      const RowOutcome& o = sweep.outcomes[i];
      os << "     \"outcome\": {\"status\": \"" << to_string(o.status)
         << "\", \"attempts\": " << o.attempts << ", \"from_journal\": "
         << (o.from_journal ? "true" : "false") << ", \"config_digest\": \""
         << digest_hex(o.config_digest) << "\"},\n";
    }
    os << "     \"digest\": \"" << digest_hex(result_digest(r)) << "\"}"
       << (i + 1 < rows.size() ? "," : "") << '\n';
  }
  os << "  ],\n";
  if (!sweep.journal_warnings.empty()) {
    os << "  \"journal_warnings\": [\n";
    for (std::size_t i = 0; i < sweep.journal_warnings.size(); ++i) {
      os << "    \"" << json::escape(sweep.journal_warnings[i]) << "\""
         << (i + 1 < sweep.journal_warnings.size() ? "," : "") << '\n';
    }
    os << "  ],\n";
  }
  os << "  \"sweep_digest\": \"" << digest_hex(sweep_digest(rows)) << "\"\n";
  os << "}\n";
}

void write_run_manifest_file(const std::string& path, const std::string& tool,
                             const SweepResult& sweep,
                             const SweepProvenance& prov) {
  atomic_write_file(path, [&](std::ostream& os) {
    write_run_manifest(os, tool, sweep, std::time(nullptr), prov);
  });
}

}  // namespace csim::obs
