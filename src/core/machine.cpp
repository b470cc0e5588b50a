#include "src/core/machine.hpp"

#include <bit>

#include "src/core/error.hpp"

namespace csim {

void MachineSpec::validate() const {
  if (num_procs == 0) throw ConfigError("num_procs must be > 0");
  if (procs_per_cluster == 0 || num_procs % procs_per_cluster != 0) {
    throw ConfigError(
        "procs_per_cluster must divide num_procs evenly");
  }
  if (cache.line_bytes == 0 || !std::has_single_bit(cache.line_bytes)) {
    throw ConfigError("line_bytes must be a power of two");
  }
  if (page_bytes == 0 || !std::has_single_bit(page_bytes) ||
      page_bytes < cache.line_bytes) {
    throw ConfigError("page_bytes must be a power of two >= line size");
  }
  if (!cache.infinite()) {
    if (cache.per_proc_bytes % cache.line_bytes != 0) {
      throw ConfigError("cache size must be a multiple of line size");
    }
    const std::size_t lines = cluster_cache_lines();
    if (lines == 0) throw ConfigError("cache has zero lines");
    if (cache.associativity != 0 && lines % cache.associativity != 0) {
      throw ConfigError("lines must be a multiple of associativity");
    }
  }
  if (hit_latency == 0) throw ConfigError("hit_latency must be >= 1");
  if (runahead_quantum == 0) {
    throw ConfigError("runahead_quantum must be >= 1");
  }
  if (num_clusters() > 64) {
    throw ConfigError("at most 64 clusters (directory bit vector)");
  }
  if (max_host_seconds < 0) {
    throw ConfigError("max_host_seconds must be >= 0 (0 = unlimited)");
  }
  if (sampling.enabled) {
    if (sampling.warm_quantum == 0) {
      throw ConfigError("sampling.warm_quantum must be >= 1");
    }
    if (sampling.detail_refs == 0 && !sampling.detail_at.empty() &&
        sampling.detail_at.size() > 1) {
      throw ConfigError(
          "sampling.detail_refs == 0 (detailed to end) allows at most one "
          "detail_at point");
    }
    if (sampling.period_refs != 0 &&
        sampling.period_refs < sampling.detail_refs) {
      throw ConfigError(
          "sampling.period_refs must be >= detail_refs (intervals overlap)");
    }
    std::uint64_t prev = 0;
    bool first = true;
    for (const std::uint64_t at : sampling.detail_at) {
      if (at < sampling.warmup_refs) {
        throw ConfigError(
            "sampling.detail_at points must be >= warmup_refs");
      }
      if (!first && at < prev + sampling.detail_refs) {
        throw ConfigError(
            "sampling.detail_at points must be increasing with gaps >= "
            "detail_refs");
      }
      prev = at;
      first = false;
    }
    if (!sampling.checkpoint_dir.empty() && sampling.warmup_refs == 0) {
      throw ConfigError(
          "sampling.checkpoint_dir needs warmup_refs > 0 (the checkpoint is "
          "the warmup-boundary state)");
    }
  }
  if (model_shared_hit_costs && banks_per_proc == 0) {
    // Table 4's conflict probability divides by m = banks_per_proc * ppc.
    throw ConfigError("shared-cache hit-cost model needs banks_per_proc >= 1");
  }
  if (contention.enabled) {
    if (banks_per_proc == 0) {
      throw ConfigError("contention model needs banks_per_proc >= 1");
    }
    if (contention.bank_busy == 0 || contention.directory_busy == 0 ||
        contention.nic_busy == 0) {
      throw ConfigError("contention busy times must be >= 1 cycle");
    }
  }
}

std::string MachineSpec::label() const {
  std::string s = std::to_string(num_procs) + "p/" +
                  std::to_string(procs_per_cluster) + "ppc/";
  if (cache.infinite()) {
    s += "inf";
  } else {
    s += std::to_string(cache.per_proc_bytes / 1024) + "KB";
  }
  return s;
}

}  // namespace csim
