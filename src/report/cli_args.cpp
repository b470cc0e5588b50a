#include "src/report/cli_args.hpp"

#include <cerrno>
#include <cstdlib>
#include <optional>
#include <sstream>

#include "src/core/error.hpp"
#include "src/obs/run_observer.hpp"

namespace csim::cli {

namespace {

/// --retries: the default backoff before attempt 17 is already 10 ms << 15,
/// about 5.5 minutes, and past 64 attempts the backoff shift overflows.
constexpr FieldRange kRetriesRange{0, 16};

std::uint64_t parse_in(const std::string& flag, const std::string& val,
                       FieldRange range) {
  const std::uint64_t n = parse_u64(flag, val);
  if (n < range.min || n > range.max) {
    throw ConfigError(flag + ": out of range (" + std::to_string(range.min) +
                      ".." + std::to_string(range.max) + "): '" + val + "'");
  }
  return n;
}

}  // namespace

std::uint64_t parse_u64(const std::string& flag, const std::string& val) {
  // strtoull alone would accept a sign ("-1" wraps) and leading space.
  if (val.empty() || val.find_first_not_of("0123456789") != std::string::npos) {
    throw ConfigError(flag + ": not a number: '" + val + "'");
  }
  errno = 0;
  const unsigned long long n = std::strtoull(val.c_str(), nullptr, 10);
  if (errno == ERANGE) throw ConfigError(flag + ": out of range: '" + val + "'");
  return n;
}

double parse_f64(const std::string& flag, const std::string& val) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(val.c_str(), &end);
  if (end == val.c_str() || *end != '\0' || errno == ERANGE) {
    throw ConfigError(flag + ": not a number: '" + val + "'");
  }
  return v;
}

ShardSpec parse_shard(const std::string& spec) {
  const std::size_t slash = spec.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= spec.size()) {
    throw ConfigError("--shard: expected k/N, got '" + spec + "'");
  }
  const std::uint64_t k = parse_u64("--shard", spec.substr(0, slash));
  const std::uint64_t n = parse_u64("--shard", spec.substr(slash + 1));
  if (n == 0 || n > kMaxShards) {
    throw ConfigError("--shard: count out of range (1.." +
                      std::to_string(kMaxShards) + "): '" + spec + "'");
  }
  if (k >= n) {
    throw ConfigError("--shard: index must satisfy 0 <= k < N: '" + spec +
                      "'");
  }
  return ShardSpec{static_cast<unsigned>(k), static_cast<unsigned>(n)};
}

bool consume_run_flag(RunSpec& spec, int argc, char** argv, int& i) {
  const std::string a = argv[i];
  const auto next = [&]() -> std::string {
    if (i + 1 >= argc) throw ConfigError(a + " requires a value");
    return argv[++i];
  };
  const auto number = [&](FieldRange range) {
    return parse_in(a, next(), range);
  };
  if (a == "--app") {
    spec.app = next();
    if (!known_app(spec.app)) {
      throw ConfigError("--app: unknown app '" + spec.app + "' (see --list)");
    }
  } else if (a == "--scale") {
    const std::optional<ProblemScale> scale = scale_named(next());
    if (!scale) throw ConfigError("--scale must be test, default, or paper");
    spec.scale = *scale;
  } else if (a == "--procs") {
    spec.procs = static_cast<unsigned>(number(kProcsRange));
  } else if (a == "--ppc") {
    std::stringstream ss(next());
    std::string item;
    spec.ppcs.clear();
    while (std::getline(ss, item, ',')) {
      spec.ppcs.push_back(static_cast<unsigned>(parse_in(a, item, kProcsRange)));
    }
    if (spec.ppcs.empty()) throw ConfigError("--ppc requires a value");
  } else if (a == "--cache") {
    spec.cache_kb = number(kCacheKbRange);
  } else if (a == "--assoc") {
    spec.assoc = static_cast<unsigned>(number(kAssocRange));
  } else if (a == "--line") {
    spec.line_bytes = static_cast<unsigned>(number(kLineBytesRange));
  } else if (a == "--style") {
    const std::optional<ClusterStyle> style = style_named(next());
    if (!style) throw ConfigError("--style must be cache or memory");
    spec.style = *style;
  } else if (a == "--quantum") {
    spec.quantum = number(kQuantumRange);
  } else if (a == "--hit-costs") {
    spec.hit_costs = true;
  } else {
    return false;
  }
  return true;
}

const char* ObsArgs::usage() {
  return "  --trace-out FILE      write a Chrome trace-event timeline per row\n"
         "                        (multi-row sweeps write FILE_ppcN variants)\n"
         "  --metrics-interval N  sample interval metrics every N cycles\n"
         "  --metrics-out BASE    interval metrics path base (default: metrics;\n"
         "                        writes BASE[.ppcN].csv and .json)\n"
         "  --manifest FILE       write a run manifest (config, git, digests)\n"
         "  --contention          enable the queued contention model (banks,\n"
         "                        directory occupancy, NIC serialization)\n"
         "  --contention-busy B,D,N  bank/directory/NIC busy cycles\n"
         "                        (implies --contention; defaults 1,4,6)\n"
         "  --journal-dir DIR     journal completed rows to DIR (crash-safe\n"
         "                        sweeps; one digest-keyed record per row)\n"
         "  --resume              with --journal-dir: verify and reuse\n"
         "                        journaled rows instead of re-simulating\n"
         "  --row-deadline S      per-row host wall-clock budget in seconds\n"
         "                        (rows over budget fail as 'timeout')\n"
         "  --retries N           retry rows failing with a retryable error\n"
         "                        (timeout, transient) up to N extra times\n"
         "                        (N <= 16)\n"
         "  --fault-plan FILE     inject deterministic row faults from FILE\n"
         "                        (testing; see src/report/fault_injection.hpp)\n"
         "  --sample W,D,P        interval sampling: functionally warm W refs,\n"
         "                        then measure D refs every P refs (P 0 = one\n"
         "                        interval; miss counters stay exact)\n"
         "  --ckpt-dir DIR        reuse warm-state checkpoints in DIR across\n"
         "                        rows/runs sharing a warm digest (requires\n"
         "                        --sample)\n"
         "  --warm-quantum N      runahead quantum during functional warming\n"
         "                        (default 4096; larger is faster but\n"
         "                        coarsens warm state, and re-keys\n"
         "                        checkpoints; requires --sample)\n"
         "  --shard k/N           run only the rows whose config digest maps\n"
         "                        to shard k of N (multi-host splits; merge\n"
         "                        the artifacts with csim_merge)\n"
         "  --shard-out BASE      write BASE.csv and BASE.json shard-merge\n"
         "                        artifacts (requires --shard)\n";
}

bool ObsArgs::consume(int argc, char** argv, int& i) {
  const std::string a = argv[i];
  const auto next = [&]() -> std::string {
    if (i + 1 >= argc) throw ConfigError(a + " requires a value");
    return argv[++i];
  };
  if (a == "--trace-out") {
    trace_out = next();
  } else if (a == "--metrics-interval") {
    metrics_interval = parse_u64(a, next());
    if (metrics_interval == 0) {
      throw ConfigError("--metrics-interval must be > 0");
    }
  } else if (a == "--metrics-out") {
    metrics_out = next();
  } else if (a == "--manifest") {
    manifest_out = next();
  } else if (a == "--contention") {
    contention.enabled = true;
  } else if (a == "--contention-busy") {
    const std::string val = next();
    std::stringstream ss(val);
    std::string item;
    Cycles* fields[] = {&contention.bank_busy, &contention.directory_busy,
                        &contention.nic_busy};
    unsigned n = 0;
    while (std::getline(ss, item, ',')) {
      if (n >= 3) throw ConfigError("--contention-busy: expected B,D,N");
      *fields[n++] = parse_u64(a, item);
    }
    if (n != 3) throw ConfigError("--contention-busy: expected B,D,N");
    contention.enabled = true;
  } else if (a == "--journal-dir") {
    policy.journal_dir = next();
    if (policy.journal_dir.empty()) {
      throw ConfigError("--journal-dir requires a non-empty directory");
    }
  } else if (a == "--resume") {
    policy.resume = true;
  } else if (a == "--row-deadline") {
    policy.row_deadline_seconds = parse_f64(a, next());
    if (policy.row_deadline_seconds <= 0) {
      throw ConfigError("--row-deadline must be > 0");
    }
  } else if (a == "--retries") {
    policy.max_retries = static_cast<unsigned>(parse_in(a, next(), kRetriesRange));
  } else if (a == "--fault-plan") {
    fault_plan = std::make_shared<const FaultPlan>(
        FaultPlan::parse_file(next()));
  } else if (a == "--sample") {
    const std::string val = next();
    std::stringstream ss(val);
    std::string item;
    std::uint64_t* fields[] = {&sampling.warmup_refs, &sampling.detail_refs,
                               &sampling.period_refs};
    unsigned n = 0;
    while (std::getline(ss, item, ',')) {
      if (n >= 3) throw ConfigError("--sample: expected WARMUP,DETAIL,PERIOD");
      *fields[n++] = parse_u64(a, item);
    }
    if (n != 3) throw ConfigError("--sample: expected WARMUP,DETAIL,PERIOD");
    sampling.enabled = true;
  } else if (a == "--ckpt-dir") {
    sampling.checkpoint_dir = next();
    if (sampling.checkpoint_dir.empty()) {
      throw ConfigError("--ckpt-dir requires a non-empty directory");
    }
  } else if (a == "--warm-quantum") {
    sampling.warm_quantum = parse_u64(a, next());
    if (sampling.warm_quantum == 0) {
      throw ConfigError("--warm-quantum must be > 0");
    }
    warm_quantum_set = true;
  } else if (a == "--shard") {
    shard = parse_shard(next());
    shard_set = true;
  } else if (a == "--shard-out") {
    shard_out = next();
    if (shard_out.empty()) {
      throw ConfigError("--shard-out requires a non-empty path base");
    }
  } else {
    return false;
  }
  return true;
}

void ObsArgs::apply(SweepRequest& req) const {
  if (policy.resume && policy.journal_dir.empty()) {
    throw ConfigError("--resume requires --journal-dir");
  }
  if (!shard_out.empty() && !shard_set) {
    throw ConfigError("--shard-out requires --shard");
  }
  if (!sampling.checkpoint_dir.empty() && !sampling.enabled) {
    throw ConfigError("--ckpt-dir requires --sample");
  }
  if (warm_quantum_set && !sampling.enabled) {
    throw ConfigError("--warm-quantum requires --sample");
  }
  req.policy = policy;
  req.policy.faults = fault_plan ? fault_plan.get() : nullptr;
  if (sampling.enabled) {
    for (MachineSpec& cfg : req.configs) cfg.sampling = sampling;
  }
}

ObserverFactory ObsArgs::observer_factory(std::size_t rows) const {
  if (trace_out.empty() && metrics_interval == 0) return {};
  // Copy the fields: the factory outlives the ObsArgs in some drivers, and
  // rows run concurrently — each gets its own RunObserver.
  const std::string trace = trace_out;
  const Cycles interval = metrics_interval;
  const std::string metrics = metrics_out;
  return [trace, interval, metrics, rows](const MachineSpec& cfg, std::size_t)
             -> std::unique_ptr<Observer> {
    auto ro = std::make_unique<obs::RunObserver>();
    if (!trace.empty()) {
      ro->enable_trace(obs::row_path(trace, cfg.procs_per_cluster, rows));
    }
    if (interval != 0) {
      const std::string base =
          obs::row_path(metrics, cfg.procs_per_cluster, rows);
      ro->enable_metrics(interval, base + ".csv", base + ".json");
    }
    return ro;
  };
}

}  // namespace csim::cli
