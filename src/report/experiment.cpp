#include "src/report/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>
#include <unordered_set>

#include "src/core/error.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/observer.hpp"
#include "src/report/fault_injection.hpp"
#include "src/report/journal.hpp"

namespace csim {

MachineSpec paper_machine(unsigned procs_per_cluster,
                            std::size_t cache_bytes_per_proc) {
  MachineSpec cfg;
  cfg.num_procs = 64;
  cfg.procs_per_cluster = procs_per_cluster;
  cfg.cache.per_proc_bytes = cache_bytes_per_proc;
  cfg.cache.line_bytes = 64;
  cfg.cache.associativity = 0;  // fully associative (paper)
  return cfg;
}

std::size_t SweepResult::failures() const noexcept {
  std::size_t n = 0;
  for (const SimResult& r : rows) {
    if (!r.ok) ++n;
  }
  return n;
}

std::string_view to_string(RowOutcome::Status s) noexcept {
  switch (s) {
    case RowOutcome::Status::Ok: return "ok";
    case RowOutcome::Status::Failed: return "failed";
    case RowOutcome::Status::TimedOut: return "timed_out";
  }
  return "unknown";
}

unsigned sweep_pool_width(std::size_t rows, unsigned host_cores) noexcept {
  if (rows == 0) return 1;
  return static_cast<unsigned>(
      std::min<std::size_t>(std::max(1u, host_cores), rows));
}

SweepResult run_sweep(const SweepRequest& req) {
  const auto& make_app = req.make_app;
  const auto& make_observer = req.make_observer;
  const auto& configs = req.configs;
  const SweepPolicy& pol = req.policy;
  if (!make_app) throw ConfigError("run_sweep: SweepRequest::make_app not set");

  SweepResult res;
  res.rows.resize(configs.size());
  res.outcomes.resize(configs.size());
  if (configs.empty()) return res;

  // The journal, the fault plan, and synthesized timeout rows all need the
  // app's identity (name + scale) before any row runs, so probe the factory
  // once. A throwing factory falls back to the pre-policy behaviour — every
  // row fails individually with the factory's diagnostic, nothing crashes.
  // With the default policy the probe is skipped entirely (zero overhead).
  // Checkpoint grouping needs the identity too (warm_config_digest hashes
  // the app name and scale).
  const bool rows_checkpoint = std::any_of(
      configs.begin(), configs.end(), [](const MachineSpec& c) {
        return c.sampling.enabled && !c.sampling.checkpoint_dir.empty();
      });
  const bool policy_active = !pol.journal_dir.empty() ||
                             pol.faults != nullptr ||
                             pol.row_deadline_seconds > 0 || rows_checkpoint;
  std::string app_name;
  ProblemScale app_scale = ProblemScale::Default;
  bool have_identity = false;
  if (policy_active) {
    try {
      const std::unique_ptr<Program> probe = make_app();
      app_name = probe->name();
      app_scale = probe->scale();
      have_identity = true;
    } catch (...) {
      res.journal_warnings.push_back(
          "sweep: app factory threw during the identity probe; journaling "
          "and fault injection are disabled for this sweep");
    }
  }
  std::vector<std::uint64_t> digests(configs.size(), 0);
  if (have_identity) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      digests[i] = obs::config_digest(configs[i], app_name, app_scale);
    }
  }

  // Resume: satisfy rows from the journal before anything simulates, one
  // read by digest per row. A record only counts if its stored result digest
  // matches the digest recomputed from the reconstituted row — a corrupt or
  // stale record can cost a re-simulation, never a wrong answer.
  std::vector<char> done(configs.size(), 0);
  if (have_identity && pol.resume && !pol.journal_dir.empty()) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      std::optional<JournalHit> hit =
          read_journal_row(pol.journal_dir, digests[i], configs[i], app_name,
                           app_scale, res.journal_warnings);
      if (!hit) continue;
      res.rows[i] = std::move(hit->result);
      res.outcomes[i] = RowOutcome{RowOutcome::Status::Ok, hit->attempts,
                                   /*from_journal=*/true, digests[i]};
      done[i] = 1;
    }
  }

  std::mutex warn_mutex;
  const auto warn = [&](std::string w) {
    const std::lock_guard<std::mutex> lock(warn_mutex);
    res.journal_warnings.push_back(std::move(w));
  };

  // Runs one row: attempt loop with deadline budgeting, bounded retry for
  // retryable SimError kinds, fault injection, and the write-ahead journal
  // append. Failures become ok == false rows carrying the SimError
  // diagnostics (graceful degradation: one broken configuration must not
  // abort the whole sweep; write_failures renders them).
  const auto run_one = [&](std::size_t index) {
    const MachineSpec& cfg = configs[index];
    const std::uint64_t digest = digests[index];
    RowOutcome& oc = res.outcomes[index];
    oc.config_digest = digest;
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed_seconds = [&start] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };
    SimResult r;
    std::optional<FaultSpec> fault;
    const unsigned max_attempts = 1 + pol.max_retries;
    unsigned attempt = 0;
    while (true) {
      ++attempt;
      fault = (pol.faults != nullptr && have_identity)
                  ? pol.faults->lookup(digest, attempt)
                  : std::nullopt;
      if (fault && fault->action == FaultSpec::Action::Stall &&
          fault->stall_seconds > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(fault->stall_seconds));
      }
      MachineSpec row_cfg = cfg;
      if (pol.row_deadline_seconds > 0) {
        const double remaining = pol.row_deadline_seconds - elapsed_seconds();
        if (remaining <= 0) {
          // The row's budget is gone (earlier attempts or a stall consumed
          // it): synthesize the timeout row without starting a simulation.
          r = SimResult{};
          r.config = cfg;
          r.app_name = app_name;
          r.scale = app_scale;
          r.ok = false;
          r.error_kind = std::string(to_string(SimErrorKind::Timeout));
          char msg[96];
          std::snprintf(msg, sizeof msg,
                        "row deadline of %.3f s exhausted before attempt %u",
                        pol.row_deadline_seconds, attempt);
          r.error = msg;
          r.host_seconds = elapsed_seconds();
          break;
        }
        // The in-run watchdog enforces what is left of the row's budget
        // (tightening, never loosening, any deadline the spec already had).
        row_cfg.max_host_seconds = cfg.max_host_seconds > 0
                                       ? std::min(cfg.max_host_seconds,
                                                  remaining)
                                       : remaining;
      }
      std::unique_ptr<Program> app;
      try {
        if (fault && fault->action == FaultSpec::Action::Throw) {
          char msg[96];
          std::snprintf(msg, sizeof msg,
                        "fault injection: forced %.24s failure (attempt %u)",
                        std::string(to_string(fault->error)).c_str(), attempt);
          throw_sim_error(fault->error, msg);
        }
        app = make_app();
        std::unique_ptr<Observer> obs;
        if (make_observer) obs = make_observer(row_cfg, index);
        r = simulate(*app, row_cfg, obs.get());
        r.config = cfg;  // report the requested spec, not the deadline copy
        break;
      } catch (const std::exception& e) {
        r = SimResult{};
        r.config = cfg;
        if (app) {
          r.app_name = app->name();
          r.scale = app->scale();
        } else if (have_identity) {
          r.app_name = app_name;
          r.scale = app_scale;
        }
        r.ok = false;
        const auto* se = dynamic_cast<const SimError*>(&e);
        r.error_kind = se ? std::string(to_string(se->kind())) : "exception";
        r.error = e.what();
        r.host_seconds = elapsed_seconds();
        if (se != nullptr && is_retryable(se->kind()) &&
            attempt < max_attempts) {
          if (pol.backoff_ms > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(
                static_cast<std::uint64_t>(pol.backoff_ms)
                << (attempt - 1)));
          }
          continue;
        }
        break;
      } catch (...) {
        r = SimResult{};
        r.config = cfg;
        r.ok = false;
        r.error_kind = "exception";
        r.error = "unknown exception";
        break;
      }
    }
    oc.attempts = attempt;
    oc.from_journal = false;
    oc.status = r.ok ? RowOutcome::Status::Ok
                : r.error_kind == to_string(SimErrorKind::Timeout)
                    ? RowOutcome::Status::TimedOut
                    : RowOutcome::Status::Failed;

    // Write-ahead append: the row is durable before the sweep moves on. A
    // torn-write fault persists a prefix of the real record bytes at the
    // final path — exactly the damage a kill mid-append could leave if the
    // writes were not atomic (the loader must shrug it off).
    if (r.ok && have_identity && !pol.journal_dir.empty()) {
      try {
        const JournalRecord rec = journal_record_from_result(r, attempt);
        if (fault && fault->action == FaultSpec::Action::TornWrite) {
          const std::string bytes = encode_journal_record(rec);
          const auto keep = static_cast<std::size_t>(
              static_cast<double>(bytes.size()) * fault->keep_fraction);
          std::filesystem::create_directories(pol.journal_dir);
          std::ofstream os(journal_record_path(pol.journal_dir, digest),
                           std::ios::binary | std::ios::trunc);
          os.write(bytes.data(), static_cast<std::streamsize>(keep));
          warn("fault injection: torn journal write for config " +
               obs::digest_hex(digest) + " (kept " + std::to_string(keep) +
               " of " + std::to_string(bytes.size()) + " bytes)");
        } else {
          append_journal_record(pol.journal_dir, rec);
        }
      } catch (const std::exception& e) {
        warn("journal: append failed for config " + obs::digest_hex(digest) +
             ": " + e.what());
      }
    }
    res.rows[index] = std::move(r);
  };

  std::vector<std::size_t> pending;
  pending.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (!done[i]) pending.push_back(i);
  }
  if (pending.empty()) return res;

  // Warm-state checkpoint grouping: rows sharing a warm_config_digest share
  // one warmup. The first row of each digest group (the leader) runs in the
  // first wave, warming in-process and writing the checkpoint; the remaining
  // rows run in the second wave and fast-forward from it. Without
  // checkpointing every row is a wave-1 "leader" and the schedule is exactly
  // the old single-wave sweep.
  std::vector<std::size_t> wave1;
  std::vector<std::size_t> wave2;
  wave1.reserve(pending.size());
  if (have_identity) {
    std::unordered_set<std::uint64_t> group_leaders;
    for (std::size_t i : pending) {
      const MachineSpec& cfg = configs[i];
      if (!cfg.sampling.enabled || cfg.sampling.checkpoint_dir.empty()) {
        wave1.push_back(i);
        continue;
      }
      const std::uint64_t wd =
          obs::warm_config_digest(cfg, app_name, app_scale);
      (group_leaders.insert(wd).second ? wave1 : wave2).push_back(i);
    }
  } else {
    wave1 = pending;
  }

  // Bounded worker pool: large sweeps (org_comparison runs 9 apps x 4
  // cluster sizes x 2 organizations) previously spawned one thread per
  // configuration. Workers claim the next unstarted configuration from a
  // shared counter, so a long run steals no capacity from the short ones
  // queued behind it. Each row is one single-threaded simulation, so the
  // pool is as wide as the host (sweep_pool_width).
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const auto run_wave = [&](const std::vector<std::size_t>& wave) {
    if (wave.empty()) return;
    const unsigned workers = sweep_pool_width(wave.size(), hw);
    if (workers <= 1) {
      for (std::size_t i : wave) run_one(i);
      return;
    }
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      while (true) {
        const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
        if (k >= wave.size()) return;
        run_one(wave[k]);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) pool.emplace_back(worker);
    worker();  // the calling thread participates
    for (auto& t : pool) t.join();
  };
  run_wave(wave1);
  run_wave(wave2);
  return res;
}

std::vector<SimResult> sweep_clusters(
    const std::function<std::unique_ptr<Program>()>& make_app,
    std::size_t cache_bytes_per_proc,
    const std::vector<unsigned>& cluster_sizes) {
  SweepRequest req;
  req.make_app = make_app;
  req.configs.reserve(cluster_sizes.size());
  for (unsigned ppc : cluster_sizes) {
    req.configs.push_back(paper_machine(ppc, cache_bytes_per_proc));
  }
  return run_sweep(req).rows;
}

BenchOptions BenchOptions::parse_checked(int argc, char** argv) {
  BenchOptions o;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--paper") == 0) {
      o.scale = ProblemScale::Paper;
    } else if (std::strcmp(arg, "--test") == 0) {
      o.scale = ProblemScale::Test;
    } else {
      throw ConfigError(std::string("unknown flag: '") + arg +
                        "' (expected --paper or --test)");
    }
  }
  return o;
}

BenchOptions BenchOptions::parse(int argc, char** argv) {
  try {
    return parse_checked(argc, argv);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "%s\nusage: %s [--paper | --test]\n",
                 e.what(), argc > 0 ? argv[0] : "bench");
    std::exit(2);
  }
}

namespace {

constexpr const char* kCsvColumns =
    "app,scale,procs,ppc,cache_kb,wall,cpu,load,merge,sync,contention,"
    "reads,writes,read_misses,write_misses,upgrades,merges,cold,"
    "invalidations,bank_conflicts,bank_wait,dir_wait,nic_wait,"
    "sampled,coverage,wall_seconds,sim_refs_per_sec,status,attempts";

/// Simulated references per host second (reads + writes over wall seconds);
/// 0 when no host time was recorded (e.g. synthetic test rows).
double refs_per_sec(const SimResult& r) {
  if (r.host_seconds <= 0) return 0;
  return static_cast<double>(r.totals.reads + r.totals.writes) /
         r.host_seconds;
}

}  // namespace

void write_csv(std::ostream& os, const SweepResult& sweep) {
  os << kCsvColumns << '\n';
  for (std::size_t i = 0; i < sweep.rows.size(); ++i) {
    const SimResult& r = sweep.rows[i];
    if (!r.ok) continue;  // failures go to write_failures
    const TimeBuckets a = r.aggregate();
    os << r.app_name << ',' << to_string(r.scale) << ','
       << r.config.num_procs << ',' << r.config.procs_per_cluster << ','
       << r.config.cache.per_proc_bytes / 1024 << ',' << r.wall_time << ','
       << a.cpu << ',' << a.load << ',' << a.merge << ',' << a.sync << ','
       << a.contention << ',' << r.totals.reads << ',' << r.totals.writes
       << ',' << r.totals.read_misses << ',' << r.totals.write_misses << ','
       << r.totals.upgrade_misses << ',' << r.totals.merges << ','
       << r.totals.cold_misses << ',' << r.totals.invalidations << ','
       << r.totals.bank_conflicts << ',' << r.totals.bank_wait_cycles << ','
       << r.totals.dir_wait_cycles << ',' << r.totals.nic_wait_cycles;
    // Sampling provenance, per-row throughput, then the outcome. host_seconds
    // round-trips through the journal bit-exactly (bit_cast) and from_journal
    // is deliberately not a column, so a resumed sweep's CSV stays
    // byte-identical to an uninterrupted run's.
    char buf[64];
    std::snprintf(buf, sizeof buf, ",%d,%.6f,%.6f,%.1f", r.sampled ? 1 : 0,
                  r.coverage, r.host_seconds, refs_per_sec(r));
    const RowOutcome* o =
        i < sweep.outcomes.size() ? &sweep.outcomes[i] : nullptr;
    os << buf << ',' << (o ? to_string(o->status) : "ok") << ','
       << (o ? o->attempts : 1u) << '\n';
  }
}

std::size_t write_outcomes(std::ostream& os, const SweepResult& sweep) {
  std::size_t not_ok = 0;
  os << "=== sweep outcomes ===\n";
  for (std::size_t i = 0; i < sweep.rows.size(); ++i) {
    const SimResult& r = sweep.rows[i];
    const RowOutcome o =
        i < sweep.outcomes.size() ? sweep.outcomes[i] : RowOutcome{};
    if (o.status != RowOutcome::Status::Ok) ++not_ok;
    os << obs::digest_hex(o.config_digest) << ' '
       << (r.app_name.empty() ? std::string("?") : r.app_name) << " ["
       << r.config.label() << "] " << to_string(o.status)
       << " attempts=" << o.attempts << (o.from_journal ? " (journal)" : "");
    char buf[80];
    std::snprintf(buf, sizeof buf, " wall=%.3fs refs/s=%.0f", r.host_seconds,
                  refs_per_sec(r));
    os << buf;
    if (r.sampled) {
      std::snprintf(buf, sizeof buf, " sampled coverage=%.3f", r.coverage);
      os << buf;
    }
    os << '\n';
  }
  for (const std::string& w : sweep.journal_warnings) {
    os << "warning: " << w << '\n';
  }
  return not_ok;
}

std::size_t write_failures(std::ostream& os,
                           const std::vector<SimResult>& results) {
  std::size_t n = 0;
  for (const SimResult& r : results) {
    if (r.ok) continue;
    if (n == 0) os << "=== failed configurations ===\n";
    ++n;
    os << (r.app_name.empty() ? std::string("?") : r.app_name) << " ["
       << r.config.label() << "] " << r.error_kind << " error:\n";
    // Indent the (possibly multi-line) diagnostic under its header.
    std::size_t start = 0;
    while (start < r.error.size()) {
      std::size_t end = r.error.find('\n', start);
      if (end == std::string::npos) end = r.error.size();
      os << "    " << r.error.substr(start, end - start) << '\n';
      start = end + 1;
    }
  }
  return n;
}

}  // namespace csim
