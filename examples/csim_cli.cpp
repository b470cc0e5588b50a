// csim_cli: run any workload on any machine configuration from the command
// line, with figure or CSV output — the "driver" a downstream user scripts
// experiments with.
//
//   csim_cli --app ocean --ppc 1,2,4,8 --cache 16 --csv
//   csim_cli --app barnes --scale paper --style memory --quantum 1
//   csim_cli --list
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "src/analysis/contention_check.hpp"
#include "src/apps/app.hpp"
#include "src/core/atomic_file.hpp"
#include "src/core/error.hpp"
#include "src/obs/manifest.hpp"
#include "src/report/cli_args.hpp"
#include "src/report/experiment.hpp"
#include "src/report/figures.hpp"
#include "src/report/gnuplot.hpp"
#include "src/report/shard.hpp"

namespace {

using namespace csim;

void usage() {
  std::printf(
      "usage: csim_cli [options]\n"
      "  --app NAME        workload (see --list); default: ocean\n"
      "  --list            list workloads and exit\n"
      "  --scale S         test | default | paper (default: default)\n"
      "  --procs N         processors (default 64)\n"
      "  --ppc A,B,...     cluster sizes to sweep (default 1,2,4,8)\n"
      "  --cache KB        per-processor cache in KB; 0 = infinite (default 0)\n"
      "  --assoc N         set associativity; 0 = fully associative\n"
      "  --line B          cache line bytes (default 64)\n"
      "  --style S         cache | memory (cluster organization)\n"
      "  --quantum N       run-ahead quantum in cycles (default 32)\n"
      "  --hit-costs       model shared-cache hit costs in-simulation\n"
      "  --csv             emit CSV instead of the stacked-bar figure\n"
      "  --gnuplot BASE    also write BASE.dat/BASE.gp for gnuplot\n"
      "%s",
      cli::ObsArgs::usage());
}

}  // namespace

int main(int argc, char** argv) {
  RunSpec spec;
  bool csv = false;
  std::string gnuplot_base;
  cli::ObsArgs obs_args;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    try {
      if (a == "--list") {
        for (const auto& f : app_registry()) {
          std::printf("%-10s %s\n", f.name.c_str(), f.description.c_str());
        }
        return 0;
      } else if (a == "--csv") {
        csv = true;
      } else if (a == "--gnuplot") {
        if (i + 1 >= argc) throw ConfigError("--gnuplot requires a value");
        gnuplot_base = argv[++i];
      } else if (cli::consume_run_flag(spec, argc, argv, i) ||
                 obs_args.consume(argc, argv, i)) {
        // checked row and shared flags (src/report/cli_args.hpp)
      } else {
        usage();
        return a == "--help" || a == "-h" ? 0 : 2;
      }
    } catch (const ConfigError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      usage();
      return 2;
    }
  }

  try {
    spec.contention = obs_args.contention;
    SweepRequest req;
    req.make_app = [&] { return make_app(spec.app, spec.scale); };
    req.configs = spec.configs();
    // Crash-safety policy (journal / resume / deadline / retries / faults).
    // Applied before shard selection: --sample rewrites the row specs, and
    // the shard partition must key on the digests run_sweep will journal.
    obs_args.apply(req);
    // Shard selection (--shard k/N): keep only the rows whose config digest
    // maps to this shard; every host given the same sweep agrees on the
    // split without coordination (docs/ROBUSTNESS.md §7).
    ShardSelection sel;
    if (obs_args.shard_set) {
      const std::unique_ptr<Program> probe = make_app(spec.app, spec.scale);
      sel = select_shard(req.configs, probe->name(), probe->scale(),
                         obs_args.shard);
      std::vector<MachineSpec> kept;
      kept.reserve(sel.indices.size());
      for (std::size_t i : sel.indices) kept.push_back(req.configs[i]);
      req.configs = std::move(kept);
    }
    // Observability (src/obs): one RunObserver per sweep row, each writing
    // its artifacts (trace JSON / metrics CSV+JSON) when its row completes.
    req.make_observer = obs_args.observer_factory(req.configs.size());
    const bool policy_active = !req.policy.journal_dir.empty() ||
                               req.policy.faults != nullptr ||
                               req.policy.row_deadline_seconds > 0 ||
                               req.policy.max_retries > 0;

    // run_sweep degrades gracefully: a failing configuration becomes an
    // ok == false row (rendered below) instead of aborting the sweep.
    const SweepResult sweep = run_sweep(req);
    if (!obs_args.manifest_out.empty()) {
      // Manifests include failed rows (error kind instead of statistics).
      obs::SweepProvenance prov;
      prov.rows_total = sweep.rows.size();
      if (obs_args.shard_set) {
        prov.shard_index = obs_args.shard.index;
        prov.shard_count = obs_args.shard.count;
        prov.rows_total = sel.rows_total;
      }
      for (const RowOutcome& o : sweep.outcomes) {
        if (o.from_journal) ++prov.cache_hits;
      }
      obs::write_run_manifest_file(obs_args.manifest_out, "csim_cli", sweep,
                                   prov);
      std::printf("wrote manifest %s (sweep digest %s)\n",
                  obs_args.manifest_out.c_str(),
                  obs::digest_hex(obs::sweep_digest(sweep.rows)).c_str());
    }
    const std::size_t failures = write_failures(std::cerr, sweep.rows);
    if (policy_active) write_outcomes(std::cerr, sweep);
    if (!obs_args.shard_out.empty()) {
      // Shard-merge artifacts: BASE.csv holds this shard's rows in the sweep
      // CSV schema (failures skipped), BASE.json maps them back to their
      // global sweep indices so csim_merge can reassemble the unsharded CSV
      // bit-exactly.
      const std::string csv_path = obs_args.shard_out + ".csv";
      atomic_write_file(csv_path,
                        [&](std::ostream& os) { write_csv(os, sweep); });
      ShardManifest m;
      m.shard = obs_args.shard;
      m.rows_total = sel.rows_total;
      m.csv_path = std::filesystem::path(csv_path).filename().string();
      long csv_line = 0;
      for (std::size_t j = 0; j < sweep.rows.size(); ++j) {
        ShardRowRef ref;
        ref.index = sel.indices[j];
        ref.digest = sel.digests[j];
        ref.csv_line = sweep.rows[j].ok ? csv_line++ : -1;
        m.rows.push_back(ref);
      }
      atomic_write_file(obs_args.shard_out + ".json", write_shard_manifest(m));
      std::printf("wrote shard %s artifacts %s.csv and %s.json\n",
                  obs_args.shard.label().c_str(), obs_args.shard_out.c_str(),
                  obs_args.shard_out.c_str());
    }
    std::vector<SimResult> results = sweep.rows;
    std::erase_if(results, [](const SimResult& r) { return !r.ok; });
    if (results.empty()) {
      // An empty shard of a sharded sweep is a success (its artifacts above
      // are required for the merge); an all-failed sweep is not.
      return obs_args.shard_set && sweep.rows.empty() ? 0 : 1;
    }
    if (!gnuplot_base.empty()) {
      write_gnuplot_figure(gnuplot_base, spec.app, bars_from_sweep(results));
      std::printf("wrote %s.dat and %s.gp\n", gnuplot_base.c_str(),
                  gnuplot_base.c_str());
    }
    if (csv) {
      write_csv(std::cout, sweep);
    } else {
      std::cout << render_figure(
          spec.app + " (" + std::string(to_string(spec.scale)) + ", " +
              (spec.cache_kb ? std::to_string(spec.cache_kb) + "KB" : "inf") +
              ", " +
              (spec.style == ClusterStyle::SharedMemory ? "shared-memory"
                                                   : "shared-cache") +
              ")",
          bars_from_sweep(results));
    }
    if (obs_args.contention.enabled && !csv) {
      // Section 6 sanity table: simulated bank-conflict rate vs the paper's
      // closed form for every shared-cache row of the sweep.
      const auto check = contention_check(results);
      if (!check.empty()) write_contention_check(std::cout, check);
    }
    if (failures != 0) return 1;  // partial results were still emitted
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
