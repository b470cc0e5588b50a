// csim_merge: recombine per-shard sweep artifacts into the CSV an unsharded
// run would have produced, bit for bit (docs/ROBUSTNESS.md §7).
//
//   csim_cli --app fft --shard 0/3 --shard-out s0 --csv > /dev/null
//   csim_cli --app fft --shard 1/3 --shard-out s1 --csv > /dev/null
//   csim_cli --app fft --shard 2/3 --shard-out s2 --csv > /dev/null
//   csim_merge --out merged.csv s0.json s1.json s2.json
//
// Each SHARD.json ("csim.shard/1") names its CSV artifact (resolved relative
// to the JSON file) and maps every row back to its global sweep index and
// config digest. The merge refuses to produce output unless the shards are
// mutually disjoint, collectively complete, agree on their schema, and every
// digest sits in the shard the partition function assigns it to.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/atomic_file.hpp"
#include "src/core/error.hpp"
#include "src/report/shard.hpp"

namespace {

using namespace csim;

void usage() {
  std::fprintf(stderr,
               "usage: csim_merge --out FILE SHARD.json [SHARD.json...]\n"
               "  --out FILE   where to write the merged CSV (required)\n");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("csim_merge: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::vector<std::string> manifest_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--out requires a value\n");
        usage();
        return 2;
      }
      out_path = argv[++i];
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else if (a.size() >= 2 && a.substr(0, 2) == "--") {
      usage();
      return 2;
    } else {
      manifest_paths.push_back(a);
    }
  }
  if (out_path.empty() || manifest_paths.empty()) {
    usage();
    return 2;
  }

  try {
    std::vector<ShardManifest> shards;
    std::vector<std::string> csvs;
    for (const std::string& path : manifest_paths) {
      ShardManifest m = parse_shard_manifest(read_file(path), path);
      // The CSV artifact travels next to its manifest; an absolute csv_path
      // (unusual, but valid) is used as-is.
      const std::filesystem::path csv =
          std::filesystem::path(path).parent_path() / m.csv_path;
      csvs.push_back(read_file(csv.string()));
      shards.push_back(std::move(m));
    }
    const std::string merged = merge_shard_csvs(shards, csvs);
    atomic_write_file(out_path, merged);
    std::size_t rows = 0;
    for (const ShardManifest& m : shards) {
      for (const ShardRowRef& r : m.rows) rows += r.csv_line >= 0;
    }
    std::printf("csim_merge: %zu shards, %zu rows -> %s\n", shards.size(),
                rows, out_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "csim_merge: %s\n", e.what());
    return 1;
  }
  return 0;
}
