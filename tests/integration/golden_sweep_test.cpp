// Golden determinism: with the contention model disabled, every SimResult in
// the reference frame (all apps at test scale, both organizations, three
// cluster sizes at 16 KB, the infinite-cache column, and a small-cache 1 KB
// column at 4 and 8 processors per cluster) must stay bit-identical to the
// committed digests in golden_digests.txt.
//
// The digests are obs::result_digest over every counter, bucket, and
// per-cluster/per-processor breakdown, so any behavioral drift — however
// small — fails here. Regenerate the fixture only after proving the change
// is an intentional model change, never to silence a diff.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "src/apps/app.hpp"
#include "src/core/simulator.hpp"
#include "src/obs/manifest.hpp"
#include "src/report/experiment.hpp"

namespace csim {
namespace {

std::string fixture_path() {
  return std::string(CSIM_SOURCE_DIR) + "/tests/integration/golden_digests.txt";
}

/// "app style ppc cache" -> committed digest hex.
std::map<std::string, std::string> load_fixture() {
  std::ifstream in(fixture_path());
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << fixture_path();
  std::map<std::string, std::string> golden;
  std::string app, style, digest;
  unsigned ppc = 0;
  std::size_t cache = 0;
  while (in >> app >> style >> ppc >> cache >> digest) {
    std::ostringstream key;
    key << app << ' ' << style << ' ' << ppc << ' ' << cache;
    golden[key.str()] = digest;
  }
  return golden;
}

MachineSpec frame_config(ClusterStyle style, unsigned ppc, std::size_t cache) {
  return MachineSpecBuilder{}
      .procs(64)
      .procs_per_cluster(ppc)
      .style(style)
      .cache_bytes(cache)
      .build();
}

TEST(GoldenSweep, ContentionDisabledResultsMatchCommittedDigests) {
  const auto golden = load_fixture();
  ASSERT_EQ(golden.size(), 99u) << "fixture frame changed unexpectedly";

  unsigned checked = 0;
  for (const std::string& name : app_names()) {
    // One run_sweep per app: the golden path exercises the same entry point
    // the drivers use, and the worker pool keeps the frame fast.
    SweepRequest req;
    req.make_app = [&name] { return make_app(name, ProblemScale::Test); };
    struct Key {
      const char* style_name;
      ClusterStyle style;
      unsigned ppc;
      std::size_t cache;
    };
    std::vector<Key> keys;
    for (unsigned ppc : {1u, 4u, 8u}) {
      keys.push_back({"shared_cache", ClusterStyle::SharedCache, ppc, 16384});
      keys.push_back({"shared_memory", ClusterStyle::SharedMemory, ppc, 16384});
    }
    keys.push_back({"shared_cache", ClusterStyle::SharedCache, 4, 0});
    // Small caches under clustering: heavy LRU replacement and read merging
    // in the same cache, which the 16 KB and infinite columns barely reach.
    for (unsigned ppc : {4u, 8u}) {
      keys.push_back({"shared_cache", ClusterStyle::SharedCache, ppc, 1024});
      keys.push_back({"shared_memory", ClusterStyle::SharedMemory, ppc, 1024});
    }
    for (const Key& k : keys) {
      req.configs.push_back(frame_config(k.style, k.ppc, k.cache));
    }

    const SweepResult res = run_sweep(req);
    ASSERT_EQ(res.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const Key& k = keys[i];
      ASSERT_TRUE(res.rows[i].ok) << name << ": " << res.rows[i].error;
      std::ostringstream key;
      key << name << ' ' << k.style_name << ' ' << k.ppc << ' ' << k.cache;
      const auto it = golden.find(key.str());
      ASSERT_NE(it, golden.end()) << "no golden digest for " << key.str();
      EXPECT_EQ(obs::digest_hex(obs::result_digest(res.rows[i])), it->second)
          << "behavioral drift at " << key.str();
      ++checked;
    }
  }
  EXPECT_EQ(checked, golden.size());
}

}  // namespace
}  // namespace csim
