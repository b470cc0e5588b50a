// Self-test of the benchmark's own helpers, at Test problem size, over every
// workload (both organizations): the probes must be passive, the traced call
// counts must agree exactly with the memory system's own counters and with
// the references the floor counts, sampled pairs must agree, the always-hit
// floor must run every app, and every metric name must be well formed.
#include <cstdio>
#include <set>
#include <string>

#include "clusterbench/metrics.hpp"
#include "clusterbench/workloads.hpp"

namespace clusterbench {
namespace {

bool valid_name(std::string_view name) {
  if (name.empty()) return false;
  for (char ch : name) {
    const bool ok = (ch >= 'A' && ch <= 'Z') || (ch >= 'a' && ch <= 'z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == '.' ||
                    ch == '-';
    if (!ok) return false;
  }
  return true;
}

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++run_;
    if (!ok) {
      ++failed_;
      std::printf("self-test FAILED: %s\n", what.c_str());
    }
  }
  [[nodiscard]] int finish() const {
    std::printf("self-test: %u of %u checks passed\n", run_ - failed_, run_);
    return failed_ == 0 ? 0 : 1;
  }

 private:
  unsigned run_ = 0;
  unsigned failed_ = 0;
};

void check_workload(const std::string& name, const std::string& scratch,
                    Checks& checks) {
  const Workload w = make_workload(name, 0, /*test_scale=*/true, scratch);
  const Pass untraced = run_pass(w);
  const Pass traced = run_traced_pass(w);
  const Pass floor = run_floor_pass(w);
  const std::string at = name + ": ";

  checks.expect(untraced.failed() == 0 && traced.failed() == 0,
                at + "every simulated row completes and verifies");
  checks.expect(floor.failed() == 0,
                at + "the always-hit floor runs the app and verifies");
  for (std::size_t i = 0; i < untraced.rows.size(); ++i) {
    checks.expect(traced.rows[i].digest == untraced.rows[i].digest,
                  at + untraced.rows[i].label +
                      ": the traced digest equals the untraced digest");
  }
  const LayerCounts& c = traced.layers;
  checks.expect(c.filter_hits() != 0 && c.calls() != 0,
                at + "the hit filter stays engaged under the probe");
  for (const std::string& broken : c.broken_identities()) {
    checks.expect(false, at + broken);
  }
  checks.expect(c.events == traced.events(),
                at + "observer events equal SimResult::events");
  // The floor has no filter and sees every reference, so it counts the
  // stream independently — except for mp3d, whose lockless updates make the
  // reference stream depend on memory timing.
  if (name != "mp3d_share") {
    checks.expect(traced.refs() == floor.refs(),
                  at + "references retired equal the references the floor saw");
    if (w.checkpoint_dir.empty()) {
      checks.expect(c.detail_refs == floor.refs(),
                    at + "filter hits + mem.calls = the references the floor "
                         "saw");
    }
  }
  if (w.checkpoint_dir.empty()) return;
  checks.expect(c.warm_calls <= c.warm_refs && c.warm_refs != 0,
                at + "warming issues at most one call per reference");
  checks.expect(c.capture_s > 0 && c.restore_s > 0 && c.ff_s > 0,
                at + "one row saves a checkpoint and one fast-forwards");
  for (std::size_t i = 0; i + 1 < untraced.rows.size(); i += 2) {
    checks.expect(untraced.rows[i].digest == untraced.rows[i + 1].digest,
                  at + untraced.rows[i + 1].label +
                      ": the fast-forward digest equals the warming digest");
  }
}

}  // namespace

int run_self_test(const std::string& scratch_dir) {
  Checks checks;
  std::set<std::string_view> names;
  for (const MetricDef& d : kEndToEnd) names.insert(d.name);
  for (const MetricDef& d : kPerLayer) names.insert(d.name);
  checks.expect(names.size() == std::size(kEndToEnd) + std::size(kPerLayer),
                "metric names are unique");
  for (std::string_view n : names) {
    checks.expect(valid_name(n),
                  "metric name '" + std::string(n) + "' is well formed");
  }
  for (const std::string& name : workload_names()) {
    check_workload(name, scratch_dir, checks);
  }
  return checks.finish();
}

}  // namespace clusterbench
