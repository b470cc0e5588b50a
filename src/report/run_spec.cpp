#include "src/report/run_spec.hpp"

#include <algorithm>

#include "src/apps/app.hpp"

namespace csim {

bool known_app(std::string_view name) {
  const std::vector<std::string> names = app_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::optional<ProblemScale> scale_named(std::string_view name) {
  if (name == "test") return ProblemScale::Test;
  if (name == "default") return ProblemScale::Default;
  if (name == "paper") return ProblemScale::Paper;
  return std::nullopt;
}

std::optional<ClusterStyle> style_named(std::string_view name) {
  if (name == "cache") return ClusterStyle::SharedCache;
  if (name == "memory") return ClusterStyle::SharedMemory;
  return std::nullopt;
}

std::vector<MachineSpec> RunSpec::configs() const {
  std::vector<MachineSpec> out;
  out.reserve(ppcs.size());
  for (unsigned ppc : ppcs) {
    out.push_back(MachineSpecBuilder{}
                      .procs(procs)
                      .procs_per_cluster(ppc)
                      .cache_kb(cache_kb)
                      .associativity(assoc)
                      .line_bytes(line_bytes)
                      .style(style)
                      .runahead_quantum(quantum)
                      .model_shared_hit_costs(hit_costs)
                      .contention(contention)
                      .build_unchecked());
  }
  return out;
}

}  // namespace csim
