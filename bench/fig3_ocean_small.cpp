// Figure 3: Ocean with a small grid (66x66 at the paper's size), infinite
// caches.
//
// Smaller problems have higher communication-to-computation ratios, so the
// performance impact of clustering is greater than in Figure 2 — but load
// imbalance / synchronization also grows. (The paper's conclusion:
// clustering "pushes out" the number of processors usable on a fixed
// problem size.)
#include "bench/bench_util.hpp"

#include "src/apps/ocean.hpp"

int main(int argc, char** argv) {
  using namespace csim;
  const auto opt = BenchOptions::parse(argc, argv);
  const OceanConfig small = OceanConfig::small_problem(opt.scale);
  const unsigned big_n = OceanConfig::preset(opt.scale).n;
  std::printf("Figure 3: Ocean, small %ux%u problem, infinite caches\n\n",
              small.n, small.n);

  auto sweep = sweep_clusters(
      [&] { return std::make_unique<OceanApp>(small); }, 0);
  const std::string title = "Fig 3 - ocean " + std::to_string(small.n) + "x" +
                            std::to_string(small.n) + " (infinite caches)";
  std::cout << render_figure(title, bars_from_sweep(sweep)) << '\n';

  // Side-by-side with the scale's normal problem for the comparison the
  // paper draws (greater clustering impact, more synchronization).
  auto big = sweep_clusters([&] { return make_app("ocean", opt.scale); }, 0);
  std::cout << render_figure("reference: ocean " + std::to_string(big_n) +
                                 "x" + std::to_string(big_n) +
                                 " (infinite caches)",
                             bars_from_sweep(big));
  return 0;
}
