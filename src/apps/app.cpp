#include "src/apps/app.hpp"

#include <stdexcept>

namespace csim {

const std::vector<AppFactory>& app_registry() {
  static const std::vector<AppFactory> reg = {
      {"barnes", "Hierarchical N-body (Barnes-Hut octree)", make_barnes},
      {"fft", "1-D FFT, blocked transpose (all-to-all)", make_fft},
      {"fmm", "Fast Multipole Method (hierarchical interaction lists)",
       make_fmm},
      {"lu", "Blocked dense LU factorization", make_lu},
      {"mp3d", "Rarefied-flow particle-in-cell (unstructured read-write)",
       make_mp3d},
      {"ocean", "Regular-grid iterative solver (near-neighbour)", make_ocean},
      {"radix", "Parallel radix sort (shared histograms, all-to-all permute)",
       make_radix},
      {"raytrace", "Recursive ray tracing (read-only scene, reflections)",
       make_raytrace},
      {"volrend", "Volume rendering (read-only volume, no reflections)",
       make_volrend},
  };
  return reg;
}

std::unique_ptr<Program> make_app(std::string_view name, ProblemScale s) {
  for (const auto& f : app_registry()) {
    if (f.name == name) {
      auto app = f.make(s);
      app->set_scale(s);  // safety net; the factories also set it
      return app;
    }
  }
  throw std::invalid_argument("unknown application: " + std::string(name));
}

std::vector<std::string> app_names() {
  std::vector<std::string> out;
  for (const auto& f : app_registry()) out.push_back(f.name);
  return out;
}

Proc::OpAwaiter stream_read(Proc& p, Addr base, std::size_t bytes,
                            Cycles compute_per_line) {
  const unsigned line = p.config().cache.line_bytes;
  const Addr first = base & ~Addr{line - 1};
  const Addr last = (base + bytes + line - 1) & ~Addr{line - 1};
  return p.run(first, line, static_cast<std::uint32_t>((last - first) / line),
               /*is_write=*/false, compute_per_line);
}

Proc::OpAwaiter stream_write(Proc& p, Addr base, std::size_t bytes,
                             Cycles compute_per_line) {
  const unsigned line = p.config().cache.line_bytes;
  const Addr first = base & ~Addr{line - 1};
  const Addr last = (base + bytes + line - 1) & ~Addr{line - 1};
  return p.run(first, line, static_cast<std::uint32_t>((last - first) / line),
               /*is_write=*/true, compute_per_line);
}

}  // namespace csim
