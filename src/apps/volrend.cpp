#include "src/apps/volrend.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "src/core/record_file.hpp"

namespace csim {

VolrendConfig VolrendConfig::preset(ProblemScale s) {
  VolrendConfig c;
  switch (s) {
    case ProblemScale::Test:
      c.volume = 32;
      c.image = 32;
      break;
    case ProblemScale::Default:
      break;  // struct defaults
    case ProblemScale::Paper:
      c.volume = 128;
      c.image = 128;
      break;
  }
  return c;
}

std::unique_ptr<Program> make_volrend(ProblemScale s) {
  auto app = std::make_unique<VolrendApp>(VolrendConfig::preset(s));
  app->set_scale(s);
  return app;
}

float VolrendApp::block_max(unsigned bx, unsigned by, unsigned bz) const {
  const unsigned B = cfg_.block;
  float mx = 0;
  for (unsigned z = bz * B; z < (bz + 1) * B; ++z) {
    for (unsigned y = by * B; y < (by + 1) * B; ++y) {
      for (unsigned x = bx * B; x < (bx + 1) * B; ++x) {
        mx = std::max(mx, static_cast<float>(density(x, y, z)));
      }
    }
  }
  return mx;
}

int VolrendApp::build_octree(unsigned bx, unsigned by, unsigned bz,
                             unsigned size) {
  const int me = static_cast<int>(oct_.size());
  oct_.push_back(OctNode{});
  OctNode n;
  n.bx = bx;
  n.by = by;
  n.bz = bz;
  n.size = size;
  if (size == 1) {
    n.max_density = block_max(bx, by, bz);
    oct_[static_cast<std::size_t>(me)] = n;
    return me;
  }
  const unsigned h = size / 2;
  oct_[static_cast<std::size_t>(me)] = n;
  std::array<int, 8> kids{};
  float mx = 0;
  for (int o = 0; o < 8; ++o) {
    kids[static_cast<std::size_t>(o)] =
        build_octree(bx + ((o & 1) ? h : 0), by + ((o & 2) ? h : 0),
                     bz + ((o & 4) ? h : 0), h);
    mx = std::max(
        mx,
        oct_[static_cast<std::size_t>(kids[static_cast<std::size_t>(o)])].max_density);
  }
  children_.push_back(kids);
  oct_[static_cast<std::size_t>(me)].max_density = mx;
  oct_[static_cast<std::size_t>(me)].child0 =
      -2 - static_cast<int>(children_.size() - 1);  // encoded table index
  return me;
}

void VolrendApp::setup(AddressSpace& as, const MachineSpec& mc) {
  nprocs_ = mc.num_procs;
  pgrid_ = make_proc_grid(nprocs_);
  const unsigned V = cfg_.volume;
  if (!std::has_single_bit(V) || !std::has_single_bit(cfg_.block) ||
      V % cfg_.block != 0) {
    throw std::invalid_argument("Volrend: volume and block must be powers of 2");
  }

  // Procedural density volume: nested shells (a stand-in for the CT head).
  vol_.resize(static_cast<std::size_t>(V) * V * V);
  for (unsigned z = 0; z < V; ++z) {
    for (unsigned y = 0; y < V; ++y) {
      for (unsigned x = 0; x < V; ++x) {
        const double dx = (x + 0.5) / V - 0.5;
        const double dy = (y + 0.5) / V - 0.5;
        const double dz = (z + 0.5) / V - 0.5;
        const double r = std::sqrt(dx * dx + dy * dy + dz * dz);
        double d = std::exp(-std::pow((r - 0.38) / 0.035, 2.0)) +
                   0.7 * std::exp(-std::pow((r - 0.22) / 0.05, 2.0)) +
                   0.5 * std::exp(-std::pow(r / 0.08, 2.0));
        // Deterministic speckle so blocks are not uniform.
        const std::uint32_t h =
            (x * 73856093u) ^ (y * 19349663u) ^ (z * 83492791u);
        d += 0.02 * ((h >> 8) & 0xff) / 255.0;
        vol_[(static_cast<std::size_t>(z) * V + y) * V + x] =
            static_cast<float>(std::min(d, 1.2));
      }
    }
  }

  oct_.clear();
  children_.clear();
  build_octree(0, 0, 0, V / cfg_.block);

  image_.assign(static_cast<std::size_t>(cfg_.image) * cfg_.image, 0.0f);
  early_terms_ = 0;
  samples_ = 0;
  skipped_blocks_ = 0;

  // Volume and octree distributed round-robin (random distribution);
  // pixel tiles placed at their owner.
  vol_base_ = as.alloc(vol_.size(), "volrend.volume");
  oct_base_ = as.alloc(oct_.size() * 64, "volrend.octree");
  image_base_ = as.alloc(image_.size() * sizeof(float), "volrend.image");
  for (ProcId p = 0; p < nprocs_; ++p) {
    for (const Tile& t : cyclic_tiles(cfg_.image, cfg_.image, kTile, pgrid_, p)) {
      for (std::size_t y = t.row_begin; y < t.row_end; ++y) {
        as.place(pixel_addr(t.col_begin, y), t.cols() * sizeof(float), p);
      }
    }
  }
  bar_ = std::make_unique<Barrier>(nprocs_);
}

SimTask VolrendApp::cast_ray(Proc& p, unsigned px, unsigned py, double shear) {
  const unsigned V = cfg_.volume;
  const unsigned B = cfg_.block;
  const unsigned nblocks = V / B;
  // Parallel projection along +z; the per-frame shear tilts the view
  // (shear-warp factorization), so the sampled column drifts with depth.
  const unsigned vx = std::min(V - 1, px * V / cfg_.image);
  const unsigned vy0 = std::min(V - 1, py * V / cfg_.image);
  const unsigned bx = vx / B;
  auto vy_at = [&](unsigned z) {
    const int v = static_cast<int>(vy0) + static_cast<int>(shear * z);
    return static_cast<unsigned>(std::clamp(v, 0, static_cast<int>(V) - 1));
  };

  double color = 0, alpha = 0;
  for (unsigned bz = 0; bz < nblocks && alpha < cfg_.term_opacity; ++bz) {
    const unsigned by = vy_at(bz * B + B / 2) / B;
    // Octree descent from the root to the leaf block (bx, by, bz): shared
    // read-only metadata; the top levels stay hot in every cache.
    std::size_t ni = 0;
    for (;;) {
      const OctNode& n = oct_[ni];
      const std::array<Proc::RunOp, 2> ops{Proc::RunOp::read(node_addr(ni)),
                                           Proc::RunOp::compute(2)};
      co_await p.run(ops.data(), 2, 1);
      if (n.size == 1) break;
      const unsigned h = n.size / 2;
      const int o = (bx >= n.bx + h ? 1 : 0) | (by >= n.by + h ? 2 : 0) |
                    (bz >= n.bz + h ? 4 : 0);
      const auto& tab = children_[static_cast<std::size_t>(-2 - n.child0)];
      ni = static_cast<std::size_t>(tab[static_cast<std::size_t>(o)]);
    }
    if (oct_[ni].max_density < cfg_.density_cut) {
      ++skipped_blocks_;
      continue;  // empty-space skip: no voxel references at all
    }
    // Sample the voxels of this block along z. Host math first — the
    // accumulation decides where the ray terminates — then the sample
    // references retire in chunked runs over the same z range.
    const unsigned z0 = bz * B;
    const unsigned z1 = (bz + 1) * B;
    unsigned zstop = z1;
    for (unsigned z = z0; z < z1; ++z) {
      const double d = density(vx, vy_at(z), z);
      ++samples_;
      if (d < cfg_.density_cut) continue;
      const double a = std::min(1.0, (d - cfg_.density_cut) * 4.0) * 0.5;
      color += (1.0 - alpha) * a * d;
      alpha += (1.0 - alpha) * a;
      if (alpha >= cfg_.term_opacity) {
        ++early_terms_;
        zstop = z + 1;
        break;
      }
    }
    std::array<Proc::RunOp, Proc::kMaxRunOps> ops;
    unsigned cnt = 0;
    for (unsigned z = z0; z < zstop; ++z) {
      if (cnt + 2 > Proc::kMaxRunOps) {
        co_await p.run(ops.data(), cnt, 1);
        cnt = 0;
      }
      ops[cnt++] = Proc::RunOp::read(voxel_addr(vx, vy_at(z), z));
      ops[cnt++] = Proc::RunOp::compute(cfg_.sample_cycles);
    }
    if (cnt != 0) co_await p.run(ops.data(), cnt, 1);
  }
  image_[static_cast<std::size_t>(py) * cfg_.image + px] =
      static_cast<float>(color);
  const std::array<Proc::RunOp, 2> ops{Proc::RunOp::compute(4),
                                       Proc::RunOp::write(pixel_addr(px, py))};
  co_await p.run(ops.data(), 2, 1);
}

SimTask VolrendApp::body(Proc& p) {
  // Rotating-view frame sequence (as in the SPLASH-2 volrend input): each
  // frame re-reads the per-tile volume region, so small caches thrash on it
  // while a clustered cache holds the (heavily overlapping) union.
  for (unsigned f = 0; f < cfg_.frames; ++f) {
    const double shear = 0.08 * f;
    for (const Tile& t :
         cyclic_tiles(cfg_.image, cfg_.image, kTile, pgrid_, p.id())) {
      for (std::size_t y = t.row_begin; y < t.row_end; ++y) {
        for (std::size_t x = t.col_begin; x < t.col_end; ++x) {
          co_await cast_ray(p, static_cast<unsigned>(x),
                            static_cast<unsigned>(y), shear);
        }
      }
    }
    co_await p.barrier(*bar_);
  }
}

std::uint64_t VolrendApp::image_checksum() const {
  Fnv1a h;
  for (float v : image_) {
    const auto q = static_cast<std::uint32_t>(
        std::lround(static_cast<double>(v) * 4096.0));
    for (int b = 0; b < 4; ++b) h.byte(static_cast<std::uint8_t>(q >> (8 * b)));
  }
  return h.h;
}

void VolrendApp::verify() const {
  double mx = 0;
  for (float v : image_) {
    if (!std::isfinite(v) || v < 0) {
      throw std::runtime_error("Volrend verification failed: bad pixel");
    }
    mx = std::max(mx, static_cast<double>(v));
  }
  if (!(mx > 0)) {
    throw std::runtime_error("Volrend verification failed: empty image");
  }
  if (samples_ == 0 || skipped_blocks_ == 0) {
    throw std::runtime_error(
        "Volrend verification failed: octree skipping never exercised");
  }
}

}  // namespace csim
