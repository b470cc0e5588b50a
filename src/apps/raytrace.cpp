#include "src/apps/raytrace.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "src/core/record_file.hpp"

namespace csim {

namespace {
Vec3 normalize(Vec3 v) {
  const double n = std::sqrt(v.norm2());
  return n > 0 ? v * (1.0 / n) : Vec3{0, 0, 1};
}
double dot(const Vec3& a, const Vec3& b) {
  return a.x * b.x + a.y * b.y + a.z * b.z;
}
}  // namespace

RaytraceConfig RaytraceConfig::preset(ProblemScale s) {
  RaytraceConfig c;
  switch (s) {
    case ProblemScale::Test:
      c.image = 32;
      c.grid = 8;
      c.flake_depth = 1;
      c.max_bounces = 2;
      break;
    case ProblemScale::Default:
      break;  // struct defaults
    case ProblemScale::Paper:
      c.image = 128;
      c.grid = 16;
      c.flake_depth = 3;
      c.max_bounces = 4;
      break;
  }
  return c;
}

std::unique_ptr<Program> make_raytrace(ProblemScale s) {
  auto app = std::make_unique<RaytraceApp>(RaytraceConfig::preset(s));
  app->set_scale(s);
  return app;
}

void RaytraceApp::add_flake(Vec3 c, double r, int depth, int exclude_dir) {
  spheres_.push_back(Sphere{c, r});
  if (depth == 0) return;
  static const Vec3 dirs[6] = {{1, 0, 0}, {-1, 0, 0}, {0, 1, 0},
                               {0, -1, 0}, {0, 0, 1}, {0, 0, -1}};
  for (int d = 0; d < 6; ++d) {
    if (d == exclude_dir) continue;
    const double cr = r / 3.0;
    add_flake(c + dirs[d] * (r + cr), cr, depth - 1, d ^ 1);
  }
}

void RaytraceApp::build_grid() {
  const unsigned G = cfg_.grid;
  voxels_.assign(static_cast<std::size_t>(G) * G * G, {});
  const double cell = 1.0 / G;
  for (std::size_t i = 0; i < spheres_.size(); ++i) {
    const Sphere& s = spheres_[i];
    const int lo[3] = {
        std::max(0, static_cast<int>((s.c.x - s.r) / cell)),
        std::max(0, static_cast<int>((s.c.y - s.r) / cell)),
        std::max(0, static_cast<int>((s.c.z - s.r) / cell))};
    const int hi[3] = {
        std::min(static_cast<int>(G) - 1, static_cast<int>((s.c.x + s.r) / cell)),
        std::min(static_cast<int>(G) - 1, static_cast<int>((s.c.y + s.r) / cell)),
        std::min(static_cast<int>(G) - 1, static_cast<int>((s.c.z + s.r) / cell))};
    for (int x = lo[0]; x <= hi[0]; ++x) {
      for (int y = lo[1]; y <= hi[1]; ++y) {
        for (int z = lo[2]; z <= hi[2]; ++z) {
          voxels_[voxel_index(x, y, z)].push_back(static_cast<int>(i));
        }
      }
    }
  }
}

void RaytraceApp::setup(AddressSpace& as, const MachineSpec& mc) {
  nprocs_ = mc.num_procs;
  pgrid_ = make_proc_grid(nprocs_);
  spheres_.clear();
  add_flake(Vec3{0.5, 0.5, 0.5}, 0.22, static_cast<int>(cfg_.flake_depth), -1);
  build_grid();

  image_.assign(static_cast<std::size_t>(cfg_.image) * cfg_.image, 0.0f);
  hits_ = 0;

  // Scene data distributed randomly (round-robin first touch): no placement.
  sphere_base_ = as.alloc(spheres_.size() * 64, "raytrace.spheres");
  voxel_base_ = as.alloc(voxels_.size() * 64, "raytrace.voxels");
  image_base_ =
      as.alloc(image_.size() * sizeof(float), "raytrace.image");
  // Pixel tiles are written only by their owner; place them there.
  for (ProcId p = 0; p < nprocs_; ++p) {
    for (const Tile& t : cyclic_tiles(cfg_.image, cfg_.image, kTile, pgrid_, p)) {
      for (std::size_t y = t.row_begin; y < t.row_end; ++y) {
        as.place(pixel_addr(t.col_begin, y), t.cols() * sizeof(float), p);
      }
    }
  }
  bar_ = std::make_unique<Barrier>(nprocs_);
}

SimTask RaytraceApp::trace_ray(Proc& p, Vec3 org, Vec3 dir, unsigned bounce,
                               double atten, double* shade) {
  const unsigned G = cfg_.grid;
  const double cell = 1.0 / G;

  // Clip the ray to the unit cube.
  double t0 = 0.0, t1 = 1e30;
  const double o[3] = {org.x, org.y, org.z};
  const double d[3] = {dir.x, dir.y, dir.z};
  for (int a = 0; a < 3; ++a) {
    if (std::abs(d[a]) < 1e-12) {
      if (o[a] < 0 || o[a] > 1) co_return;
    } else {
      double ta = (0.0 - o[a]) / d[a];
      double tb = (1.0 - o[a]) / d[a];
      if (ta > tb) std::swap(ta, tb);
      t0 = std::max(t0, ta);
      t1 = std::min(t1, tb);
    }
  }
  if (t0 > t1) co_return;

  // Amanatides-Woo DDA setup.
  const double eps = 1e-9;
  const Vec3 start = org + dir * (t0 + eps);
  int v[3];
  double tmax[3], tdelta[3];
  int step[3];
  const double s[3] = {start.x, start.y, start.z};
  for (int a = 0; a < 3; ++a) {
    int vi = static_cast<int>(s[a] / cell);
    vi = std::clamp(vi, 0, static_cast<int>(G) - 1);
    v[a] = vi;
    if (d[a] > eps) {
      step[a] = 1;
      tmax[a] = t0 + ((vi + 1) * cell - o[a]) / d[a];
      tdelta[a] = cell / d[a];
    } else if (d[a] < -eps) {
      step[a] = -1;
      tmax[a] = t0 + (vi * cell - o[a]) / d[a];
      tdelta[a] = -cell / d[a];
    } else {
      step[a] = 0;
      tmax[a] = 1e30;
      tdelta[a] = 1e30;
    }
  }

  while (true) {
    const std::size_t vi = voxel_index(v[0], v[1], v[2]);
    {
      // Voxel fetch + DDA arithmetic + the voxel's sphere intersection tests
      // retire as one run (chunked only past the op-list capacity).
      std::array<Proc::RunOp, Proc::kMaxRunOps> ops;
      unsigned cnt = 0;
      ops[cnt++] = Proc::RunOp::read(voxel_addr(vi));
      ops[cnt++] = Proc::RunOp::compute(12);  // DDA step arithmetic
      for (int si : voxels_[vi]) {
        if (cnt + 2 > Proc::kMaxRunOps) {
          co_await p.run(ops.data(), cnt, 1);
          cnt = 0;
        }
        ops[cnt++] = Proc::RunOp::read(sphere_addr(static_cast<std::size_t>(si)));
        ops[cnt++] = Proc::RunOp::compute(cfg_.isect_cycles);
      }
      co_await p.run(ops.data(), cnt, 1);
    }
    const double t_exit = std::min({tmax[0], tmax[1], tmax[2]});

    double best_t = 1e30;
    int best = -1;
    for (int si : voxels_[vi]) {
      const Sphere& sp = spheres_[static_cast<std::size_t>(si)];
      const Vec3 oc = org - sp.c;
      const double b = dot(oc, dir);
      const double cq = oc.norm2() - sp.r * sp.r;
      const double disc = b * b - cq;
      if (disc <= 0) continue;
      const double sq = std::sqrt(disc);
      double t = -b - sq;
      if (t < 1e-6) t = -b + sq;
      if (t > 1e-6 && t < best_t) {
        best_t = t;
        best = si;
      }
    }
    if (best >= 0 && best_t <= t_exit + cell) {
      ++hits_;
      const Sphere& sp = spheres_[static_cast<std::size_t>(best)];
      const Vec3 hitp = org + dir * best_t;
      const Vec3 n = normalize(hitp - sp.c);
      const Vec3 light = normalize(Vec3{1, 1, -1});
      *shade += atten * std::max(0.0, dot(n, light));
      co_await p.compute(25);  // shading arithmetic
      if (bounce < cfg_.max_bounces) {
        const Vec3 rdir = dir - n * (2.0 * dot(dir, n));
        co_await trace_ray(p, hitp + n * 1e-6, normalize(rdir), bounce + 1,
                           atten * 0.5, shade);
      }
      co_return;
    }

    // Advance to the next voxel.
    int axis = 0;
    if (tmax[1] < tmax[axis]) axis = 1;
    if (tmax[2] < tmax[axis]) axis = 2;
    v[axis] += step[axis];
    if (v[axis] < 0 || v[axis] >= static_cast<int>(G)) co_return;
    tmax[axis] += tdelta[axis];
  }
}

SimTask RaytraceApp::body(Proc& p) {
  // Short frame sequence with a slightly moved eye: cross-frame reuse of the
  // read-only scene is what finite caches thrash on.
  for (unsigned f = 0; f < cfg_.frames; ++f) {
    const Vec3 eye{0.5 + 0.04 * f, 0.5 - 0.03 * f, -1.3};
    for (const Tile& t :
         cyclic_tiles(cfg_.image, cfg_.image, kTile, pgrid_, p.id())) {
      for (std::size_t y = t.row_begin; y < t.row_end; ++y) {
        for (std::size_t x = t.col_begin; x < t.col_end; ++x) {
          const Vec3 px{(static_cast<double>(x) + 0.5) / cfg_.image,
                        (static_cast<double>(y) + 0.5) / cfg_.image, 0.0};
          double shade = 0.0;
          co_await trace_ray(p, eye, normalize(px - eye), 0, 1.0, &shade);
          image_[y * cfg_.image + x] = static_cast<float>(shade);
          const std::array<Proc::RunOp, 2> ops{
              Proc::RunOp::compute(4), Proc::RunOp::write(pixel_addr(x, y))};
          co_await p.run(ops.data(), 2, 1);
        }
      }
    }
    co_await p.barrier(*bar_);
  }
}

std::uint64_t RaytraceApp::image_checksum() const {
  Fnv1a h;
  for (float v : image_) {
    const auto q = static_cast<std::uint32_t>(
        std::lround(static_cast<double>(v) * 4096.0));
    for (int b = 0; b < 4; ++b) h.byte(static_cast<std::uint8_t>(q >> (8 * b)));
  }
  return h.h;
}

void RaytraceApp::verify() const {
  if (hits_ == 0) {
    throw std::runtime_error("Raytrace verification failed: no ray hits");
  }
  double mx = 0;
  for (float v : image_) mx = std::max(mx, static_cast<double>(v));
  if (!(mx > 0) || !std::isfinite(mx)) {
    throw std::runtime_error("Raytrace verification failed: empty image");
  }
}

}  // namespace csim
