// Recursive ray tracing over a procedural sphere-flake scene (SPLASH-2
// "Raytrace" analogue; the paper used the Balls4 scene).
//
// Paper characterization: read-only scene data distributed randomly among
// processors; pixel plane divided into per-processor tiles (as in Ocean);
// rays reflect, so a processor's rays wander across the scene — much larger
// and more unstructured working sets than Volrend. Communication volume from
// sharing the read-only scene and false sharing of the pixel plane is small.
//
// Rays are traced for real (uniform-grid DDA + analytic sphere
// intersections, mirror reflections); verify() checks the image is
// deterministic (checksum stable across runs and machine configurations)
// and that rays actually hit geometry.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/apps/app.hpp"
#include "src/apps/octree.hpp"  // Vec3
#include "src/apps/partition.hpp"
#include "src/core/sync.hpp"

namespace csim {

struct RaytraceConfig {
  unsigned image = 160;     ///< image is image x image pixels
  unsigned grid = 16;       ///< acceleration grid cells per axis
  unsigned flake_depth = 3; ///< sphere-flake recursion (3 -> 187 spheres)
  unsigned max_bounces = 3;
  unsigned frames = 2;      ///< rendered frames (slightly moved eye)
  Cycles isect_cycles = 45; ///< busy cycles per ray-sphere test
  std::uint64_t seed = 0x5ce0'0001;

  static RaytraceConfig preset(ProblemScale s);
};

class RaytraceApp final : public Program {
 public:
  explicit RaytraceApp(RaytraceConfig cfg) : cfg_(cfg) {}

  [[nodiscard]] std::string name() const override { return "raytrace"; }
  void setup(AddressSpace& as, const MachineSpec& mc) override;
  SimTask body(Proc& p) override;
  void verify() const override;

  [[nodiscard]] const RaytraceConfig& config() const noexcept { return cfg_; }
  /// FNV-1a hash of the rendered image (deterministic identity).
  [[nodiscard]] std::uint64_t image_checksum() const;
  [[nodiscard]] std::uint64_t hit_count() const noexcept {
    return hits_;
  }

 private:
  struct Sphere {
    Vec3 c;
    double r;
  };

  [[nodiscard]] Addr sphere_addr(std::size_t i) const {
    return sphere_base_ + i * 64;
  }
  [[nodiscard]] Addr voxel_addr(std::size_t i) const {
    return voxel_base_ + i * 64;
  }
  [[nodiscard]] Addr pixel_addr(std::size_t x, std::size_t y) const {
    return image_base_ + (y * cfg_.image + x) * sizeof(float);
  }
  [[nodiscard]] std::size_t voxel_index(int x, int y, int z) const {
    return (static_cast<std::size_t>(x) * cfg_.grid + y) * cfg_.grid + z;
  }

  static constexpr std::size_t kTile = 5;  ///< block-cyclic pixel tile edge (160/5/8 exact)

  void add_flake(Vec3 c, double r, int depth, int exclude_dir);
  void build_grid();

  /// Traces one ray through the grid; returns shade contribution and leaves
  /// the reference trail on `p`. (Host math and simulated refs together.)
  SimTask trace_ray(Proc& p, Vec3 org, Vec3 dir, unsigned bounce, double atten,
                    double* shade);

  RaytraceConfig cfg_;
  unsigned nprocs_ = 0;
  ProcGrid pgrid_{};
  std::vector<Sphere> spheres_;
  std::vector<std::vector<int>> voxels_;  ///< sphere indices per voxel
  std::vector<float> image_;
  Addr sphere_base_ = 0, voxel_base_ = 0, image_base_ = 0;
  /// Shading-hit count.
  std::uint64_t hits_ = 0;
  std::unique_ptr<Barrier> bar_;
};

}  // namespace csim
