// Volume rendering with octree empty-space skipping and early ray
// termination (SPLASH-2 "Volrend" analogue; the paper used a CT head scan).
//
// Paper characterization: read-only volume distributed randomly among
// processors; shared octree imposed on the volume for efficiency; pixel
// plane divided into per-processor tiles. Rays do not reflect, so working
// sets are quite small — a processor's rays touch a compact region of the
// volume plus the shared octree.
//
// We render a procedurally generated density volume (nested shells standing
// in for the CT head) with real front-to-back alpha compositing; verify()
// checks image determinism, opacity bounds and that early termination
// actually triggered.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/apps/app.hpp"
#include "src/apps/partition.hpp"
#include "src/core/sync.hpp"

namespace csim {

struct VolrendConfig {
  unsigned volume = 64;   ///< volume is volume^3 voxels (paper: CT head)
  unsigned frames = 3;    ///< rendered frames (rotating view, as in SPLASH-2)
  unsigned image = 128;   ///< image is image x image pixels
  unsigned block = 4;     ///< octree leaf block edge, in voxels
  double density_cut = 0.05;  ///< empty-space threshold
  double term_opacity = 0.95; ///< early-termination threshold
  Cycles sample_cycles = 24;
  std::uint64_t seed = 0x701e'0001;

  static VolrendConfig preset(ProblemScale s);
};

class VolrendApp final : public Program {
 public:
  explicit VolrendApp(VolrendConfig cfg) : cfg_(cfg) {}

  [[nodiscard]] std::string name() const override { return "volrend"; }
  void setup(AddressSpace& as, const MachineSpec& mc) override;
  SimTask body(Proc& p) override;
  void verify() const override;

  [[nodiscard]] const VolrendConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint64_t image_checksum() const;
  [[nodiscard]] std::uint64_t early_terminations() const noexcept {
    return early_terms_;
  }
  [[nodiscard]] std::uint64_t samples_taken() const noexcept {
    return samples_;
  }
  [[nodiscard]] std::uint64_t blocks_skipped() const noexcept {
    return skipped_blocks_;
  }

 private:
  struct OctNode {
    float max_density = 0;
    int child0 = -1;  ///< internal: encoded child-table index (-2 - idx)
    unsigned bx = 0, by = 0, bz = 0;  ///< block coords at leaf level
    unsigned size = 0;                ///< edge length in blocks
  };

  [[nodiscard]] double density(unsigned x, unsigned y, unsigned z) const {
    return vol_[(static_cast<std::size_t>(z) * cfg_.volume + y) * cfg_.volume + x];
  }
  [[nodiscard]] Addr voxel_addr(unsigned x, unsigned y, unsigned z) const {
    return vol_base_ +
           (static_cast<std::size_t>(z) * cfg_.volume + y) * cfg_.volume + x;
  }
  [[nodiscard]] Addr node_addr(std::size_t i) const { return oct_base_ + i * 64; }
  [[nodiscard]] Addr pixel_addr(std::size_t x, std::size_t y) const {
    return image_base_ + (y * cfg_.image + x) * sizeof(float);
  }

  static constexpr std::size_t kTile = 8;  ///< block-cyclic pixel tile edge

  int build_octree(unsigned bx, unsigned by, unsigned bz, unsigned size);
  [[nodiscard]] float block_max(unsigned bx, unsigned by, unsigned bz) const;

  /// Renders one pixel's ray: front-to-back compositing along +z with a
  /// per-frame view shear standing in for the rotating camera.
  SimTask cast_ray(Proc& p, unsigned px, unsigned py, double shear);

  VolrendConfig cfg_;
  unsigned nprocs_ = 0;
  ProcGrid pgrid_{};
  std::vector<float> vol_;
  std::vector<OctNode> oct_;
  std::vector<std::array<int, 8>> children_;  ///< child tables for internals
  std::vector<float> image_;
  Addr vol_base_ = 0, oct_base_ = 0, image_base_ = 0;
  /// Render statistics.
  std::uint64_t early_terms_ = 0, samples_ = 0, skipped_blocks_ = 0;
  std::unique_ptr<Barrier> bar_;
};

}  // namespace csim
