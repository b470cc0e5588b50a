// Rarefied hypersonic-flow particle simulation (SPLASH "MP3D" analogue).
//
// Paper characterization: 50,000 particles; the communication stress test.
// Particles are statically assigned to processors, but each particle
// interacts with the *space cell* containing its current position, and
// particles from many processors stream through the same cells — large
// communication volume, very unstructured, read-write in nature. Working
// sets are large (O(n/p)).
//
// We advance real particles (free flight + specular wall reflection),
// accumulate per-cell statistics read-modify-write, and do a simplified
// in-cell collision step that reads the cell's reservoir particle. verify()
// checks particle conservation and that every particle stayed in bounds.
#pragma once

#include <memory>
#include <vector>

#include "src/apps/app.hpp"
#include "src/apps/partition.hpp"
#include "src/core/sync.hpp"

namespace csim {

struct Mp3dConfig {
  std::size_t particles = 16000;  ///< paper: 50000
  unsigned cells_per_dim = 6;     ///< space-cell grid (cells = dim^3)
  unsigned steps = 4;
  Cycles move_cycles = 130; ///< busy cycles per particle move
  std::uint64_t seed = 0x3d3d'0001;

  static Mp3dConfig preset(ProblemScale s);
};

class Mp3dApp final : public Program {
 public:
  explicit Mp3dApp(Mp3dConfig cfg) : cfg_(cfg) {}

  [[nodiscard]] std::string name() const override { return "mp3d"; }
  void setup(AddressSpace& as, const MachineSpec& mc) override;
  SimTask body(Proc& p) override;
  void verify() const override;

  [[nodiscard]] const Mp3dConfig& config() const noexcept { return cfg_; }

 private:
  struct Particle {
    double x, y, z;
    double vx, vy, vz;
  };
  struct Cell {
    std::uint32_t count = 0;      ///< visits this step
    std::uint32_t reservoir = 0;  ///< index of last particle seen (collisions)
    double momentum = 0;          ///< accumulated |v| (statistic)
  };

  [[nodiscard]] unsigned cell_of(const Particle& q) const noexcept;
  [[nodiscard]] Addr particle_addr(std::size_t i) const noexcept {
    return part_base_ + i * kParticleBytes;
  }
  [[nodiscard]] Addr cell_addr(unsigned c) const noexcept {
    return cell_base_ + static_cast<Addr>(c) * kCellBytes;
  }

  static constexpr Addr kParticleBytes = 48;  // pos + vel, 6 doubles
  static constexpr Addr kCellBytes = 48;

  Mp3dConfig cfg_;
  unsigned nprocs_ = 0;
  std::vector<Particle> parts_;
  /// Host-side cell statistics (the paper's lockless shared cells).
  std::vector<Cell> cells_;
  unsigned ncells_ = 0;
  Addr part_base_ = 0, cell_base_ = 0;
  std::uint64_t total_moves_ = 0;
  std::unique_ptr<Barrier> bar_;
};

}  // namespace csim
