// Blocked dense LU factorization (SPLASH-2 "LU" analogue).
//
// Paper characterization (Tables 2, 3): 512x512 matrix, 16x16 blocks; low
// communication volume along rows and columns of the processor grid; the
// working set is a single 2 KB block, disjoint across processors.
//
// The factorization is performed for real (right-looking, no pivoting, on a
// diagonally dominant matrix); verify() reconstructs L*U and compares
// against the original matrix.
#pragma once

#include <memory>
#include <vector>

#include "src/apps/app.hpp"
#include "src/apps/partition.hpp"
#include "src/core/sync.hpp"

namespace csim {

struct LuConfig {
  unsigned n = 384;       ///< matrix dimension (paper: 512)
  unsigned block = 16;    ///< block dimension (paper: 16)
  Cycles flop_cycles = 2; ///< busy cycles charged per floating-point op
  std::uint64_t seed = 0x1234'5678;

  static LuConfig preset(ProblemScale s);
};

class LuApp final : public Program {
 public:
  explicit LuApp(LuConfig cfg) : cfg_(cfg) {}

  [[nodiscard]] std::string name() const override { return "lu"; }
  void setup(AddressSpace& as, const MachineSpec& mc) override;
  SimTask body(Proc& p) override;
  void verify() const override;

  [[nodiscard]] const LuConfig& config() const noexcept { return cfg_; }

 private:
  [[nodiscard]] ProcId owner(unsigned bi, unsigned bj) const noexcept {
    return grid_.at(bi % grid_.rows, bj % grid_.cols);
  }
  [[nodiscard]] std::size_t block_offset(unsigned bi, unsigned bj) const noexcept {
    return (static_cast<std::size_t>(bi) * nb_ + bj) * cfg_.block * cfg_.block;
  }
  [[nodiscard]] Addr block_addr(unsigned bi, unsigned bj) const noexcept {
    return base_ + block_offset(bi, bj) * sizeof(double);
  }
  double& el(unsigned gi, unsigned gj) noexcept;
  [[nodiscard]] double el(unsigned gi, unsigned gj) const noexcept;

  SimTask factor_diag(Proc& p, unsigned k);
  SimTask row_solve(Proc& p, unsigned k, unsigned j);
  SimTask col_solve(Proc& p, unsigned i, unsigned k);
  SimTask trailing_update(Proc& p, unsigned i, unsigned j, unsigned k);

  /// Touch every line of a block for read/write with interleaved compute,
  /// issued as one run (a single awaitable for the whole block).
  Proc::OpAwaiter rw_block_lines(Proc& p, unsigned bi, unsigned bj,
                                 Cycles compute_per_line);

  LuConfig cfg_;
  unsigned nb_ = 0;  ///< blocks per dimension
  ProcGrid grid_{};
  Addr base_ = 0;
  std::vector<double> a_;   ///< block-major working matrix
  std::vector<double> a0_;  ///< original matrix for verification
  std::unique_ptr<Barrier> bar_;
};

}  // namespace csim
