// Regular-grid iterative solver with a multigrid V-cycle (SPLASH-2 "Ocean"
// analogue).
//
// Paper characterization: 130x130 grids (25 of them), near-neighbour
// communication at the four borders of each processor's square subgrid;
// processors in the same processor-grid row own horizontally adjacent
// subgrids, so clustering captures the (dominant, column-oriented) border
// traffic and roughly halves communication per doubling of cluster size.
// Figure 3 uses a smaller 66x66 grid to raise the communication rate.
//
// We solve a real Poisson problem (Gauss-Seidel red-black smoothing plus a
// multigrid V-cycle correction, with a lock-protected global residual
// reduction); verify() checks the residual actually fell. The paper's ~25
// auxiliary grids are modelled by `aux_fields` pointwise field updates per
// iteration, which carry the same (local) access pattern and keep the
// compute-to-communication ratio representative.
#pragma once

#include <memory>
#include <vector>

#include "src/apps/app.hpp"
#include "src/apps/partition.hpp"
#include "src/core/sync.hpp"

namespace csim {

struct OceanConfig {
  unsigned n = 130;          ///< grid dimension including border (paper: 130)
  unsigned iters = 4;        ///< outer iterations (time steps)
  unsigned aux_fields = 10;  ///< pointwise auxiliary field updates per step
  unsigned mg_levels = 3;    ///< coarse levels in the V-cycle
  unsigned relax_sweeps = 2; ///< red-black sweeps per level per V-cycle
  Cycles point_cycles = 24;  ///< busy cycles per stencil point
  std::uint64_t seed = 0x0cea'0cea;

  static OceanConfig preset(ProblemScale s);
  /// The Figure 3 small problem: the scale's preset with its interior
  /// halved (66x66 at Default and Paper, 18x18 at Test).
  static OceanConfig small_problem(ProblemScale s);
};

class OceanApp final : public Program {
 public:
  explicit OceanApp(OceanConfig cfg) : cfg_(cfg) {}

  [[nodiscard]] std::string name() const override { return "ocean"; }
  void setup(AddressSpace& as, const MachineSpec& mc) override;
  SimTask body(Proc& p) override;
  void verify() const override;

  [[nodiscard]] const OceanConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] double initial_residual() const noexcept { return res0_; }
  [[nodiscard]] double final_residual() const noexcept { return res_final_; }

 private:
  /// Subgrid-contiguous (4-D array) layout of one grid level.
  struct Level {
    unsigned dim = 0;  ///< including border
    std::vector<unsigned> owner_row, owner_col;    ///< global -> proc grid r/c
    std::vector<std::size_t> local_row, local_col; ///< global -> local index
    std::vector<std::size_t> tile_offset;          ///< proc -> element offset
    std::vector<std::size_t> tile_cols;            ///< proc -> tile width
    std::size_t elems = 0;

    [[nodiscard]] std::size_t index(std::size_t gr, std::size_t gc,
                                    const ProcGrid& g) const noexcept {
      const ProcId p = g.at(owner_row[gr], owner_col[gc]);
      return tile_offset[p] + local_row[gr] * tile_cols[p] + local_col[gc];
    }
  };

  /// A named field on a level: host values + simulated base address.
  struct Field {
    std::vector<double> v;
    Addr base = 0;
  };

  void build_level(Level& L, unsigned dim, const MachineSpec& mc);
  Field make_field(AddressSpace& as, const Level& L, const char* label);

  [[nodiscard]] Addr addr(const Field& f, const Level& L, std::size_t gr,
                          std::size_t gc) const noexcept {
    return f.base + L.index(gr, gc, grid_) * sizeof(double);
  }
  double& at(Field& f, const Level& L, std::size_t gr, std::size_t gc) noexcept {
    return f.v[L.index(gr, gc, grid_)];
  }
  [[nodiscard]] double at(const Field& f, const Level& L, std::size_t gr,
                          std::size_t gc) const noexcept {
    return f.v[L.index(gr, gc, grid_)];
  }

  /// One red-black Gauss-Seidel sweep of `u` against rhs `f` on level `lev`
  /// over this proc's tile; returns (via res_acc) the local residual.
  SimTask relax(Proc& p, unsigned lev, Field& u, const Field& f,
                double* res_acc);
  SimTask restrict_residual(Proc& p, unsigned lev);  // lev -> lev+1
  SimTask prolong_correction(Proc& p, unsigned lev); // lev+1 -> lev
  SimTask vcycle(Proc& p);
  SimTask aux_update(Proc& p, unsigned k);
  SimTask reduce_residual(Proc& p, double local);

  [[nodiscard]] Tile my_tile(unsigned lev, ProcId id) const noexcept {
    const Level& L = levels_[lev];
    return tile_of(L.dim, L.dim, grid_, id);
  }

  OceanConfig cfg_;
  ProcGrid grid_{};
  unsigned nprocs_ = 0;
  std::vector<Level> levels_;
  // Fields: per level u (solution/correction) and f (rhs); the fine level
  // also carries the aux fields.
  std::vector<Field> u_, f_;
  std::vector<Field> aux_;
  Field global_sum_;  ///< one shared scalar for the residual reduction
  double host_sum_ = 0;
  double res0_ = -1, res_final_ = -1;
  std::unique_ptr<Barrier> bar_;
  std::unique_ptr<Lock> sum_lock_;
};

}  // namespace csim
