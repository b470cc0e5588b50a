#include "src/apps/ocean.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

#include "src/apps/prng.hpp"

namespace csim {

OceanConfig OceanConfig::preset(ProblemScale s) {
  OceanConfig c;
  switch (s) {
    case ProblemScale::Test:
      c.n = 34;
      c.iters = 2;
      c.aux_fields = 2;
      c.mg_levels = 2;
      break;
    case ProblemScale::Default:
      c.n = 130;
      c.iters = 3;
      break;
    case ProblemScale::Paper:
      c.n = 130;
      c.iters = 8;
      c.aux_fields = 16;
      break;
  }
  return c;
}

OceanConfig OceanConfig::small_problem(ProblemScale s) {
  OceanConfig c = preset(s);
  c.n = (c.n - 2) / 2 + 2;
  return c;
}

std::unique_ptr<Program> make_ocean(ProblemScale s) {
  auto app = std::make_unique<OceanApp>(OceanConfig::preset(s));
  app->set_scale(s);
  return app;
}

void OceanApp::build_level(Level& L, unsigned dim, const MachineSpec& mc) {
  L.dim = dim;
  L.owner_row.resize(dim);
  L.owner_col.resize(dim);
  L.local_row.resize(dim);
  L.local_col.resize(dim);
  for (unsigned pr = 0; pr < grid_.rows; ++pr) {
    const BlockRange r = block_partition(dim, grid_.rows, pr);
    for (std::size_t g = r.begin; g < r.end; ++g) {
      L.owner_row[g] = pr;
      L.local_row[g] = g - r.begin;
    }
  }
  for (unsigned pc = 0; pc < grid_.cols; ++pc) {
    const BlockRange c = block_partition(dim, grid_.cols, pc);
    for (std::size_t g = c.begin; g < c.end; ++g) {
      L.owner_col[g] = pc;
      L.local_col[g] = g - c.begin;
    }
  }
  L.tile_offset.resize(mc.num_procs);
  L.tile_cols.resize(mc.num_procs);
  std::size_t off = 0;
  for (ProcId p = 0; p < mc.num_procs; ++p) {
    const Tile t = tile_of(dim, dim, grid_, p);
    L.tile_offset[p] = off;
    L.tile_cols[p] = t.cols();
    off += t.rows() * t.cols();
  }
  L.elems = off;
}

OceanApp::Field OceanApp::make_field(AddressSpace& as, const Level& L,
                                     const char* label) {
  Field f;
  f.v.assign(L.elems, 0.0);
  f.base = as.alloc(L.elems * sizeof(double), label);
  // Subgrid-contiguous layout: place each processor's tile at its cluster.
  for (ProcId p = 0; p < nprocs_; ++p) {
    const Tile t = tile_of(L.dim, L.dim, grid_, p);
    as.place(f.base + L.tile_offset[p] * sizeof(double),
             t.rows() * t.cols() * sizeof(double), p);
  }
  return f;
}

void OceanApp::setup(AddressSpace& as, const MachineSpec& mc) {
  nprocs_ = mc.num_procs;
  grid_ = make_proc_grid(nprocs_);
  const unsigned interior = cfg_.n - 2;
  if (interior == 0 || (interior >> cfg_.mg_levels) << cfg_.mg_levels != interior) {
    throw std::invalid_argument("Ocean: n-2 must be divisible by 2^mg_levels");
  }
  if ((interior >> cfg_.mg_levels) == 0) {
    throw std::invalid_argument("Ocean: too many multigrid levels");
  }

  levels_.clear();
  levels_.resize(cfg_.mg_levels + 1);
  for (unsigned l = 0; l <= cfg_.mg_levels; ++l) {
    build_level(levels_[l], (interior >> l) + 2, mc);
  }

  u_.clear();
  f_.clear();
  aux_.clear();
  for (unsigned l = 0; l <= cfg_.mg_levels; ++l) {
    u_.push_back(make_field(as, levels_[l], "ocean.u"));
    f_.push_back(make_field(as, levels_[l], "ocean.f"));
  }
  for (unsigned k = 0; k < cfg_.aux_fields; ++k) {
    aux_.push_back(make_field(as, levels_[0], "ocean.aux"));
  }
  global_sum_.v.assign(1, 0.0);
  global_sum_.base = as.alloc(sizeof(double), "ocean.sum");

  // Smooth random right-hand side on the fine grid; u starts at zero.
  Rng rng(cfg_.seed);
  const Level& L0 = levels_[0];
  for (std::size_t gr = 1; gr + 1 < L0.dim; ++gr) {
    for (std::size_t gc = 1; gc + 1 < L0.dim; ++gc) {
      const double x = static_cast<double>(gr) / L0.dim;
      const double y = static_cast<double>(gc) / L0.dim;
      at(f_[0], L0, gr, gc) =
          std::sin(6.28 * x) * std::cos(6.28 * y) + 0.1 * rng.uniform(-1.0, 1.0);
    }
  }

  host_sum_ = 0;
  res0_ = res_final_ = -1;
  bar_ = std::make_unique<Barrier>(nprocs_);
  sum_lock_ = std::make_unique<Lock>();
}

SimTask OceanApp::relax(Proc& p, unsigned lev, Field& u, const Field& f,
                        double* res_acc) {
  const Level& L = levels_[lev];
  const Tile t = my_tile(lev, p.id());
  const std::size_t r0 = std::max<std::size_t>(t.row_begin, 1);
  const std::size_t r1 = std::min<std::size_t>(t.row_end, L.dim - 1);
  const std::size_t c0 = std::max<std::size_t>(t.col_begin, 1);
  const std::size_t c1 = std::min<std::size_t>(t.col_end, L.dim - 1);

  for (int color = 0; color < 2; ++color) {
    for (std::size_t gr = r0; gr < r1; ++gr) {
      unsigned pts = 0;
      for (std::size_t gc = c0; gc < c1; ++gc) {
        if (((gr + gc) & 1) != static_cast<unsigned>(color)) continue;
        ++pts;
        const double old = at(u, L, gr, gc);
        const double nb = at(u, L, gr - 1, gc) + at(u, L, gr + 1, gc) +
                          at(u, L, gr, gc - 1) + at(u, L, gr, gc + 1);
        const double nu = 0.25 * (nb - at(f, L, gr, gc));
        at(u, L, gr, gc) = nu;
        if (res_acc) *res_acc += std::abs(nu - old);
        // The 5-point stencil touches neighbouring tiles at the edges, so
        // addresses are not strided; a per-point run still retires all six
        // references behind one awaitable. (Named array rather than a braced
        // list: gcc cannot spill an initializer_list's backing array into the
        // coroutine frame.)
        using Op = Proc::RunOp;
        const std::array<Op, 6> ops{Op::read(addr(u, L, gr - 1, gc)),
                                    Op::read(addr(u, L, gr + 1, gc)),
                                    Op::read(addr(u, L, gr, gc - 1)),
                                    Op::read(addr(u, L, gr, gc + 1)),
                                    Op::read(addr(f, L, gr, gc)),
                                    Op::write(addr(u, L, gr, gc))};
        co_await p.run(ops.data(), 6, 1);
      }
      if (pts) co_await p.compute(cfg_.point_cycles * pts);
    }
    co_await p.barrier(*bar_);
  }
}

SimTask OceanApp::restrict_residual(Proc& p, unsigned lev) {
  // f[lev+1](i,j) = average of the residual r = f - A u at the 4 fine points
  // under coarse point (i,j); u[lev+1] is cleared.
  const Level& Lf = levels_[lev];
  const Level& Lc = levels_[lev + 1];
  const Tile t = my_tile(lev + 1, p.id());
  const std::size_t r0 = std::max<std::size_t>(t.row_begin, 1);
  const std::size_t r1 = std::min<std::size_t>(t.row_end, Lc.dim - 1);
  const std::size_t c0 = std::max<std::size_t>(t.col_begin, 1);
  const std::size_t c1 = std::min<std::size_t>(t.col_end, Lc.dim - 1);

  Field& uf = u_[lev];
  const Field& ff = f_[lev];
  for (std::size_t ci = r0; ci < r1; ++ci) {
    unsigned pts = 0;
    for (std::size_t cj = c0; cj < c1; ++cj) {
      ++pts;
      double acc = 0;
      // The whole coarse point — 16 fine-grid reads plus the two coarse
      // writes — retires as one run; the op list is assembled in the same
      // order the scalar loop issued the references.
      std::array<Proc::RunOp, 18> ops;
      unsigned n = 0;
      for (int di = 0; di < 2; ++di) {
        for (int dj = 0; dj < 2; ++dj) {
          const std::size_t fi = 2 * ci - 1 + di;
          const std::size_t fj = 2 * cj - 1 + dj;
          const double res =
              at(ff, Lf, fi, fj) -
              (4 * at(uf, Lf, fi, fj) - at(uf, Lf, fi - 1, fj) -
               at(uf, Lf, fi + 1, fj) - at(uf, Lf, fi, fj - 1) -
               at(uf, Lf, fi, fj + 1)) *
                  -1.0;  // A = -Laplacian with our relax convention
          acc += res;
          ops[n++] = Proc::RunOp::read(addr(ff, Lf, fi, fj));
          ops[n++] = Proc::RunOp::read(addr(uf, Lf, fi, fj));
          ops[n++] = Proc::RunOp::read(addr(uf, Lf, fi - 1, fj));
          ops[n++] = Proc::RunOp::read(addr(uf, Lf, fi + 1, fj));
        }
      }
      at(f_[lev + 1], Lc, ci, cj) = acc;  // scaled full-weighting (injection)
      at(u_[lev + 1], Lc, ci, cj) = 0;
      ops[n++] = Proc::RunOp::write(addr(f_[lev + 1], Lc, ci, cj));
      ops[n++] = Proc::RunOp::write(addr(u_[lev + 1], Lc, ci, cj));
      co_await p.run(ops.data(), n, 1);
    }
    if (pts) co_await p.compute(cfg_.point_cycles * pts * 2);
  }
  co_await p.barrier(*bar_);
}

SimTask OceanApp::prolong_correction(Proc& p, unsigned lev) {
  // u[lev] += injection of u[lev+1] onto the 4 fine points.
  const Level& Lf = levels_[lev];
  const Level& Lc = levels_[lev + 1];
  const Tile t = my_tile(lev + 1, p.id());
  const std::size_t r0 = std::max<std::size_t>(t.row_begin, 1);
  const std::size_t r1 = std::min<std::size_t>(t.row_end, Lc.dim - 1);
  const std::size_t c0 = std::max<std::size_t>(t.col_begin, 1);
  const std::size_t c1 = std::min<std::size_t>(t.col_end, Lc.dim - 1);

  for (std::size_t ci = r0; ci < r1; ++ci) {
    unsigned pts = 0;
    for (std::size_t cj = c0; cj < c1; ++cj) {
      ++pts;
      // The restriction summed 4 fine residuals (carrying the (2h)^2 / h^2
      // scaling), so the coarse correction transfers at full weight.
      const double e = at(u_[lev + 1], Lc, ci, cj);
      std::array<Proc::RunOp, 9> ops;
      unsigned n = 0;
      ops[n++] = Proc::RunOp::read(addr(u_[lev + 1], Lc, ci, cj));
      for (int di = 0; di < 2; ++di) {
        for (int dj = 0; dj < 2; ++dj) {
          const std::size_t fi = 2 * ci - 1 + di;
          const std::size_t fj = 2 * cj - 1 + dj;
          at(u_[lev], Lf, fi, fj) += e;
          ops[n++] = Proc::RunOp::read(addr(u_[lev], Lf, fi, fj));
          ops[n++] = Proc::RunOp::write(addr(u_[lev], Lf, fi, fj));
        }
      }
      co_await p.run(ops.data(), n, 1);
    }
    if (pts) co_await p.compute(cfg_.point_cycles * pts);
  }
  co_await p.barrier(*bar_);
}

SimTask OceanApp::vcycle(Proc& p) {
  for (unsigned l = 0; l < cfg_.mg_levels; ++l) {
    for (unsigned s = 0; s < cfg_.relax_sweeps; ++s) {
      co_await relax(p, l, u_[l], f_[l], nullptr);
    }
    co_await restrict_residual(p, l);
  }
  // Coarsest level: extra smoothing stands in for a direct solve.
  for (unsigned s = 0; s < 2 * cfg_.relax_sweeps; ++s) {
    co_await relax(p, cfg_.mg_levels, u_[cfg_.mg_levels], f_[cfg_.mg_levels],
                   nullptr);
  }
  for (unsigned l = cfg_.mg_levels; l-- > 0;) {
    co_await prolong_correction(p, l);
    for (unsigned s = 0; s < cfg_.relax_sweeps; ++s) {
      co_await relax(p, l, u_[l], f_[l], nullptr);
    }
  }
}

SimTask OceanApp::aux_update(Proc& p, unsigned k) {
  const Level& L = levels_[0];
  const Tile t = my_tile(0, p.id());
  Field& a = aux_[k];
  const auto cols = static_cast<std::uint32_t>(t.col_end - t.col_begin);
  for (std::size_t gr = t.row_begin; gr < t.row_end; ++gr) {
    // Entirely inside my tile, so both fields walk the row contiguously:
    // host math first, then one three-stream run for the whole row.
    for (std::size_t gc = t.col_begin; gc < t.col_end; ++gc) {
      at(a, L, gr, gc) += 0.1 * at(u_[0], L, gr, gc);
    }
    if (cols == 0) continue;
    using Op = Proc::RunOp;
    const std::array<Op, 3> ops{
        Op::read(addr(u_[0], L, gr, t.col_begin), sizeof(double)),
        Op::read(addr(a, L, gr, t.col_begin), sizeof(double)),
        Op::write(addr(a, L, gr, t.col_begin), sizeof(double))};
    co_await p.run(ops.data(), 3, cols);
    co_await p.compute(cfg_.point_cycles * cols);
  }
}

SimTask OceanApp::reduce_residual(Proc& p, double local) {
  co_await p.acquire(*sum_lock_);
  host_sum_ += local;
  global_sum_.v[0] = host_sum_;
  co_await p.read(global_sum_.base);
  co_await p.write(global_sum_.base);
  p.release(*sum_lock_);
  co_await p.barrier(*bar_);
  co_await p.read(global_sum_.base);  // everyone reads the total
  if (p.id() == 0) {
    if (res0_ < 0) res0_ = host_sum_;
    res_final_ = host_sum_;
    host_sum_ = 0;
  }
  co_await p.barrier(*bar_);
}

SimTask OceanApp::body(Proc& p) {
  for (unsigned it = 0; it < cfg_.iters; ++it) {
    double local_res = 0;
    // Smoothing sweeps on the fine grid (the "current" field update).
    for (unsigned s = 0; s < cfg_.relax_sweeps; ++s) {
      co_await relax(p, 0, u_[0], f_[0], &local_res);
    }
    // Auxiliary field updates (stand-in for Ocean's many grids).
    for (unsigned k = 0; k < cfg_.aux_fields; ++k) {
      co_await aux_update(p, k);
    }
    co_await p.barrier(*bar_);
    // Multigrid V-cycle correction.
    co_await vcycle(p);
    // Global residual reduction (lock + shared scalar).
    co_await reduce_residual(p, local_res);
  }
}

void OceanApp::verify() const {
  if (res0_ < 0 || res_final_ < 0) {
    throw std::runtime_error("Ocean verification failed: no residuals recorded");
  }
  if (!(res_final_ < 0.9 * res0_)) {
    throw std::runtime_error("Ocean verification failed: residual did not fall (" +
                             std::to_string(res0_) + " -> " +
                             std::to_string(res_final_) + ")");
  }
}

}  // namespace csim
