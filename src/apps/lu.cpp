#include "src/apps/lu.hpp"

#include <cmath>
#include <stdexcept>

#include "src/apps/prng.hpp"

namespace csim {

LuConfig LuConfig::preset(ProblemScale s) {
  LuConfig c;
  switch (s) {
    case ProblemScale::Test:
      c.n = 64;
      c.block = 8;
      break;
    case ProblemScale::Default:
      c.n = 384;
      c.block = 16;
      break;
    case ProblemScale::Paper:
      c.n = 512;
      c.block = 16;
      break;
  }
  return c;
}

std::unique_ptr<Program> make_lu(ProblemScale s) {
  auto app = std::make_unique<LuApp>(LuConfig::preset(s));
  app->set_scale(s);
  return app;
}

double& LuApp::el(unsigned gi, unsigned gj) noexcept {
  const unsigned b = cfg_.block;
  return a_[block_offset(gi / b, gj / b) + (gi % b) * b + (gj % b)];
}

double LuApp::el(unsigned gi, unsigned gj) const noexcept {
  const unsigned b = cfg_.block;
  return a_[block_offset(gi / b, gj / b) + (gi % b) * b + (gj % b)];
}

void LuApp::setup(AddressSpace& as, const MachineSpec& mc) {
  if (cfg_.n % cfg_.block != 0) {
    throw std::invalid_argument("LU: block must divide n");
  }
  nb_ = cfg_.n / cfg_.block;
  grid_ = make_proc_grid(mc.num_procs);

  const std::size_t elems = std::size_t{cfg_.n} * cfg_.n;
  a_.assign(elems, 0.0);
  Rng rng(cfg_.seed);
  for (unsigned i = 0; i < cfg_.n; ++i) {
    for (unsigned j = 0; j < cfg_.n; ++j) {
      el(i, j) = rng.uniform(-1.0, 1.0);
    }
    el(i, i) += cfg_.n;  // diagonal dominance: no pivoting needed
  }
  a0_ = a_;

  base_ = as.alloc(elems * sizeof(double), "lu.matrix");
  // Blocks live at their owner (the paper's explicit data placement).
  const std::size_t block_bytes =
      std::size_t{cfg_.block} * cfg_.block * sizeof(double);
  for (unsigned bi = 0; bi < nb_; ++bi) {
    for (unsigned bj = 0; bj < nb_; ++bj) {
      as.place(block_addr(bi, bj), block_bytes, owner(bi, bj));
    }
  }
  bar_ = std::make_unique<Barrier>(mc.num_procs);
}

Proc::OpAwaiter LuApp::rw_block_lines(Proc& p, unsigned bi, unsigned bj,
                                      Cycles compute_per_line) {
  const unsigned line = p.config().cache.line_bytes;
  const std::size_t bytes =
      std::size_t{cfg_.block} * cfg_.block * sizeof(double);
  const Addr base = block_addr(bi, bj);
  const auto count = static_cast<std::uint32_t>((bytes + line - 1) / line);
  using Op = Proc::RunOp;
  if (compute_per_line != 0) {
    return p.run({Op::read(base, line), Op::compute(compute_per_line),
                  Op::write(base, line)},
                 count);
  }
  return p.run({Op::read(base, line), Op::write(base, line)}, count);
}

SimTask LuApp::factor_diag(Proc& p, unsigned k) {
  const unsigned b = cfg_.block;
  const unsigned g0 = k * b;
  // Host math: in-place LU of the diagonal block (unit lower diagonal).
  for (unsigned kk = 0; kk < b; ++kk) {
    const double pivot = el(g0 + kk, g0 + kk);
    for (unsigned i = kk + 1; i < b; ++i) {
      el(g0 + i, g0 + kk) /= pivot;
      for (unsigned j = kk + 1; j < b; ++j) {
        el(g0 + i, g0 + j) -= el(g0 + i, g0 + kk) * el(g0 + kk, g0 + j);
      }
    }
  }
  // References: the block is read and rewritten; ~b^3/3 fused ops of compute.
  const std::size_t lines =
      std::size_t{b} * b * sizeof(double) / p.config().cache.line_bytes;
  const Cycles per_line =
      cfg_.flop_cycles * (std::uint64_t{b} * b * b / 3) / std::max<std::size_t>(lines, 1);
  co_await rw_block_lines(p, k, k, per_line);
}

SimTask LuApp::row_solve(Proc& p, unsigned k, unsigned j) {
  const unsigned b = cfg_.block;
  const unsigned r0 = k * b, c0 = j * b;
  // Host math: A(k,j) = L(k,k)^-1 * A(k,j), L unit lower triangular.
  for (unsigned jj = 0; jj < b; ++jj) {
    for (unsigned ii = 1; ii < b; ++ii) {
      double s = el(r0 + ii, c0 + jj);
      for (unsigned kk = 0; kk < ii; ++kk) {
        s -= el(r0 + ii, r0 + kk) * el(r0 + kk, c0 + jj);
      }
      el(r0 + ii, c0 + jj) = s;
    }
  }
  // References: stream the (remote) diagonal block, then rewrite ours.
  const std::size_t bytes = std::size_t{b} * b * sizeof(double);
  const std::size_t lines = bytes / p.config().cache.line_bytes;
  const Cycles per_line =
      cfg_.flop_cycles * (std::uint64_t{b} * b * b / 2) / std::max<std::size_t>(lines, 1);
  co_await stream_read(p, block_addr(k, k), bytes);
  co_await rw_block_lines(p, k, j, per_line);
}

SimTask LuApp::col_solve(Proc& p, unsigned i, unsigned k) {
  const unsigned b = cfg_.block;
  const unsigned r0 = i * b, c0 = k * b;
  // Host math: A(i,k) = A(i,k) * U(k,k)^-1.
  for (unsigned ii = 0; ii < b; ++ii) {
    for (unsigned jj = 0; jj < b; ++jj) {
      double s = el(r0 + ii, c0 + jj);
      for (unsigned kk = 0; kk < jj; ++kk) {
        s -= el(r0 + ii, c0 + kk) * el(c0 + kk, c0 + jj);
      }
      el(r0 + ii, c0 + jj) = s / el(c0 + jj, c0 + jj);
    }
  }
  const std::size_t bytes = std::size_t{b} * b * sizeof(double);
  const std::size_t lines = bytes / p.config().cache.line_bytes;
  const Cycles per_line =
      cfg_.flop_cycles * (std::uint64_t{b} * b * b / 2) / std::max<std::size_t>(lines, 1);
  co_await stream_read(p, block_addr(k, k), bytes);
  co_await rw_block_lines(p, i, k, per_line);
}

SimTask LuApp::trailing_update(Proc& p, unsigned i, unsigned j, unsigned k) {
  const unsigned b = cfg_.block;
  const unsigned r0 = i * b, c0 = j * b, k0 = k * b;
  // Host math: A(i,j) -= A(i,k) * A(k,j).
  for (unsigned ii = 0; ii < b; ++ii) {
    for (unsigned jj = 0; jj < b; ++jj) {
      double s = 0;
      for (unsigned kk = 0; kk < b; ++kk) {
        s += el(r0 + ii, k0 + kk) * el(k0 + kk, c0 + jj);
      }
      el(r0 + ii, c0 + jj) -= s;
    }
  }
  // References: read both source blocks (often remote: row/column
  // communication), then read-modify-write our block with the DGEMM compute.
  const std::size_t bytes = std::size_t{b} * b * sizeof(double);
  const std::size_t lines = bytes / p.config().cache.line_bytes;
  const Cycles per_line = cfg_.flop_cycles * (2 * std::uint64_t{b} * b * b) /
                          std::max<std::size_t>(lines, 1);
  co_await stream_read(p, block_addr(i, k), bytes);
  co_await stream_read(p, block_addr(k, j), bytes);
  co_await rw_block_lines(p, i, j, per_line);
}

SimTask LuApp::body(Proc& p) {
  for (unsigned k = 0; k < nb_; ++k) {
    if (owner(k, k) == p.id()) co_await factor_diag(p, k);
    co_await p.barrier(*bar_);
    for (unsigned j = k + 1; j < nb_; ++j) {
      if (owner(k, j) == p.id()) co_await row_solve(p, k, j);
    }
    for (unsigned i = k + 1; i < nb_; ++i) {
      if (owner(i, k) == p.id()) co_await col_solve(p, i, k);
    }
    co_await p.barrier(*bar_);
    for (unsigned i = k + 1; i < nb_; ++i) {
      for (unsigned j = k + 1; j < nb_; ++j) {
        if (owner(i, j) == p.id()) co_await trailing_update(p, i, j, k);
      }
    }
    co_await p.barrier(*bar_);
  }
}

void LuApp::verify() const {
  // Reconstruct L*U (L unit lower) and compare with the original matrix.
  const unsigned n = cfg_.n;
  double max_rel_err = 0;
  // Sample rows to keep verification cheap at paper scale.
  const unsigned stride = n > 256 ? 7 : 1;
  for (unsigned i = 0; i < n; i += stride) {
    for (unsigned j = 0; j < n; ++j) {
      double s = 0;
      const unsigned kmax = std::min(i, j);
      for (unsigned k = 0; k <= kmax; ++k) {
        const double l = (k == i) ? 1.0 : el(i, k);
        s += l * el(k, j);
      }
      const unsigned b = cfg_.block;
      const double orig =
          a0_[(static_cast<std::size_t>(i / b) * nb_ + j / b) * b * b +
              (i % b) * b + (j % b)];
      const double err = std::abs(s - orig) / (std::abs(orig) + 1.0);
      max_rel_err = std::max(max_rel_err, err);
    }
  }
  if (max_rel_err > 1e-8) {
    throw std::runtime_error("LU verification failed: max rel err " +
                             std::to_string(max_rel_err));
  }
}

}  // namespace csim
