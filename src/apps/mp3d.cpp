#include "src/apps/mp3d.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

#include "src/apps/prng.hpp"

namespace csim {

Mp3dConfig Mp3dConfig::preset(ProblemScale s) {
  Mp3dConfig c;
  switch (s) {
    case ProblemScale::Test:
      c.particles = 2048;
      c.cells_per_dim = 6;
      c.steps = 2;
      break;
    case ProblemScale::Default:
      break;  // struct defaults
    case ProblemScale::Paper:
      c.particles = 50000;
      c.cells_per_dim = 16;
      c.steps = 6;
      break;
  }
  return c;
}

std::unique_ptr<Program> make_mp3d(ProblemScale s) {
  auto app = std::make_unique<Mp3dApp>(Mp3dConfig::preset(s));
  app->set_scale(s);
  return app;
}

unsigned Mp3dApp::cell_of(const Particle& q) const noexcept {
  const unsigned d = cfg_.cells_per_dim;
  auto idx = [&](double v) {
    int i = static_cast<int>(v * d);
    if (i < 0) i = 0;
    if (i >= static_cast<int>(d)) i = static_cast<int>(d) - 1;
    return static_cast<unsigned>(i);
  };
  return (idx(q.x) * d + idx(q.y)) * d + idx(q.z);
}

void Mp3dApp::setup(AddressSpace& as, const MachineSpec& mc) {
  nprocs_ = mc.num_procs;
  const unsigned d = cfg_.cells_per_dim;

  Rng rng(cfg_.seed);
  parts_.resize(cfg_.particles);
  for (auto& q : parts_) {
    q.x = rng.uniform();
    q.y = rng.uniform();
    q.z = rng.uniform();
    // Hypersonic flow: strong +x drift plus thermal spread.
    q.vx = 0.08 + 0.02 * rng.uniform(-1.0, 1.0);
    q.vy = 0.03 * rng.uniform(-1.0, 1.0);
    q.vz = 0.03 * rng.uniform(-1.0, 1.0);
  }
  ncells_ = d * d * d;
  cells_.assign(ncells_, Cell{});

  part_base_ = as.alloc(cfg_.particles * kParticleBytes, "mp3d.particles");
  cell_base_ = as.alloc(Addr{ncells_} * kCellBytes, "mp3d.cells");
  // Particles are placed at their owner; the cell array is left to
  // round-robin first touch (it is shared, unstructured read-write state).
  for (ProcId p = 0; p < nprocs_; ++p) {
    const BlockRange r = block_partition(cfg_.particles, nprocs_, p);
    as.place(particle_addr(r.begin), r.size() * kParticleBytes, p);
  }
  total_moves_ = 0;
  bar_ = std::make_unique<Barrier>(nprocs_);
}

SimTask Mp3dApp::body(Proc& p) {
  const BlockRange mine = block_partition(cfg_.particles, nprocs_, p.id());

  for (unsigned step = 0; step < cfg_.steps; ++step) {
    for (std::size_t i = mine.begin; i < mine.end; ++i) {
      Particle& q = parts_[i];
      // Free flight with specular reflection off the walls.
      auto bounce = [](double& x, double& v) {
        x += v;
        if (x < 0) {
          x = -x;
          v = -v;
        } else if (x > 1) {
          x = 2 - x;
          v = -v;
        }
      };
      bounce(q.x, q.vx);
      bounce(q.y, q.vy);
      bounce(q.z, q.vz);

      const unsigned c = cell_of(q);
      Cell& cell = cells_[c];
      ++cell.count;
      cell.momentum += std::abs(q.vx) + std::abs(q.vy) + std::abs(q.vz);

      // Simplified DSMC collision: exchange a velocity component with the
      // cell's reservoir particle (the last particle that visited).
      const std::uint32_t other = cell.reservoir;
      cell.reservoir = static_cast<std::uint32_t>(i);
      if (other != static_cast<std::uint32_t>(i)) {
        std::swap(parts_[other].vy, q.vy);
      }
      ++total_moves_;

      // References: read+write my particle record, read+write the shared
      // space cell, read+write the reservoir partner's record — one run
      // per move.
      std::array<Proc::RunOp, 7> ops;
      unsigned cnt = 0;
      ops[cnt++] = Proc::RunOp::read(particle_addr(i));
      ops[cnt++] = Proc::RunOp::compute(cfg_.move_cycles);
      ops[cnt++] = Proc::RunOp::read(cell_addr(c));
      ops[cnt++] = Proc::RunOp::write(cell_addr(c));
      if (other != static_cast<std::uint32_t>(i)) {
        ops[cnt++] = Proc::RunOp::read(particle_addr(other));
        ops[cnt++] = Proc::RunOp::write(particle_addr(other));
      }
      ops[cnt++] = Proc::RunOp::write(particle_addr(i));
      co_await p.run(ops.data(), cnt, 1);
    }
    co_await p.barrier(*bar_);
  }
}

void Mp3dApp::verify() const {
  const std::uint64_t moves = total_moves_;
  if (moves != static_cast<std::uint64_t>(cfg_.particles) * cfg_.steps) {
    throw std::runtime_error("MP3D verification failed: move count mismatch");
  }
  for (const auto& q : parts_) {
    if (q.x < 0 || q.x > 1 || q.y < 0 || q.y > 1 || q.z < 0 || q.z > 1) {
      throw std::runtime_error("MP3D verification failed: particle escaped");
    }
  }
  // Visits conserve: every move lands in exactly one cell.
  std::uint64_t visits = 0;
  for (const auto& c : cells_) visits += c.count;
  if (visits != moves) {
    throw std::runtime_error("MP3D verification failed: cell visits mismatch");
  }
}

}  // namespace csim
