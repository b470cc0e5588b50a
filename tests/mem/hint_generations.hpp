// Checks on a memory system's per-line hit-filter generations
// (MemorySystem::generation_addr), shared by the protocol tests of both
// cluster organizations.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/mem/memory_system.hpp"

namespace csim::test {

/// Every cluster's kHintGenerations counters, cluster-major.
inline std::vector<std::uint64_t> all_generations(const MemorySystem& m,
                                                  unsigned clusters) {
  std::vector<std::uint64_t> g;
  for (ClusterId c = 0; c < clusters; ++c) {
    const std::uint64_t* first = m.generation_addr(c);
    g.insert(g.end(), first, first + kHintGenerations);
  }
  return g;
}

/// Expects `after` to differ from `before` by exactly one bump: the counter
/// of `line` (64-byte lines) in cluster `c`.
inline void expect_one_kill(const std::vector<std::uint64_t>& before,
                            const std::vector<std::uint64_t>& after,
                            ClusterId c, Addr line) {
  ASSERT_EQ(after.size(), before.size());
  const std::size_t killed = c * kHintGenerations + hint_generation(line, 6);
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i], before[i] + (i == killed ? 1 : 0))
        << "cluster " << i / kHintGenerations << ", counter "
        << i % kHintGenerations << " (the kill belongs to cluster " << c
        << ", counter " << killed % kHintGenerations << ")";
  }
}

}  // namespace csim::test
