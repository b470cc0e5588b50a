#include "src/mem/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace csim {
namespace {

constexpr Addr L(unsigned i) { return static_cast<Addr>(i) * 64; }

TEST(CacheStorage, InfiniteNeverEvicts) {
  CacheStorage c(0, 0);
  for (unsigned i = 0; i < 10000; ++i) {
    EXPECT_FALSE(c.insert(L(i), LineState::Shared).has_value());
  }
  EXPECT_EQ(c.size(), 10000u);
  EXPECT_TRUE(c.infinite());
  EXPECT_TRUE(c.lookup(L(1234)).has_value());
}

TEST(CacheStorage, FullyAssociativeLruEvictsOldest) {
  CacheStorage c(4, 0);
  for (unsigned i = 0; i < 4; ++i) c.insert(L(i), LineState::Shared);
  const auto victim = c.insert(L(4), LineState::Shared);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, L(0)) << "LRU victim must be the oldest line";
  EXPECT_FALSE(c.lookup(L(0)).has_value());
  EXPECT_TRUE(c.lookup(L(4)).has_value());
}

TEST(CacheStorage, TouchPromotesToMru) {
  CacheStorage c(4, 0);
  for (unsigned i = 0; i < 4; ++i) c.insert(L(i), LineState::Shared);
  c.touch(L(0));  // L(1) becomes LRU
  const auto victim = c.insert(L(4), LineState::Shared);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, L(1));
  EXPECT_TRUE(c.lookup(L(0)).has_value());
}

TEST(CacheStorage, LookupDoesNotPromote) {
  CacheStorage c(2, 0);
  c.insert(L(0), LineState::Shared);
  c.insert(L(1), LineState::Shared);
  (void)c.lookup(L(0));  // must NOT touch
  const auto victim = c.insert(L(2), LineState::Shared);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, L(0));
}

TEST(CacheStorage, EraseReturnsState) {
  CacheStorage c(4, 0);
  c.insert(L(1), LineState::Exclusive);
  const auto st = c.erase(L(1));
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(*st, LineState::Exclusive);
  EXPECT_FALSE(c.erase(L(1)).has_value());
  EXPECT_EQ(c.size(), 0u);
}

TEST(CacheStorage, SetState) {
  CacheStorage c(4, 0);
  c.insert(L(2), LineState::Shared);
  EXPECT_TRUE(c.set_state(L(2), LineState::Exclusive));
  EXPECT_EQ(c.lookup(L(2)), LineState::Exclusive);
  EXPECT_FALSE(c.set_state(L(99), LineState::Shared));
  // Eviction reports the updated state.
  c.insert(L(3), LineState::Shared);
  c.insert(L(4), LineState::Shared);
  c.insert(L(5), LineState::Shared);
  const auto victim = c.insert(L(6), LineState::Shared);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, L(2));
  EXPECT_EQ(victim->state, LineState::Exclusive);
}

TEST(CacheStorage, DoubleInsertThrows) {
  CacheStorage c(4, 0);
  c.insert(L(1), LineState::Shared);
  EXPECT_THROW(c.insert(L(1), LineState::Shared), std::logic_error);
}

TEST(CacheStorage, SetAssociativeConflictsWithinSet) {
  // 8 lines, 2-way: 4 sets. Lines i and i+4k share set (i mod 4).
  CacheStorage c(8, 2);
  c.insert(L(0), LineState::Shared);
  c.insert(L(4), LineState::Shared);
  // Third line in set 0 evicts LRU of that set only.
  const auto victim = c.insert(L(8), LineState::Shared);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, L(0));
  EXPECT_TRUE(c.lookup(L(4)).has_value());
  // Other sets are unaffected and have room.
  EXPECT_FALSE(c.insert(L(1), LineState::Shared).has_value());
  EXPECT_FALSE(c.insert(L(2), LineState::Shared).has_value());
}

TEST(CacheStorage, DirectMappedThrashesFullAssocDoesNot) {
  // Two lines mapping to the same direct-mapped set alternate forever.
  CacheStorage dm(4, 1);
  dm.insert(L(0), LineState::Shared);
  auto v = dm.insert(L(4), LineState::Shared);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->line, L(0));

  CacheStorage fa(4, 0);
  fa.insert(L(0), LineState::Shared);
  EXPECT_FALSE(fa.insert(L(4), LineState::Shared).has_value())
      << "fully associative cache with spare capacity must not evict";
}

TEST(CacheStorage, CapacityNotMultipleOfWaysThrows) {
  EXPECT_THROW(CacheStorage(10, 4), std::invalid_argument);
}

TEST(CacheStorage, MoreThan2To32LinesThrows) {
  // Rejected before any allocation: LRU links are 32-bit node indices.
  EXPECT_THROW(CacheStorage(std::size_t{1} << 32, 0), std::invalid_argument);
}

// A seeded mix of inserts, touches, accesses, state changes and erases
// (which free LRU nodes for reuse), checked against a naive model: per set,
// the lines from LRU to MRU. Covers the fully associative and 2-way cases.
TEST(CacheStorage, MatchesNaiveLruModelOverRandomOperations) {
  for (const unsigned ways : {0u, 2u}) {
    CacheStorage c(8, ways);
    const std::size_t cap = ways == 0 ? 8 : ways;
    std::vector<std::vector<std::pair<Addr, LineState>>> model(8 / cap);
    std::uint64_t x = 12345;
    for (int step = 0; step < 5000; ++step) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const Addr line = L(static_cast<unsigned>((x >> 33) % 24));
      auto& set = model[(line / 64) % model.size()];
      auto it = std::find_if(set.begin(), set.end(),
                             [&](const auto& e) { return e.first == line; });
      const unsigned op = static_cast<unsigned>(x >> 61);  // 0..7
      if (it == set.end()) {
        if (op < 4) {
          const auto victim = c.insert(line, LineState::Shared);
          if (set.size() == cap) {
            ASSERT_TRUE(victim.has_value());
            EXPECT_EQ(victim->line, set.front().first);
            set.erase(set.begin());
          } else {
            EXPECT_FALSE(victim.has_value());
          }
          set.emplace_back(line, LineState::Shared);
        } else {
          EXPECT_FALSE(c.access(line).has_value());
        }
        continue;
      }
      if (op < 2) {
        EXPECT_EQ(c.erase(line), it->second);
        set.erase(it);
        continue;
      }
      if (op < 4) {
        c.set_state(line, LineState::Exclusive);  // no promotion
        it->second = LineState::Exclusive;
        continue;
      }
      if (op < 6) {
        c.touch(line);
      } else {
        EXPECT_EQ(c.access(line), it->second);
      }
      std::rotate(it, it + 1, set.end());  // to the MRU end
    }
    std::vector<std::pair<Addr, LineState>> want;
    for (const auto& set : model) {
      want.insert(want.end(), set.begin(), set.end());
    }
    EXPECT_EQ(c.dump_lru_order(), want) << "ways " << ways;
  }
}

TEST(CacheStorage, ResidentLines) {
  CacheStorage c(4, 0);
  c.insert(L(3), LineState::Shared);
  c.insert(L(7), LineState::Exclusive);
  auto lines = c.resident_lines();
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines, (std::vector<Addr>{L(3), L(7)}));
}

TEST(CacheStorage, LineSizeAffectsSetIndexing) {
  // 128-byte lines: addresses 0 and 128 are consecutive lines.
  CacheStorage c(4, 2, 128);  // 2 sets
  c.insert(0, LineState::Shared);
  c.insert(256, LineState::Shared);   // same set 0 (line #2)
  const auto victim = c.insert(512, LineState::Shared);  // line #4, set 0
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, 0u);
}

}  // namespace
}  // namespace csim
