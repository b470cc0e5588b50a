#include "src/mem/cache.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace csim {

CacheStorage::CacheStorage(std::size_t capacity_lines, unsigned associativity,
                           unsigned line_bytes)
    : capacity_(capacity_lines), ways_(associativity) {
  line_shift_ = 0;
  while ((1u << line_shift_) < line_bytes) ++line_shift_;
  if (capacity_ == 0) {
    num_sets_ = 0;  // infinite: no sets at all
  } else if (ways_ == 0) {
    num_sets_ = 1;  // fully associative
  } else {
    if (capacity_ % ways_ != 0) {
      throw std::invalid_argument("capacity not a multiple of associativity");
    }
    num_sets_ = capacity_ / ways_;
  }
  if (capacity_ != 0) {
    if (num_sets_ + capacity_ > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument("cache of more than 2^32 lines");
    }
    // Line nodes are appended as the cache fills; reserving them up front
    // keeps their storage in place and costs no pass over it.
    nodes_.reserve(num_sets_ + capacity_);
    for (std::uint32_t s = 0; s < num_sets_; ++s) {
      nodes_.push_back(Node{0, s, s, LineState::Shared});
    }
    set_lines_.assign(num_sets_, 0);
  }
  // A bounded cache can never hold more than capacity_ lines: size the line
  // table once so steady-state operation never rehashes. (Extra headroom to
  // make tombstone-reclaim rehashes rarer was tried and measured slower —
  // the larger table costs more in probe locality than the rehashes do.)
  if (capacity_ != 0) map_.reserve(capacity_);
}

unsigned CacheStorage::set_index(Addr line) const noexcept {
  if (num_sets_ <= 1) return 0;
  return static_cast<unsigned>((line >> line_shift_) % num_sets_);
}

std::optional<LineState> CacheStorage::lookup(Addr line) const {
  const MapEntry* e = map_.find(line);
  if (e == nullptr) return std::nullopt;
  return e->state;
}

void CacheStorage::touch(Addr line) {
  if (capacity_ == 0) return;
  MapEntry* e = map_.find(line);
  if (e == nullptr) return;
  promote(set_index(line), e->node);
}

std::optional<LineState> CacheStorage::access(Addr line) {
  MapEntry* e = map_.find(line);
  if (e == nullptr) return std::nullopt;
  if (capacity_ != 0) promote(set_index(line), e->node);
  return e->state;
}

std::optional<Evicted> CacheStorage::insert(Addr line, LineState st) {
  if (capacity_ == 0) {
    auto [e, fresh] = map_.try_emplace(line);
    if (!fresh) throw std::logic_error("CacheStorage::insert of resident line");
    e->state = st;
    return std::nullopt;
  }
  if (map_.contains(line)) {
    throw std::logic_error("CacheStorage::insert of resident line");
  }
  const unsigned set = set_index(line);
  std::optional<Evicted> victim;
  std::uint32_t i;
  const std::size_t set_cap = (ways_ == 0) ? capacity_ : ways_;
  if (set_lines_[set] >= set_cap) {
    i = nodes_[set].prev;  // the set's LRU line
    victim = Evicted{nodes_[i].line, nodes_[i].state};
    map_.erase(nodes_[i].line);
    unlink(i);
  } else {
    if (free_.empty()) {
      i = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    } else {
      i = free_.back();
      free_.pop_back();
    }
    ++set_lines_[set];
  }
  nodes_[i].line = line;
  nodes_[i].state = st;
  link_mru(set, i);
  MapEntry& e = map_[line];
  e.state = st;
  e.node = i;
  return victim;
}

bool CacheStorage::set_state(Addr line, LineState st) {
  MapEntry* e = map_.find(line);
  if (e == nullptr) return false;
  e->state = st;
  if (capacity_ != 0) nodes_[e->node].state = st;
  return true;
}

std::optional<LineState> CacheStorage::erase(Addr line) {
  MapEntry* e = map_.find(line);
  if (e == nullptr) return std::nullopt;
  const LineState st = e->state;
  if (capacity_ != 0) {
    unlink(e->node);
    free_.push_back(e->node);
    --set_lines_[set_index(line)];
  }
  map_.erase(line);
  return st;
}

std::vector<Addr> CacheStorage::resident_lines() const {
  std::vector<Addr> out;
  out.reserve(map_.size());
  for (const auto& [line, e] : map_) {
    (void)e;
    out.push_back(line);
  }
  return out;
}

std::vector<std::pair<Addr, LineState>> CacheStorage::dump_lru_order() const {
  std::vector<std::pair<Addr, LineState>> out;
  out.reserve(map_.size());
  if (capacity_ == 0) {
    for (const auto& [line, e] : map_) out.emplace_back(line, e.state);
    std::sort(out.begin(), out.end());
    return out;
  }
  for (std::uint32_t s = 0; s < num_sets_; ++s) {
    for (std::uint32_t i = nodes_[s].prev; i != s; i = nodes_[i].prev) {
      out.emplace_back(nodes_[i].line, nodes_[i].state);
    }
  }
  return out;
}

}  // namespace csim
