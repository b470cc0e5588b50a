// Working-set profiler: LRU stack-distance analysis (Mattson et al.), used
// to regenerate the working-set-size column of the paper's Table 3 and the
// overlap factors that drive Figures 4-8.
//
// Plugged in as a MemorySystem, it never stalls the processors (every access
// is a 1-cycle hit), but records, per profiling unit (processor or cluster),
// the LRU stack distance of every reference. One simulation then yields the
// miss ratio of *every* fully associative LRU cache size at once, from which
// working-set sizes (smallest cache covering a target fraction of re-
// references) and cluster overlap factors are derived.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/machine.hpp"
#include "src/mem/memory_system.hpp"

namespace csim {

/// Stack-distance histogram for one profiling unit.
class StackDistance {
 public:
  /// Records a reference to `line`; returns its LRU stack distance
  /// (SIZE_MAX for a first touch).
  std::size_t touch(Addr line);

  [[nodiscard]] std::uint64_t references() const noexcept { return refs_; }
  [[nodiscard]] std::uint64_t cold() const noexcept { return cold_; }
  [[nodiscard]] std::size_t distinct_lines() const noexcept {
    return pos_.size();
  }

  /// Miss ratio of a fully associative LRU cache with `lines` lines
  /// (cold misses included).
  [[nodiscard]] double miss_ratio(std::size_t lines) const;

  /// Miss ratio excluding cold misses (re-reference misses only).
  [[nodiscard]] double rereference_miss_ratio(std::size_t lines) const;

  /// Smallest cache size (in lines) whose re-reference hit coverage reaches
  /// `coverage` (e.g. 0.95). Returns distinct_lines() if never reached.
  [[nodiscard]] std::size_t working_set_lines(double coverage) const;

 private:
  std::list<Addr> stack_;  // MRU at front
  std::unordered_map<Addr, std::list<Addr>::iterator> pos_;
  std::vector<std::uint64_t> hist_;  // hist_[d]: refs at stack distance d
  std::uint64_t refs_ = 0;
  std::uint64_t cold_ = 0;
};

/// MemorySystem that profiles instead of simulating coherence. Profiling
/// granularity follows the machine's clustering: with procs_per_cluster = 1
/// it measures per-processor working sets; with C > 1 it measures the
/// cluster-level (overlapped) working sets.
class WorkingSetProfiler final : public MemorySystem {
 public:
  /// Shares the run's immutable spec (the same object the Simulator and
  /// memory systems see).
  explicit WorkingSetProfiler(std::shared_ptr<const MachineSpec> spec)
      : spec_(std::move(spec)),
        cfg_(*spec_),
        units_(cfg_.num_clusters()),
        counters_(cfg_.num_clusters()) {}

  AccessResult read(ProcId p, Addr a, Cycles now) override;
  AccessResult write(ProcId p, Addr a, Cycles now) override;

  [[nodiscard]] const MissCounters& cluster_counters(
      ClusterId c) const override {
    return counters_[c];
  }
  [[nodiscard]] MissCounters totals() const override;

  [[nodiscard]] const StackDistance& unit(ClusterId c) const {
    return units_[c];
  }
  [[nodiscard]] unsigned num_units() const noexcept {
    return cfg_.num_clusters();
  }

  /// Mean over units of working_set_lines(coverage), in bytes.
  [[nodiscard]] double mean_working_set_bytes(double coverage) const;

 private:
  std::shared_ptr<const MachineSpec> spec_;  // the run's shared immutable spec
  const MachineSpec& cfg_;                   // = *spec_
  std::vector<StackDistance> units_;
  std::vector<MissCounters> counters_;
};

/// Convenience: profile an application and return the profiler.
class Program;  // from core/simulator.hpp
std::unique_ptr<WorkingSetProfiler> profile_working_sets(
    Program& prog, const MachineSpec& cfg);

}  // namespace csim
