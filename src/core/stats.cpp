#include "src/core/stats.hpp"

namespace csim {

MissCounters& MissCounters::operator+=(const MissCounters& o) noexcept {
  for (const auto field : kMissCounterFields) this->*field += o.*field;
  for (unsigned i = 0; i < kNumLatencyClasses; ++i) by_class[i] += o.by_class[i];
  return *this;
}

TimeBuckets SimResult::aggregate() const {
  TimeBuckets agg{};
  for (const auto& b : per_proc) agg += b;
  return agg;
}

double SimResult::loads_per_cpu_cycle() const {
  const Cycles cpu = aggregate().cpu;
  return cpu ? static_cast<double>(totals.reads) / static_cast<double>(cpu) : 0.0;
}

}  // namespace csim
