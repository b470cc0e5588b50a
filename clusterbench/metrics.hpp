// Names and units of every metric the benchmark prints. The end-to-end
// metrics come from untraced passes (--trace 0), the per-layer metrics from
// the traced run (--trace 1); BENCHMARK.json lists the same names.
#pragma once

#include <string_view>

namespace clusterbench {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

inline constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"sim_refs_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

inline constexpr MetricDef kPerLayer[] = {
    {"apps.floor_s", "s"},
    {"core.events", "count"},
    {"core.events_per_ref", "ratio"},
    {"core.slices", "count"},
    {"core.self_s", "s"},
    {"host_ns_per_event", "ns"},
    {"filter.hit_share", "ratio"},
    {"mem.calls", "count"},
    {"mem.read_calls", "count"},
    {"mem.write_calls", "count"},
    {"mem.hit_calls", "count"},
    {"mem.nearhit_calls", "count"},
    {"mem.merge_calls", "count"},
    {"mem.read_miss_calls", "count"},
    {"mem.write_miss_calls", "count"},
    {"mem.upgrade_calls", "count"},
    {"mem.s", "s"},
    {"mem.hit_s", "s"},
    {"mem.miss_s", "s"},
    {"mem.ns_per_call", "ns"},
    {"warm.refs", "count"},
    {"warm.calls", "count"},
    {"warm_filter.hit_share", "ratio"},
    {"warm.s", "s"},
    {"ckpt.capture_s", "s"},
    {"ckpt.restore_s", "s"},
    {"ff.s", "s"},
    {"detail.s", "s"},
    {"sweep.overhead_s", "s"},
    {"trace_overhead_s", "s"},
    {"sampled_cycles_err", "ratio"},
    {"sampled_read_miss_err", "ratio"},
};

}  // namespace clusterbench
