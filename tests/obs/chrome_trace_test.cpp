// TimelineTracer tests: a traced run produces a structurally valid Chrome
// trace-event JSON document (the ISSUE's schema check), with per-processor
// tracks, balanced async miss spans, and events inside the simulated
// timeline. Also checks the address the memory systems report on a store
// stall.
#include "src/obs/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/app.hpp"
#include "src/core/simulator.hpp"
#include "src/report/experiment.hpp"
#include "tests/obs/json_checker.hpp"

namespace csim {
namespace {

using testjson::Value;

struct TracedRun {
  SimResult result;
  Value doc;
};

/// Runs fft at test scale with a tracer attached and parses the JSON.
TracedRun traced_fft(unsigned ppc, ClusterStyle style) {
  auto app = make_app("fft", ProblemScale::Test);
  MachineSpec cfg = paper_machine(ppc, 16 * 1024);
  cfg.cluster_style = style;
  obs::TimelineTracer tracer;
  TracedRun out;
  out.result = simulate(*app, cfg, &tracer);
  EXPECT_GT(tracer.size(), 0u);
  std::ostringstream os;
  tracer.write_json(os);
  out.doc = testjson::parse(os.str());
  return out;
}

/// Chrome trace-event schema: every event object must carry ph/pid/tid/ts
/// (metadata aside), phase-specific fields, and known phase letters.
void check_schema(const Value& doc, const SimResult& r) {
  ASSERT_TRUE(doc.is(Value::Kind::Object));
  ASSERT_TRUE(doc.has("traceEvents"));
  const Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is(Value::Kind::Array));
  ASSERT_FALSE(events.array.empty());

  std::map<std::string, unsigned> phases;
  std::map<double, unsigned> async_begin, async_end;
  std::set<double> thread_tids;
  for (const Value& e : events.array) {
    ASSERT_TRUE(e.is(Value::Kind::Object));
    ASSERT_TRUE(e.has("ph"));
    const std::string ph = e.at("ph").str;
    ++phases[ph];
    ASSERT_TRUE(e.has("name"));
    ASSERT_TRUE(e.has("pid"));
    ASSERT_TRUE(e.has("tid"));
    if (ph == "M") {
      ASSERT_TRUE(e.has("args"));
      continue;
    }
    ASSERT_TRUE(e.has("cat")) << "non-metadata event without category";
    ASSERT_TRUE(e.has("ts"));
    const double ts = e.at("ts").number;
    EXPECT_GE(ts, 0.0);
    EXPECT_LE(ts, static_cast<double>(r.wall_time));
    if (ph == "X") {
      ASSERT_TRUE(e.has("dur"));
      EXPECT_GE(e.at("dur").number, 0.0);
      EXPECT_LE(ts + e.at("dur").number, static_cast<double>(r.wall_time));
      thread_tids.insert(e.at("tid").number);
    } else if (ph == "b") {
      ++async_begin[e.at("id").number];
    } else if (ph == "e") {
      ++async_end[e.at("id").number];
    } else {
      EXPECT_EQ(ph, "i") << "unexpected phase '" << ph << "'";
      ASSERT_TRUE(e.has("s")) << "instant event without scope";
    }
  }

  // Miss round-trips are async begin/end pairs matched by id.
  EXPECT_EQ(async_begin, async_end) << "unbalanced async begin/end pairs";
  EXPECT_FALSE(async_begin.empty()) << "a 16KB fft run must record misses";

  // One named track per processor plus the per-cluster process names.
  EXPECT_EQ(phases["M"],
            r.config.num_procs + r.config.num_clusters() + 1);
  // Every processor ran, so every processor has at least one slice.
  EXPECT_EQ(thread_tids.size(), r.config.num_procs);
}

TEST(TimelineTracer, SharedCacheTraceIsValidChromeTraceJson) {
  const TracedRun t = traced_fft(8, ClusterStyle::SharedCache);
  ASSERT_TRUE(t.result.ok);
  check_schema(t.doc, t.result);
}

TEST(TimelineTracer, SharedMemoryTraceIsValidChromeTraceJson) {
  const TracedRun t = traced_fft(4, ClusterStyle::SharedMemory);
  ASSERT_TRUE(t.result.ok);
  check_schema(t.doc, t.result);
}

TEST(TimelineTracer, TracedRunStatisticsMatchUntraced) {
  // Attaching the tracer must not perturb the simulation: bit-identical
  // wall time and counters (the observer reads, never steers).
  auto app1 = make_app("fft", ProblemScale::Test);
  auto app2 = make_app("fft", ProblemScale::Test);
  MachineSpec cfg = paper_machine(8, 16 * 1024);
  obs::TimelineTracer tracer;
  const SimResult traced = simulate(*app1, cfg, &tracer);
  const SimResult plain = simulate(*app2, cfg);
  EXPECT_EQ(traced.wall_time, plain.wall_time);
  EXPECT_EQ(traced.events, plain.events);
  EXPECT_EQ(traced.totals, plain.totals);
  EXPECT_EQ(traced.per_proc, plain.per_proc);
}

TEST(TimelineTracer, InvalidationsLandOnMemorySystemTrack) {
  const TracedRun t = traced_fft(1, ClusterStyle::SharedCache);
  ASSERT_TRUE(t.result.ok);
  ASSERT_GT(t.result.totals.invalidations, 0u);
  const double memory_pid =
      static_cast<double>(t.result.config.num_clusters());
  bool found = false;
  for (const Value& e : t.doc.at("traceEvents").array) {
    if (e.at("name").str == "invalidation") {
      EXPECT_EQ(e.at("pid").number, memory_pid);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "invalidation rounds must appear in the trace";
}

/// Processor 0 writes one word, 8 bytes into a line; nothing else runs.
class OneUnalignedWrite final : public Program {
 public:
  [[nodiscard]] std::string name() const override { return "one-write"; }
  void setup(AddressSpace& as, const MachineSpec&) override {
    base_ = as.alloc(4096, "word");
  }
  SimTask body(Proc& p) override {
    if (p.id() == 0) co_await p.write(target());
  }
  [[nodiscard]] Addr target() const { return base_ + 8; }

 private:
  Addr base_ = 0;
};

/// Records every memory-stall hook.
class StallRecorder final : public Observer {
 public:
  struct Event {
    ProcId proc;
    Addr addr;
    Stall kind;
  };
  void on_memory_stall(ProcId p, Addr a, Stall kind, Cycles, Cycles,
                       LatencyClass) override {
    events.push_back({p, a, kind});
  }
  std::vector<Event> events;
};

TEST(ObserverHooks, StoreStallCarriesTheByteAddressInBothOrganizations) {
  for (const ClusterStyle style :
       {ClusterStyle::SharedCache, ClusterStyle::SharedMemory}) {
    SCOPED_TRACE(style == ClusterStyle::SharedCache ? "sc" : "sm");
    OneUnalignedWrite prog;
    StallRecorder rec;
    const SimResult r = simulate(
        prog,
        MachineSpecBuilder{}.procs(4).procs_per_cluster(2).style(style).build(),
        &rec);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(rec.events.size(), 1u);
    EXPECT_EQ(rec.events[0].proc, 0u);
    EXPECT_EQ(rec.events[0].kind, Observer::Stall::Store);
    EXPECT_EQ(rec.events[0].addr, prog.target());
  }
}

TEST(TimelineTracer, WriteJsonFileRejectsBadPath) {
  obs::TimelineTracer tracer;
  EXPECT_THROW(tracer.write_json_file("/nonexistent/dir/trace.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace csim
