#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/run_context.hpp"

namespace adaptviz::obs {
namespace {

// ---- MetricsRegistry ----

TEST(Metrics, CounterAccumulates) {
  MetricsRegistry reg;
  reg.counter("a").add();
  reg.counter("a").add(4);
  EXPECT_EQ(reg.counter("a").value(), 5);
  EXPECT_EQ(reg.counter("other").value(), 0);
}

TEST(Metrics, GaugeSetAndSetMax) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("depth");
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set_max(2.0);  // lower: no effect
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set_max(7.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
}

TEST(Metrics, StableReferences) {
  MetricsRegistry reg;
  Counter& first = reg.counter("x");
  for (int i = 0; i < 100; ++i) reg.counter("name" + std::to_string(i));
  EXPECT_EQ(&first, &reg.counter("x"));
}

TEST(Metrics, HistogramBucketsAndStats) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", {1.0, 10.0});
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (bound is inclusive)
  h.observe(5.0);   // bucket 1
  h.observe(100.0); // overflow
  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 3u);
  EXPECT_EQ(s.counts[0], 2);
  EXPECT_EQ(s.counts[1], 1);
  EXPECT_EQ(s.counts[2], 1);
  EXPECT_EQ(s.count, 4);
  EXPECT_DOUBLE_EQ(s.sum, 106.5);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 106.5 / 4.0);
}

TEST(Metrics, HistogramKeepsFirstBounds) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {1.0});
  Histogram& again = reg.histogram("h", {99.0, 100.0});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.upper_bounds(), std::vector<double>{1.0});
}

TEST(Metrics, EmptyHistogramSnapshot) {
  MetricsRegistry reg;
  const Histogram::Snapshot s = reg.histogram("never").snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Metrics, SnapshotLookups) {
  MetricsRegistry reg;
  reg.counter("c").add(7);
  reg.gauge("g").set(2.5);
  reg.histogram("h").observe(0.05);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_FALSE(snap.empty());
  EXPECT_EQ(snap.counter_or("c"), 7);
  EXPECT_EQ(snap.counter_or("absent", -1), -1);
  EXPECT_DOUBLE_EQ(snap.gauge_or("g"), 2.5);
  EXPECT_DOUBLE_EQ(snap.gauge_or("absent", -2.0), -2.0);
  ASSERT_NE(snap.histogram("h"), nullptr);
  EXPECT_EQ(snap.histogram("h")->count, 1);
  EXPECT_EQ(snap.histogram("absent"), nullptr);
}

TEST(Metrics, RestoreRewindsEveryInstrument) {
  MetricsRegistry reg;
  reg.counter("c").add(3);
  reg.gauge("g").set(1.5);
  Histogram& h = reg.histogram("h");
  h.observe(0.5);
  h.observe(20.0);
  const MetricsSnapshot before = reg.snapshot();

  reg.counter("c").add(4);
  reg.gauge("g").set(9.0);
  h.observe(1e-5);
  h.observe(5000.0);
  reg.restore(before);
  EXPECT_EQ(reg.snapshot(), before);

  // Instruments created after the snapshot reset to zero / empty.
  reg.histogram("late").observe(1.0);
  reg.restore(before);
  const Histogram::Snapshot late = reg.histogram("late").snapshot();
  EXPECT_EQ(late.count, 0);
  EXPECT_EQ(std::count(late.counts.begin(), late.counts.end(), 0),
            static_cast<std::ptrdiff_t>(late.counts.size()));
  EXPECT_DOUBLE_EQ(late.sum, 0.0);
}

TEST(Metrics, SnapshotIsNameSorted) {
  MetricsRegistry reg;
  reg.counter("zz").add();
  reg.counter("aa").add();
  reg.counter("mm").add();
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "aa");
  EXPECT_EQ(snap.counters[1].name, "mm");
  EXPECT_EQ(snap.counters[2].name, "zz");
}

// The concurrent hammer: many threads pound the same and distinct
// instruments while a reader keeps snapshotting. Exact totals must
// survive; TSan (the sanitizer CI job runs this test) must stay silent.
TEST(Metrics, ConcurrentHammer) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsSnapshot snap = reg.snapshot();
      EXPECT_LE(snap.counter_or("shared"),
                static_cast<std::int64_t>(kThreads) * kOps);
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, t] {
      const std::string own = "own" + std::to_string(t);
      for (int i = 0; i < kOps; ++i) {
        reg.counter("shared").add();
        reg.counter(own).add();
        reg.gauge("peak").set_max(static_cast<double>(i));
        reg.histogram("durations").observe(1e-4 * (t + 1));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("shared"),
            static_cast<std::int64_t>(kThreads) * kOps);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.counter_or("own" + std::to_string(t)), kOps);
  }
  EXPECT_DOUBLE_EQ(snap.gauge_or("peak"), static_cast<double>(kOps - 1));
  ASSERT_NE(snap.histogram("durations"), nullptr);
  EXPECT_EQ(snap.histogram("durations")->count,
            static_cast<std::int64_t>(kThreads) * kOps);
  EXPECT_DOUBLE_EQ(snap.histogram("durations")->min, 1e-4);
  EXPECT_DOUBLE_EQ(snap.histogram("durations")->max, 1e-4 * kThreads);
}

// ---- StageTracer ----

TEST(Tracer, RecordsInOrder) {
  StageTracer tracer(8);
  tracer.record("a", TraceClock::kHost, 0.0, 1.0);
  tracer.record("b", TraceClock::kSim, 5.0, 2.0, "k=v");
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].stage, "a");
  EXPECT_EQ(events[0].clock, TraceClock::kHost);
  EXPECT_EQ(events[1].stage, "b");
  EXPECT_EQ(events[1].clock, TraceClock::kSim);
  EXPECT_DOUBLE_EQ(events[1].start_seconds, 5.0);
  EXPECT_DOUBLE_EQ(events[1].duration_seconds, 2.0);
  EXPECT_EQ(events[1].metadata, "k=v");
  EXPECT_EQ(tracer.recorded(), 2);
  EXPECT_EQ(tracer.dropped(), 0);
}

TEST(Tracer, RingOverwritesOldestFirst) {
  StageTracer tracer(4);
  for (int i = 0; i < 6; ++i) {
    tracer.record("e" + std::to_string(i), TraceClock::kHost,
                  static_cast<double>(i), 0.1);
  }
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().stage, "e2");  // e0/e1 overwritten
  EXPECT_EQ(events.back().stage, "e5");
  EXPECT_EQ(tracer.recorded(), 6);
  EXPECT_EQ(tracer.dropped(), 2);
}

TEST(Tracer, HostClockAdvances) {
  StageTracer tracer(4);
  const double t0 = tracer.host_now();
  EXPECT_GE(tracer.host_now(), t0);
}

// ---- Install point + helpers ----

TEST(ObsInstall, HelpersNoopWhenNothingInstalled) {
  ASSERT_EQ(current(), nullptr);
  // None of these may crash or register anything anywhere.
  count("nothing");
  gauge_set("nothing", 1.0);
  gauge_max("nothing", 1.0);
  observe("nothing", 1.0);
  trace_sim("nothing", 0.0, 1.0);
  { ScopedSpan span("nothing"); }
  EXPECT_EQ(current(), nullptr);
}

TEST(ObsInstall, ScopedInstallAndNestedRestore) {
  ASSERT_EQ(current(), nullptr);
  Observability outer;
  {
    RunContext outer_ctx;
    outer_ctx.observability = &outer;
    ScopedRunContext s1(&outer_ctx);
    EXPECT_EQ(current(), &outer);
    Observability inner;
    {
      RunContext inner_ctx;
      inner_ctx.observability = &inner;
      ScopedRunContext s2(&inner_ctx);
      EXPECT_EQ(current(), &inner);
      count("hit");
    }
    EXPECT_EQ(current(), &outer);
    count("hit");
    EXPECT_EQ(inner.metrics().snapshot().counter_or("hit"), 1);
  }
  EXPECT_EQ(current(), nullptr);
  EXPECT_EQ(outer.metrics().snapshot().counter_or("hit"), 1);
}

TEST(ObsInstall, HelpersRouteToInstalledBundle) {
  Observability obs;
  {
    RunContext ctx;
    ctx.observability = &obs;
    ScopedRunContext scope(&ctx);
    count("c", 3);
    gauge_set("g", 1.5);
    gauge_max("g", 9.0);
    observe("h", 0.25);
    trace_sim("stage.sim", 10.0, 2.0, "seq=1");
    { ScopedSpan span("stage.host"); }
  }
  const MetricsSnapshot snap = obs.metrics().snapshot();
  EXPECT_EQ(snap.counter_or("c"), 3);
  EXPECT_DOUBLE_EQ(snap.gauge_or("g"), 9.0);
  ASSERT_NE(snap.histogram("h"), nullptr);
  EXPECT_EQ(snap.histogram("h")->count, 1);
  // trace_sim and ScopedSpan both feed a histogram named like the stage.
  ASSERT_NE(snap.histogram("stage.sim"), nullptr);
  ASSERT_NE(snap.histogram("stage.host"), nullptr);

  const std::vector<TraceEvent> events = obs.tracer().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].stage, "stage.sim");
  EXPECT_EQ(events[0].clock, TraceClock::kSim);
  EXPECT_EQ(events[0].metadata, "seq=1");
  EXPECT_EQ(events[1].stage, "stage.host");
  EXPECT_EQ(events[1].clock, TraceClock::kHost);
  EXPECT_GE(events[1].duration_seconds, 0.0);
}

TEST(ObsInstall, ScopedSpanMetadata) {
  Observability obs;
  {
    RunContext ctx;
    ctx.observability = &obs;
    ScopedRunContext scope(&ctx);
    ScopedSpan span("s");
    span.set_metadata("rows=42");
  }
  const std::vector<TraceEvent> events = obs.tracer().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].metadata, "rows=42");
}

TEST(ObsInstall, HotHandlesFollowTheBundleEpoch) {
  HotCounter hot("hot.counter");
  EXPECT_EQ(hot.resolve(nullptr), nullptr);

  Observability a;
  Observability b;
  EXPECT_NE(a.epoch(), b.epoch());
  hot.resolve(&a)->add(1);
  hot.resolve(&a)->add(1);  // cached path, same instrument
  hot.resolve(&b)->add(5);  // epoch change forces a re-lookup
  hot.resolve(&a)->add(1);  // and back again
  EXPECT_EQ(a.metrics().snapshot().counter_or("hot.counter"), 3);
  EXPECT_EQ(b.metrics().snapshot().counter_or("hot.counter"), 5);

  HotHistogram hist("hot.hist");
  hist.resolve(&a)->observe(0.5);
  {
    RunContext ctx;
    ctx.observability = &a;
    ScopedRunContext scope(&ctx);
    ScopedTimer timer(hist);  // cached histogram, no trace event
  }
  const MetricsSnapshot snap = a.metrics().snapshot();
  const Histogram::Snapshot* h = snap.histogram("hot.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2);
  EXPECT_TRUE(a.tracer().events().empty());
}

TEST(ObsInstall, LapTimerStagesShareTheirBoundaries) {
  HotHistogram stage_a("lap.a");
  HotHistogram stage_b("lap.b");
  HotHistogram chain("lap.chain");
  {
    LapTimer idle;  // nothing installed: every call is a no-op
    EXPECT_EQ(idle.bundle(), nullptr);
    idle.lap(stage_a);
    idle.skip();
    idle.close_span("lap.chain", chain);
  }

  Observability obs;
  {
    RunContext ctx;
    ctx.observability = &obs;
    ScopedRunContext scope(&ctx);
    LapTimer laps;
    EXPECT_EQ(laps.bundle(), &obs);
    laps.lap(stage_a);
    laps.lap(stage_b);
    laps.lap(stage_a);
    laps.close_span("lap.chain", chain);
  }
  const MetricsSnapshot snap = obs.metrics().snapshot();
  const Histogram::Snapshot* a = snap.histogram("lap.a");
  const Histogram::Snapshot* b = snap.histogram("lap.b");
  const Histogram::Snapshot* span = snap.histogram("lap.chain");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(a->count, 2);
  EXPECT_EQ(b->count, 1);
  EXPECT_EQ(span->count, 1);
  // Each lap starts where the previous one ended: the stages tile the span.
  EXPECT_NEAR(a->sum + b->sum, span->sum, 1e-9);
  const std::vector<TraceEvent> events = obs.tracer().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].stage, "lap.chain");
  EXPECT_EQ(events[0].clock, TraceClock::kHost);
  EXPECT_DOUBLE_EQ(events[0].duration_seconds, span->sum);

  // A skipped stretch is inside the span but in no stage.
  Observability gap;
  {
    RunContext ctx;
    ctx.observability = &gap;
    ScopedRunContext scope(&ctx);
    LapTimer laps;
    const double skipped_from = gap.tracer().host_now();
    while (gap.tracer().host_now() - skipped_from < 1e-3) {
    }
    laps.skip();
    laps.lap(stage_a);
    laps.close_span("lap.chain", chain);
  }
  const MetricsSnapshot gap_snap = gap.metrics().snapshot();
  ASSERT_NE(gap_snap.histogram("lap.a"), nullptr);
  ASSERT_NE(gap_snap.histogram("lap.chain"), nullptr);
  EXPECT_GT(gap_snap.histogram("lap.chain")->sum -
                gap_snap.histogram("lap.a")->sum,
            0.999e-3);
}

// ---- Exporters ----

TEST(Export, JsonContainsInstrumentsAndTrace) {
  Observability obs;
  obs.metrics().counter("sim.steps").add(12);
  obs.metrics().gauge("pool.queue_depth_peak").set(3.0);
  obs.metrics().histogram("sim.step", {0.1, 1.0}).observe(0.05);
  obs.tracer().record("sim.step", TraceClock::kHost, 0.25, 0.05, "k=\"v\"");

  std::ostringstream out;
  write_json(out, obs.metrics().snapshot(), obs.tracer().events());
  const std::string json = out.str();
  EXPECT_NE(json.find("\"sim.steps\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"pool.queue_depth_peak\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": [1, 0, 0]"), std::string::npos);
  EXPECT_NE(json.find("\"clock\": \"host\""), std::string::npos);
  // Embedded quotes in metadata must be escaped.
  EXPECT_NE(json.find("k=\\\"v\\\""), std::string::npos);
  // Braces balance (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Export, EmptyBundleIsStillValidJson) {
  std::ostringstream out;
  write_json(out, MetricsSnapshot{}, {});
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
}

TEST(Export, TraceCsvHeaderAndQuoting) {
  std::ostringstream out;
  write_trace_csv(out, {TraceEvent{"s", TraceClock::kSim, 1.0, 2.0, "a\"b"}});
  const std::string csv = out.str();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "stage,clock,start_seconds,duration_seconds,metadata");
  EXPECT_NE(csv.find("\"a\"\"b\""), std::string::npos);
}

TEST(Export, SaveJsonThrowsOnUnwritablePath) {
  EXPECT_THROW(save_json("/nonexistent-dir/x/metrics.json", {}, {}),
               std::runtime_error);
}

}  // namespace
}  // namespace adaptviz::obs
