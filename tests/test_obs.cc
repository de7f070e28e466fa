// Tests for the observability layer (src/obs): sharded counters under
// real concurrency, snapshot/diff semantics, registry exporters, span
// recording and the ring drain protocol, Chrome trace export, request
// lifecycle reconstruction by rid, per-phase cost attribution feeding
// src/green, critical-path latency decomposition (bitwise telescoping,
// trace-derived rebuild, windowed series with exemplars), multi-window
// SLO burn-rate alerting, and the determinism contract (traced and
// untraced engine outputs bitwise identical at DLSYS_THREADS 1/2/8).
//
// Everything that touches the *macro* sites or span recording is guarded
// with #if DLSYS_OBS so the suite also passes in a -DDLSYS_OBS=0 build
// (the CI kill-switch job); the direct registry/phase APIs are always
// compiled and tested unconditionally.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/rng.h"
#include "src/data/synthetic.h"
#include "src/fleet/chaos.h"
#include "src/fleet/fleet.h"
#include "src/green/energy.h"
#include "src/infer/engine.h"
#include "src/nn/train.h"
#include "src/obs/attribution.h"
#include "src/obs/cost.h"
#include "src/obs/counters.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "src/serve/loadgen.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"

namespace dlsys {
namespace {

using obs::CounterRegistry;

// -------------------------------------------------------------- counters

TEST(CounterTest, ShardedSumAcrossThreads) {
  obs::Counter* c = CounterRegistry::Global().counter("test.sharded_sum");
  const int64_t before = c->Value();
  constexpr int kThreads = 8;
  constexpr int64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c]() {
      for (int64_t i = 0; i < kPerThread; ++i) c->Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Value() - before, kThreads * kPerThread);
}

TEST(CounterRegistryTest, HandlesAreInternedAndStable) {
  CounterRegistry& reg = CounterRegistry::Global();
  obs::Counter* a = reg.counter("test.interned");
  obs::Counter* b = reg.counter("test.interned");
  EXPECT_EQ(a, b);
  // Reset zeroes values but never invalidates handles (macro sites cache
  // them in function-local statics).
  a->Add(5);
  const int64_t v = a->Value();
  EXPECT_GE(v, 5);
  EXPECT_EQ(reg.counter("test.interned"), a);
}

TEST(CounterRegistryTest, SnapshotDiffSemantics) {
  CounterRegistry& reg = CounterRegistry::Global();
  const CounterRegistry::Snapshot base = reg.SnapshotCounters();
  reg.counter("test.diff.a")->Add(3);
  reg.counter("test.diff.a")->Add(4);
  reg.gauge("test.diff.g")->Set(11);
  const CounterRegistry::Snapshot now = reg.SnapshotCounters();
  const CounterRegistry::Snapshot diff = CounterRegistry::Diff(now, base);
  EXPECT_EQ(diff.at("test.diff.a"), 7);  // new keys diff against 0
  EXPECT_EQ(diff.at("test.diff.g"), 11);
  // Keys absent from `now` are dropped, not negated.
  for (const auto& [key, value] : diff) {
    EXPECT_TRUE(now.count(key)) << key;
    (void)value;
  }
}

TEST(CounterRegistryTest, ExportersRenderRegisteredMetrics) {
  CounterRegistry& reg = CounterRegistry::Global();
  reg.counter("test.export.count")->Add(2);
  reg.gauge("test.export.gauge")->Set(9);
  obs::SharedHistogram* h = reg.histogram("test.export.hist_ms");
  h->Record(1.0);
  h->Record(3.0);

  const std::string text = reg.ExportText();
  EXPECT_NE(text.find("test.export.count"), std::string::npos);
  EXPECT_NE(text.find("test.export.gauge"), std::string::npos);
  EXPECT_NE(text.find("test.export.hist_ms"), std::string::npos);

  const std::string json = reg.ExportJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export.hist_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ms\""), std::string::npos);
  // Balanced braces: a cheap well-formedness check with no JSON parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(CounterRegistryTest, SharedHistogramQuantilesAndReset) {
  obs::SharedHistogram* h =
      CounterRegistry::Global().histogram("test.hist.quantiles");
  h->Reset();
  for (int i = 1; i <= 100; ++i) h->Record(static_cast<double>(i));
  EXPECT_EQ(h->Count(), 100);
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 100.0);
  EXPECT_GE(h->Quantile(0.99), h->Quantile(0.5));
  EXPECT_DOUBLE_EQ(
      CounterRegistry::Global().HistogramQuantile("test.hist.quantiles", 1.0),
      100.0);
  EXPECT_EQ(CounterRegistry::Global().HistogramQuantile("test.hist.absent",
                                                        0.5),
            0.0);
  h->Reset();
  EXPECT_EQ(h->Count(), 0);
}

// ------------------------------------------------------- cost accounting

TEST(PhaseCostTest, ScopesNestAndAttributeToCurrentPhase) {
  const obs::PhaseCost before = obs::PhaseTotals();
  EXPECT_EQ(obs::CurrentPhase(), obs::Phase::kOther);
  {
    obs::PhaseScope fwd(obs::Phase::kForward);
    EXPECT_EQ(obs::CurrentPhase(), obs::Phase::kForward);
    obs::AddFlops(100);
    {
      obs::PhaseScope serve(obs::Phase::kServe);
      EXPECT_EQ(obs::CurrentPhase(), obs::Phase::kServe);
      obs::AddFlops(10);
      obs::AddBytes(7);
    }
    EXPECT_EQ(obs::CurrentPhase(), obs::Phase::kForward);
    obs::AddFlops(1);
  }
  EXPECT_EQ(obs::CurrentPhase(), obs::Phase::kOther);
  const obs::PhaseCost after = obs::PhaseTotals();
  const auto fwd_i = static_cast<size_t>(obs::Phase::kForward);
  const auto srv_i = static_cast<size_t>(obs::Phase::kServe);
  EXPECT_EQ(after.flops[fwd_i] - before.flops[fwd_i], 101);
  EXPECT_EQ(after.flops[srv_i] - before.flops[srv_i], 10);
  EXPECT_EQ(after.bytes[srv_i] - before.bytes[srv_i], 7);
  EXPECT_GE(after.TotalFlops() - before.TotalFlops(), 111);
}

TEST(PhaseCostTest, EstimatePhaseFootprintRows) {
  obs::PhaseCost cost;
  cost.flops[static_cast<size_t>(obs::Phase::kForward)] = 4'000'000'000;
  cost.flops[static_cast<size_t>(obs::Phase::kBackward)] = 8'000'000'000;
  cost.flops[static_cast<size_t>(obs::Phase::kServe)] = 1'000'000'000;
  const HardwareProfile hw = StandardHardware()[0];
  const Region region = StandardRegions()[0];
  auto rows = EstimatePhaseFootprint(cost, hw, region);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 3u);  // zero-FLOP phases omitted
  // Sorted by descending energy: backward > forward > serve.
  EXPECT_EQ((*rows)[0].phase, "backward");
  EXPECT_EQ((*rows)[1].phase, "forward");
  EXPECT_EQ((*rows)[2].phase, "serve");
  for (const PhaseEnergyRow& row : *rows) {
    EXPECT_GT(row.runtime_seconds, 0.0);
    EXPECT_GT(row.energy_joules, 0.0);
    EXPECT_GT(row.co2_grams, 0.0);
  }
  // Energy scales linearly with FLOPs under the effective-FLOPs model.
  EXPECT_DOUBLE_EQ((*rows)[0].energy_joules, 2.0 * (*rows)[1].energy_joules);

  HardwareProfile bad = hw;
  bad.utilization = 0.0;
  EXPECT_FALSE(EstimatePhaseFootprint(cost, bad, region).ok());
}

// ---------------------------------------- critical-path decomposition

/// Builds a path record from boundary times in simulated ms, quantized
/// with the same SimNs the production emitters use.
obs::RequestPathRecord PathRecord(int64_t rid, double send_ms,
                                  double admit_ms, double quota_ms,
                                  double dispatch_ms, double finish_ms,
                                  double deliver_ms, bool ok = true,
                                  const std::string& tenant = "default",
                                  int replica = 0) {
  obs::RequestPathRecord r;
  r.rid = rid;
  r.tenant = tenant;
  r.replica = replica;
  r.slot = 0;
  r.send_ns = obs::SimNs(send_ms);
  r.admit_ns = obs::SimNs(admit_ms);
  r.quota_open_ns = obs::SimNs(quota_ms);
  r.dispatch_ns = obs::SimNs(dispatch_ms);
  r.finish_ns = obs::SimNs(finish_ms);
  r.deliver_ns = obs::SimNs(deliver_ms);
  r.deadline_ok = ok;
  return r;
}

TEST(AttributionTest, DecomposePathTelescopesBitwise) {
  // Awkward fractions that do not round-trip in binary floating point:
  // the integer telescoping must still sum exactly, with admission a
  // zero-width schema slot.
  const obs::RequestPathRecord rec =
      PathRecord(7, 0.1, 0.30000000000000004, 1.7, 2.9, 7.77, 8.03);
  const obs::PathComponents c = obs::DecomposePath(rec);
  EXPECT_EQ(c[obs::PathComponent::kRouteHop], rec.admit_ns - rec.send_ns);
  EXPECT_EQ(c[obs::PathComponent::kAdmission], 0);
  EXPECT_EQ(c[obs::PathComponent::kQuotaDelay],
            rec.quota_open_ns - rec.admit_ns);
  EXPECT_EQ(c[obs::PathComponent::kSlotWait],
            rec.dispatch_ns - rec.quota_open_ns);
  EXPECT_EQ(c[obs::PathComponent::kExecute], rec.finish_ns - rec.dispatch_ns);
  EXPECT_EQ(c[obs::PathComponent::kReturnHop],
            rec.deliver_ns - rec.finish_ns);
  EXPECT_EQ(c.total_ns(), rec.deliver_ns - rec.send_ns);
  // Component names are stable: they key dashboards and alert payloads.
  EXPECT_STREQ(obs::PathComponentName(obs::PathComponent::kRouteHop),
               "route_hop");
  EXPECT_STREQ(obs::PathComponentName(obs::PathComponent::kExecute),
               "execute");
  // The span-id scheme never collides across requests or stages.
  EXPECT_EQ(obs::RequestSpanId(7), 7 * obs::kSpanStride);
  EXPECT_EQ(obs::ComponentSpanId(7, obs::PathComponent::kRouteHop),
            7 * obs::kSpanStride + 1);
  EXPECT_EQ(obs::QueueSpanId(7), 7 * obs::kSpanStride + 7);
  EXPECT_LT(obs::QueueSpanId(7), obs::RequestSpanId(8));
}

TEST(AttributionTest, ComponentsFromTraceRebuildsPerRidSums) {
  obs::TraceBuffer buf;
  const auto push = [&](const char* name, int64_t rid, int64_t ts,
                        int64_t dur) {
    obs::TraceEvent ev;
    ev.name = name;
    ev.cat = "test";
    ev.ts_ns = ts;
    ev.dur_ns = dur;
    ev.rid = rid;
    ev.pid = obs::kSimTrack;
    buf.events.push_back(ev);
  };
  push("fleet.route", 3, 0, 100);
  push("serve.quota_wait", 3, 100, 40);
  push("serve.slot_wait", 3, 140, 60);
  push("serve.execute", 3, 200, 500);
  push("fleet.return", 3, 700, 25);
  push("serve.execute", 4, 0, 80);
  push("serve.queue", 3, 100, 100);  // umbrella span: not a component
  push("fleet.request", 3, 0, 725);  // root span: not a component
  const std::map<int64_t, obs::PathComponents> by_rid =
      obs::ComponentsFromTrace(buf);
  ASSERT_EQ(by_rid.size(), 2u);
  const obs::PathComponents& c = by_rid.at(3);
  EXPECT_EQ(c[obs::PathComponent::kRouteHop], 100);
  EXPECT_EQ(c[obs::PathComponent::kQuotaDelay], 40);
  EXPECT_EQ(c[obs::PathComponent::kSlotWait], 60);
  EXPECT_EQ(c[obs::PathComponent::kExecute], 500);
  EXPECT_EQ(c[obs::PathComponent::kReturnHop], 25);
  EXPECT_EQ(c.total_ns(), 725);
  EXPECT_EQ(by_rid.at(4)[obs::PathComponent::kExecute], 80);
}

TEST(AttributionTest, AggregatorWindowsSumsAndExemplars) {
  obs::AttributionConfig config;
  config.window_ms = 10.0;
  config.exemplars_per_window = 2;
  obs::AttributionAggregator agg(config);
  // Window 0 (by delivery time): totals 3 ms, 5 ms, 4 ms.
  agg.Record(PathRecord(0, 0.0, 1.0, 1.0, 2.0, 3.0, 3.0, true, "a", 0));
  agg.Record(PathRecord(1, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, false, "b", 1));
  agg.Record(PathRecord(2, 2.0, 3.0, 3.0, 4.0, 5.0, 6.0, true, "a", 0));
  // Window 2; the gap window 1 must render as an explicit empty window.
  agg.Record(PathRecord(3, 24.0, 25.0, 25.0, 26.0, 27.0, 27.0, true, "b", 1));

  const obs::AttributionReport& rep = agg.report();
  ASSERT_EQ(rep.fleet.size(), 3u);
  EXPECT_EQ(rep.fleet[0].count, 3);
  EXPECT_EQ(rep.fleet[0].violations, 1);
  EXPECT_EQ(rep.fleet[1].count, 0);
  EXPECT_EQ(rep.fleet[2].count, 1);
  // Sums telescope: 1 ms of route hop per request in window 0.
  EXPECT_EQ(rep.fleet[0].sums[obs::PathComponent::kRouteHop],
            obs::SimNs(3.0));
  // Exemplars keep the k slowest, slowest first: rid 1 (5 ms), rid 2
  // (4 ms); rid 0 (3 ms) is evicted.
  ASSERT_EQ(rep.fleet[0].exemplars.size(), 2u);
  EXPECT_EQ(rep.fleet[0].exemplars[0].rid, 1);
  EXPECT_EQ(rep.fleet[0].exemplars[1].rid, 2);
  EXPECT_EQ(rep.fleet[0].exemplars[0].total_ns, obs::SimNs(5.0));
  // Tenant and replica slices fold the same records.
  ASSERT_EQ(rep.tenants.count("a"), 1u);
  EXPECT_EQ(rep.tenants.at("a")[0].count, 2);
  EXPECT_EQ(rep.tenants.at("b")[0].violations, 1);
  EXPECT_EQ(rep.replicas.at(1)[0].count, 1);

  const std::string json = obs::AttributionReportJson(rep);
  EXPECT_NE(json.find("\"fleet\": ["), std::string::npos);
  EXPECT_NE(json.find("\"tenants\": {"), std::string::npos);
  EXPECT_NE(json.find("\"replicas\": {"), std::string::npos);
  EXPECT_NE(json.find("\"route_hop\""), std::string::npos);
  EXPECT_NE(json.find("\"exemplars\": ["), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(json, obs::AttributionReportJson(rep)) << "render is stable";
}

// --------------------------------------------- SLO burn-rate alerting

TEST(SloTest, BurnAlerterEdgeTriggersWithDominantComponent) {
  obs::BurnRateConfig config;
  config.slo_target = 0.9;  // 10% error budget
  config.window_ms = 10.0;
  config.fast_windows = 1;
  config.slow_windows = 5;
  config.fast_burn_threshold = 5.0;  // fast violation fraction >= 0.5
  config.slow_burn_threshold = 2.0;  // slow violation fraction >= 0.2
  config.min_requests = 5;
  obs::BurnRateAlerter alerter(config);
  // Execute-heavy path: 0.2 ms route, 2.0 ms execute, 0.2 ms return.
  const auto feed = [&](int64_t rid, double t_ms, bool ok) {
    const obs::RequestPathRecord r =
        PathRecord(rid, t_ms - 2.4, t_ms - 2.2, t_ms - 2.2, t_ms - 2.2,
                   t_ms - 0.2, t_ms, ok);
    alerter.Record(r, obs::DecomposePath(r));
  };
  int64_t rid = 0;
  const auto bucket = [&](int b, bool ok) {
    for (int i = 0; i < 4; ++i) feed(rid++, b * 10.0 + 3.0, ok);
  };
  for (int b = 0; b < 5; ++b) bucket(b, true);    // clean baseline
  for (int b = 5; b < 8; ++b) bucket(b, false);   // sustained incident
  for (int b = 8; b < 13; ++b) bucket(b, true);   // recovered
  for (int b = 13; b < 16; ++b) bucket(b, false); // second incident

  const std::vector<obs::BurnAlert> alerts = alerter.Evaluate();
  std::vector<obs::BurnAlert> fleet;
  for (const obs::BurnAlert& a : alerts) {
    if (a.scope == "fleet") fleet.push_back(a);
  }
  ASSERT_EQ(fleet.size(), 2u)
      << "edge-triggered: one page per incident, re-armed between them";
  // First page at the close of bucket 5: fast window fully violating
  // (burn 10), slow window at 4/20 = 0.2 (burn 2.0, exactly at the
  // threshold).
  EXPECT_DOUBLE_EQ(fleet[0].t_ms, 60.0);
  EXPECT_DOUBLE_EQ(fleet[0].fast_burn, 10.0);
  EXPECT_DOUBLE_EQ(fleet[0].slow_burn, 2.0);
  EXPECT_DOUBLE_EQ(fleet[1].t_ms, 140.0);
  for (const obs::BurnAlert& a : fleet) {
    EXPECT_EQ(a.dominant, obs::PathComponent::kExecute);
    EXPECT_NEAR(a.dominant_share, 2.0 / 2.4, 1e-9);
  }
  // The single tenant mirrors the fleet scope, and the export is a
  // deterministic array ordered by (time, scope).
  const std::string json = obs::BurnAlertsJson(alerts);
  EXPECT_NE(json.find("\"scope\": \"fleet\""), std::string::npos);
  EXPECT_NE(json.find("\"scope\": \"tenant:default\""), std::string::npos);
  EXPECT_NE(json.find("\"dominant\": \"execute\""), std::string::npos);
  for (size_t i = 1; i < alerts.size(); ++i) {
    EXPECT_LE(alerts[i - 1].t_ms, alerts[i].t_ms);
  }
}

TEST(SloTest, LatencySloCountsSlowButDeliveredRequests) {
  obs::BurnRateConfig config;
  config.slo_target = 0.9;
  config.slo_latency_ms = 1.0;  // every 2.4 ms path below violates
  config.window_ms = 10.0;
  config.fast_windows = 1;
  config.slow_windows = 2;
  config.fast_burn_threshold = 5.0;
  config.slow_burn_threshold = 2.0;
  config.min_requests = 1;
  obs::BurnRateAlerter alerter(config);
  for (int64_t rid = 0; rid < 8; ++rid) {
    const obs::RequestPathRecord r =
        PathRecord(rid, 1.0, 1.2, 1.2, 1.2, 3.2, 3.4, /*ok=*/true);
    alerter.Record(r, obs::DecomposePath(r));
  }
  const std::vector<obs::BurnAlert> alerts = alerter.Evaluate();
  ASSERT_FALSE(alerts.empty())
      << "inside-deadline requests over the latency SLO must burn budget";
  EXPECT_EQ(alerts[0].dominant, obs::PathComponent::kExecute);
}

TEST(SloTest, CleanSeriesRaisesNoAlerts) {
  obs::BurnRateConfig config;
  config.min_requests = 1;
  obs::BurnRateAlerter alerter(config);
  for (int64_t rid = 0; rid < 200; ++rid) {
    const obs::RequestPathRecord r = PathRecord(
        rid, rid * 1.0, rid * 1.0 + 0.1, rid * 1.0 + 0.1, rid * 1.0 + 0.2,
        rid * 1.0 + 1.2, rid * 1.0 + 1.3, /*ok=*/true);
    alerter.Record(r, obs::DecomposePath(r));
  }
  EXPECT_TRUE(alerter.Evaluate().empty());
  EXPECT_EQ(obs::BurnAlertsJson({}), "[]");
}

#if DLSYS_OBS

// ------------------------------------------------------- span recording

/// Drains pending events so the next drain sees only this test's spans.
void ScopeTraceToTest() {
  obs::SetTracingEnabled(false);
  obs::SetTraceSampling(1);
  (void)obs::DrainTrace();
}

TEST(TraceTest, DisabledRecordsNothing) {
  ScopeTraceToTest();
  {
    DLSYS_TRACE_SPAN("test.disabled", "test");
    DLSYS_TRACE_SPAN_COST("test.disabled_cost", "test", 1, 2);
  }
  EXPECT_TRUE(obs::DrainTrace().events.empty());
}

TEST(TraceTest, SpansNestAndDrainOnce) {
  ScopeTraceToTest();
  obs::SetTracingEnabled(true);
  {
    DLSYS_TRACE_SPAN("test.outer", "test");
    {
      DLSYS_TRACE_SPAN("test.inner", "test");
    }
    {
      DLSYS_TRACE_SPAN("test.inner", "test");
    }
  }
  obs::SetTracingEnabled(false);
  const obs::TraceBuffer buf = obs::DrainTrace();
  int outer = 0, inner = 0;
  for (const obs::TraceEvent& ev : buf.events) {
    if (std::strcmp(ev.name, "test.outer") == 0) {
      ++outer;
      EXPECT_GE(ev.dur_ns, 0);
      EXPECT_EQ(ev.pid, 1);
    }
    if (std::strcmp(ev.name, "test.inner") == 0) ++inner;
  }
  EXPECT_EQ(outer, 1);
  EXPECT_EQ(inner, 2);
  // Drains are cursor-based: a second drain returns nothing new.
  EXPECT_TRUE(obs::DrainTrace().events.empty());

  // Self-time: the outer span's self excludes its two children.
  obs::TraceBuffer again = buf;
  const std::vector<obs::SpanStat> stats = obs::SelfTimeByName(again);
  double outer_total = 0.0, outer_self = 0.0, inner_total = 0.0;
  for (const obs::SpanStat& s : stats) {
    if (s.name == "test.outer") {
      outer_total = s.total_ms;
      outer_self = s.self_ms;
    }
    if (s.name == "test.inner") inner_total = s.total_ms;
  }
  EXPECT_GE(outer_total, inner_total);
  EXPECT_LE(outer_self, outer_total);
  EXPECT_NEAR(outer_self, outer_total - inner_total, 1e-9);
}

TEST(TraceTest, SamplingReducesEvents) {
  ScopeTraceToTest();
  constexpr int kSpans = 64;
  obs::SetTracingEnabled(true);

  obs::SetTraceSampling(1);
  for (int i = 0; i < kSpans; ++i) {
    DLSYS_TRACE_SPAN("test.sample_full", "test");
  }
  const size_t full = obs::DrainTrace().events.size();

  obs::SetTraceSampling(4);
  for (int i = 0; i < kSpans; ++i) {
    DLSYS_TRACE_SPAN("test.sample_quarter", "test");
  }
  const size_t sampled = obs::DrainTrace().events.size();

  obs::SetTracingEnabled(false);
  obs::SetTraceSampling(1);
  EXPECT_EQ(full, static_cast<size_t>(kSpans));
  EXPECT_EQ(sampled, static_cast<size_t>(kSpans / 4));
}

TEST(TraceTest, ExplicitBeginEndPairs) {
  ScopeTraceToTest();
  obs::SetTracingEnabled(true);
  const int64_t start = obs::TraceBegin();
  EXPECT_GE(start, 0);
  obs::TraceEnd("test.explicit", "test", start, /*rid=*/42, /*flops=*/6,
                /*bytes=*/8);
  obs::SetTracingEnabled(false);
  obs::TraceEnd("test.skipped", "test", obs::TraceBegin());  // -1: no-op
  const obs::TraceBuffer buf = obs::DrainTrace();
  ASSERT_EQ(buf.events.size(), 1u);
  EXPECT_STREQ(buf.events[0].name, "test.explicit");
  EXPECT_EQ(buf.events[0].rid, 42);
  EXPECT_EQ(buf.events[0].flops, 6);
  EXPECT_EQ(buf.events[0].bytes, 8);
}

TEST(TraceTest, ChromeJsonIsWellFormed) {
  ScopeTraceToTest();
  obs::SetTracingEnabled(true);
  {
    DLSYS_TRACE_SPAN_COST("test.json_span", "test", 128, 256);
  }
  obs::TraceEmitSimSpanNs("test.json_sim", "test", 1'500'000, 2'000'000,
                          /*rid=*/7, /*span=*/-1, /*parent=*/-1);
  obs::TraceInstantSim("test.json_instant", "test", 3.5, /*rid=*/7);
  obs::SetTracingEnabled(false);

  const obs::TraceBuffer buf = obs::DrainTrace();
  const std::string json = obs::ChromeTraceJson(buf);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"flops\": 128"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\": 256"), std::string::npos);
  EXPECT_NE(json.find("\"rid\": 7"), std::string::npos);
  // Sim-track events land on the simulated-clock pid.
  EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));

  const std::string path = ::testing::TempDir() + "/dlsys_trace_test.json";
  ASSERT_TRUE(obs::WriteChromeTrace(path, buf).ok());
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string readback(json.size(), '\0');
  const size_t got = std::fread(readback.data(), 1, readback.size(), f);
  std::fclose(f);
  EXPECT_EQ(got, json.size());
  EXPECT_EQ(readback, json);
}

// -------------------------------------------- served-request lifecycle

/// Minimal Chrome-trace line scan: events mentioning `"rid": <rid>`,
/// in file order, as (name, ts) pairs pulled out with string searches.
std::vector<std::pair<std::string, double>> EventsForRid(
    const std::string& json, int64_t rid) {
  std::vector<std::pair<std::string, double>> out;
  const std::string rid_token = "\"rid\": " + std::to_string(rid);
  // Line-oriented: the exporter emits one event per line.
  size_t start = 0;
  while (start < json.size()) {
    size_t end = json.find('\n', start);
    if (end == std::string::npos) end = json.size();
    const std::string line = json.substr(start, end - start);
    start = end + 1;
    const size_t rid_at = line.find(rid_token);
    if (rid_at == std::string::npos) continue;
    // `"rid": 7` must be the whole args value, not a prefix of e.g. 70.
    const char next = rid_at + rid_token.size() < line.size()
                          ? line[rid_at + rid_token.size()]
                          : '\0';
    if (next >= '0' && next <= '9') continue;
    const size_t name_at = line.find("\"name\": \"");
    const size_t ts_at = line.find("\"ts\": ");
    if (name_at == std::string::npos || ts_at == std::string::npos) continue;
    const size_t name_from = name_at + 9;
    const size_t name_to = line.find('"', name_from);
    out.emplace_back(line.substr(name_from, name_to - name_from),
                     std::atof(line.c_str() + ts_at + 6));
  }
  return out;
}

TEST(TraceTest, ServedRequestLifecycleReconstructableByRid) {
  ScopeTraceToTest();
  RuntimeConfig::SetThreads(1);

  ModelRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 16;
  config.batch.max_batch = 2;
  config.default_deadline_ms = 1e6;
  config.cost = {1.0, 0.1};
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  Server* server = created->get();

  Sequential net = MakeMlp(16, {24}, 4);
  Rng rng(21);
  net.Init(&rng);
  ASSERT_TRUE(server->Publish("m", net, {16}).ok());

  obs::SetTracingEnabled(true);
  Tensor x({16});
  std::vector<int64_t> ids;
  for (int i = 0; i < 6; ++i) {
    x.FillGaussian(&rng, 1.0f);
    const Server::SubmitResult r =
        server->Submit("m", x, static_cast<double>(i) * 0.4);
    ASSERT_EQ(r.outcome, Server::Outcome::kAdmitted);
    ids.push_back(r.id);
  }
  server->Drain();
  obs::SetTracingEnabled(false);

  const std::string json = obs::ChromeTraceJson(obs::DrainTrace());
  for (int64_t id : ids) {
    const auto events = EventsForRid(json, id);
    // A full lifecycle: admit instant, queue span, execute span, respond
    // instant, all carrying this request's id.
    double admit_ts = -1.0, queue_ts = -1.0, exec_ts = -1.0, respond_ts = -1.0;
    for (const auto& [name, ts] : events) {
      if (name == "serve.admit") admit_ts = ts;
      if (name == "serve.queue") queue_ts = ts;
      if (name == "serve.execute") exec_ts = ts;
      if (name == "serve.respond") respond_ts = ts;
    }
    ASSERT_GE(admit_ts, 0.0) << "rid " << id;
    ASSERT_GE(queue_ts, 0.0) << "rid " << id;
    ASSERT_GE(exec_ts, 0.0) << "rid " << id;
    ASSERT_GE(respond_ts, 0.0) << "rid " << id;
    EXPECT_DOUBLE_EQ(admit_ts, queue_ts);  // queueing starts at admission
    EXPECT_GE(exec_ts, queue_ts);
    EXPECT_GE(respond_ts, exec_ts);
  }
}

TEST(CounterRegistryTest, ServerBumpsServeCounters) {
  CounterRegistry& reg = CounterRegistry::Global();
  const CounterRegistry::Snapshot base = reg.SnapshotCounters();

  RuntimeConfig::SetThreads(1);
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  config.batch.max_batch = 1;
  config.default_deadline_ms = 1e6;
  config.cost = {1.0, 0.0};
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  Sequential net = MakeMlp(16, {24}, 4);
  Rng rng(22);
  net.Init(&rng);
  ASSERT_TRUE((*created)->Publish("m", net, {16}).ok());
  Tensor x({16});
  x.FillGaussian(&rng, 1.0f);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ((*created)->Submit("m", x, static_cast<double>(i)).outcome,
              Server::Outcome::kAdmitted);
  }
  (*created)->Drain();

  const CounterRegistry::Snapshot diff =
      CounterRegistry::Diff(reg.SnapshotCounters(), base);
  EXPECT_EQ(diff.at("serve.offered"), 3);
  EXPECT_EQ(diff.at("serve.admitted"), 3);
  EXPECT_EQ(diff.at("serve.completed"), 3);
  EXPECT_GE(diff.at("serve.batches"), 1);
  EXPECT_GE(reg.histogram("serve.latency_ms")->Count(), 3);
}

// ----------------------------------------------- determinism contract

TEST(TraceTest, TracedAndUntracedEngineOutputsBitwiseEqual) {
  ScopeTraceToTest();
  Rng rng(23);
  Sequential net = MakeMlp(32, {48, 32}, 10);
  net.Init(&rng);
  auto compiled = InferenceEngine::Compile(net, {32}, EngineConfig{8});
  ASSERT_TRUE(compiled.ok());
  InferenceEngine engine = std::move(compiled).value();

  const int64_t batch = 8;
  Tensor x({batch, 32});
  x.FillGaussian(&rng, 1.0f);
  const int64_t out_elems = batch * engine.output_elems_per_example();
  std::vector<float> untraced(static_cast<size_t>(out_elems));
  std::vector<float> traced(static_cast<size_t>(out_elems));
  std::vector<float> reference;  // threads=1 untraced output

  const int saved_threads = RuntimeConfig::Threads();
  for (int threads : {1, 2, 8}) {
    RuntimeConfig::SetThreads(threads);

    obs::SetTracingEnabled(false);
    ASSERT_TRUE(engine.PredictInto(x.data(), batch, untraced.data()).ok());

    obs::SetTracingEnabled(true);
    obs::SetTraceSampling(1);
    ASSERT_TRUE(engine.PredictInto(x.data(), batch, traced.data()).ok());
    obs::SetTracingEnabled(false);

    EXPECT_EQ(std::memcmp(untraced.data(), traced.data(),
                          static_cast<size_t>(out_elems) * sizeof(float)),
              0)
        << "tracing perturbed results at DLSYS_THREADS=" << threads;
    if (reference.empty()) {
      reference = untraced;
    } else {
      EXPECT_EQ(std::memcmp(reference.data(), traced.data(),
                            static_cast<size_t>(out_elems) * sizeof(float)),
                0)
          << "thread count changed traced results at DLSYS_THREADS="
          << threads;
    }
  }
  RuntimeConfig::SetThreads(saved_threads);
  (void)obs::DrainTrace();
}

TEST(TraceTest, EngineStepsCarryCostTags) {
  ScopeTraceToTest();
  Rng rng(24);
  Sequential net = MakeMlp(32, {48}, 10);
  net.Init(&rng);
  auto compiled = InferenceEngine::Compile(net, {32}, EngineConfig{4});
  ASSERT_TRUE(compiled.ok());
  InferenceEngine engine = std::move(compiled).value();
  Tensor x({4, 32});
  x.FillGaussian(&rng, 1.0f);
  std::vector<float> out(
      static_cast<size_t>(4 * engine.output_elems_per_example()));

  const obs::PhaseCost cost_before = obs::PhaseTotals();
  obs::SetTracingEnabled(true);
  obs::SetTraceSampling(1);
  ASSERT_TRUE(engine.PredictInto(x.data(), 4, out.data()).ok());
  obs::SetTracingEnabled(false);
  const obs::PhaseCost cost_after = obs::PhaseTotals();

  const obs::TraceBuffer buf = obs::DrainTrace();
  bool saw_predict = false, saw_dense = false;
  for (const obs::TraceEvent& ev : buf.events) {
    if (std::strcmp(ev.name, "engine.predict") == 0) saw_predict = true;
    if (std::strcmp(ev.name, "engine.dense") == 0) {
      saw_dense = true;
      // dense flops = 2 * in * out per example, times the batch.
      EXPECT_GT(ev.flops, 0);
      EXPECT_GT(ev.bytes, 0);
    }
  }
  EXPECT_TRUE(saw_predict);
  EXPECT_TRUE(saw_dense);

  // The engine runs under PhaseScope(kServe), so the GEMM FLOPs landed
  // in the serve phase: 2*32*48 + 2*48*10 per example, batch 4.
  const auto serve_i = static_cast<size_t>(obs::Phase::kServe);
  EXPECT_GE(cost_after.flops[serve_i] - cost_before.flops[serve_i],
            4 * (2 * 32 * 48 + 2 * 48 * 10));
}

// ----------------------------------------------- ring overflow drops

TEST(TraceTest, RingOverflowBumpsDroppedSpansCounter) {
  obs::SetTracingEnabled(false);
  obs::ResetTrace();  // quiescent: rewind so capacity is known-free
  CounterRegistry& reg = CounterRegistry::Global();
  const CounterRegistry::Snapshot base = reg.SnapshotCounters();

  obs::SetTracingEnabled(true);
  obs::SetTraceSampling(1);
  constexpr int kSpans = 40'000;  // far past the per-thread ring capacity
  for (int i = 0; i < kSpans; ++i) {
    DLSYS_TRACE_SPAN("test.overflow", "test");
  }
  obs::SetTracingEnabled(false);

  const obs::TraceBuffer buf = obs::DrainTrace();
  EXPECT_GT(buf.dropped, 0) << "the ring must drop, never overwrite";
  EXPECT_LT(buf.events.size(), static_cast<size_t>(kSpans));
  // Every drop lands in the exported registry counter, so fleet ops can
  // alert on trace loss instead of silently reading partial traces.
  const CounterRegistry::Snapshot diff =
      CounterRegistry::Diff(reg.SnapshotCounters(), base);
  ASSERT_EQ(diff.count("obs.trace.dropped_spans"), 1u);
  EXPECT_EQ(diff.at("obs.trace.dropped_spans"), buf.dropped);
  EXPECT_NE(reg.ExportJson().find("obs.trace.dropped_spans"),
            std::string::npos);
  obs::ResetTrace();  // leave a fresh ring for later tests
}

// ------------------------------- Chrome export well-formedness contract

/// Structural JSON scan: strings (with escapes) and balanced {} / []
/// nesting, no raw control characters inside strings.
bool JsonStructureValid(const std::string& s) {
  std::vector<char> stack;
  bool in_str = false, esc = false;
  for (const char c : s) {
    if (in_str) {
      if (esc) {
        esc = false;
      } else if (c == '\\') {
        esc = true;
      } else if (c == '"') {
        in_str = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_str = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return stack.empty() && !in_str;
}

/// Numeric field scrape from one exported event line; false if absent.
bool FieldD(const std::string& line, const std::string& key, double* out) {
  const std::string token = "\"" + key + "\": ";
  const size_t at = line.find(token);
  if (at == std::string::npos) return false;
  *out = std::atof(line.c_str() + at + token.size());
  return true;
}

/// The export contract on a drained buffer: structurally valid JSON,
/// every duration event non-negative (balanced begin/end), timestamps
/// monotone within each (pid, tid) track, and the file write a byte-
/// exact round trip.
void ExpectChromeExportWellFormed(const obs::TraceBuffer& buf,
                                  const char* what) {
  const std::string json = obs::ChromeTraceJson(buf);
  EXPECT_TRUE(JsonStructureValid(json)) << what;
  std::map<std::pair<double, double>, double> last_ts;
  size_t events = 0, durations = 0;
  size_t start = 0;
  while (start < json.size()) {
    size_t end = json.find('\n', start);
    if (end == std::string::npos) end = json.size();
    const std::string line = json.substr(start, end - start);
    start = end + 1;
    double ts = 0.0;
    if (!FieldD(line, "ts", &ts)) continue;  // header/footer lines
    ++events;
    double pid = 0.0, tid = 0.0, dur = 0.0;
    EXPECT_TRUE(FieldD(line, "pid", &pid)) << what << ": " << line;
    EXPECT_TRUE(FieldD(line, "tid", &tid)) << what << ": " << line;
    if (line.find("\"ph\": \"X\"") != std::string::npos) {
      ++durations;
      ASSERT_TRUE(FieldD(line, "dur", &dur)) << what << ": " << line;
      EXPECT_GE(dur, 0.0) << what << ": " << line;
    }
    const auto track = std::make_pair(pid, tid);
    const auto it = last_ts.find(track);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << what << ": track (" << pid << ", " << tid
                                << ") timestamps must be monotone";
    }
    last_ts[track] = ts;
  }
  EXPECT_EQ(events, buf.events.size()) << what;
  EXPECT_GT(durations, 0u) << what;

  const std::string path =
      ::testing::TempDir() + "/dlsys_trace_wellformed.json";
  ASSERT_TRUE(obs::WriteChromeTrace(path, buf).ok()) << what;
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << what;
  std::string readback(json.size(), '\0');
  const size_t got = std::fread(readback.data(), 1, readback.size(), f);
  EXPECT_EQ(std::fgetc(f), EOF) << what << ": file longer than the render";
  std::fclose(f);
  ASSERT_EQ(got, json.size()) << what;
  EXPECT_EQ(readback, json) << what << ": write must round-trip byte-exact";
}

TEST(TraceTest, ChromeExportWellFormedAcrossTrainServeAndFleet) {
  obs::SetTracingEnabled(false);
  obs::ResetTrace();
  const int saved_threads = RuntimeConfig::Threads();
  RuntimeConfig::SetThreads(2);
  obs::SetTraceSampling(1);
  obs::SetTracingEnabled(true);

  {  // train: wall-track spans from the engine and parallel runtime
    Rng rng(31);
    Dataset data = MakeGaussianBlobs(128, 8, 3, 3.0, &rng);
    Sequential net = MakeMlp(8, {16}, 3);
    net.Init(&rng);
    Sgd opt(0.05, 0.9);
    TrainConfig tc;
    tc.epochs = 2;
    (void)Train(&net, &opt, data, tc);
  }
  {  // serve: sim-track lifecycle spans keyed by rid
    ModelRegistry registry;
    ServerConfig config;
    config.workers = 1;
    config.batch.max_batch = 4;
    config.default_deadline_ms = 1e6;
    auto created = Server::Create(&registry, config);
    ASSERT_TRUE(created.ok());
    Sequential net = MakeMlp(16, {24}, 4);
    Rng rng(32);
    net.Init(&rng);
    ASSERT_TRUE((*created)->Publish("m", net, {16}).ok());
    Tensor x({16});
    for (int i = 0; i < 12; ++i) {
      x.FillGaussian(&rng, 1.0f);
      ASSERT_EQ((*created)->Submit("m", x, i * 0.3).outcome,
                Server::Outcome::kAdmitted);
    }
    (*created)->Drain();
  }
  {  // fleet: causally-linked request trees over both hops
    FleetConfig config;
    config.replica_slots = 2;
    config.initial_replicas = 2;
    config.server.workers = 1;
    config.server.batch.max_batch = 4;
    config.server.default_deadline_ms = 50.0;
    config.autoscale.policy = ScalePolicy::kFixed;
    auto fleet = Fleet::Create(config);
    ASSERT_TRUE(fleet.ok());
    Sequential net = MakeMlp(16, {24}, 4);
    Rng rng(33);
    net.Init(&rng);
    ASSERT_TRUE(fleet.value()->Deploy("m", std::move(net), {16}).ok());
    TraceLoadConfig load;
    load.seed = 5;
    load.duration_ms = 1500.0;
    load.base_rps = 300.0;
    load.deadline_ms = 50.0;
    load.model = "m";
    ChaosScenario steady;
    steady.name = "steady";
    ASSERT_TRUE(fleet.value()->Run(steady, load).ok());
  }

  obs::SetTracingEnabled(false);
  RuntimeConfig::SetThreads(saved_threads);
  const obs::TraceBuffer buf = obs::DrainTrace();
  ASSERT_EQ(buf.dropped, 0) << "well-formedness run must not overflow";
  ExpectChromeExportWellFormed(buf, "train+serve+fleet");
  // The sim slice alone must satisfy the same contract (it is what the
  // fleet determinism tests byte-compare).
  ExpectChromeExportWellFormed(obs::SimTrackOnly(buf), "sim slice");
  obs::ResetTrace();
}

#endif  // DLSYS_OBS

}  // namespace
}  // namespace dlsys
