// The observability layer: deterministic JSON sink (strict-JSON nan/inf
// handling, empty-histogram extrema), typed metrics registry and its legacy
// CounterSet view, the causal trace recorder, and the end-to-end contracts —
// a traced chaos run is byte-stable across executions and digest-identical
// to an untraced one, and a planted conservation violation's explanation
// names the offending Vm transfer.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "bench/bench_common.h"
#include "chaos/harness.h"
#include "chaos/oracles.h"
#include "common/histogram.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/kernel.h"
#include "vm/vm_manager.h"

namespace dvp {
namespace {

// ---- JsonWriter -----------------------------------------------------------------

TEST(JsonWriterTest, NonFiniteDoublesSerializeAsNull) {
  // Regression: the old bench JsonMetrics printed %.6f, so a NaN (e.g. a
  // rate with a zero denominator) rendered as "nan" — not JSON at all.
  obs::JsonWriter w;
  w.Set("a.nan", std::nan(""));
  w.Set("b.inf", std::numeric_limits<double>::infinity());
  w.Set("c.neg_inf", -std::numeric_limits<double>::infinity());
  w.Set("d.fine", 1.5);
  std::string out = w.ToString();
  EXPECT_NE(out.find("\"a.nan\": null"), std::string::npos) << out;
  EXPECT_NE(out.find("\"b.inf\": null"), std::string::npos) << out;
  EXPECT_NE(out.find("\"c.neg_inf\": null"), std::string::npos) << out;
  EXPECT_NE(out.find("\"d.fine\": 1.500000"), std::string::npos) << out;
  EXPECT_EQ(out.find(": nan"), std::string::npos)
      << "no bare nan token may survive: " << out;
  EXPECT_EQ(out.find(": inf"), std::string::npos) << out;
  EXPECT_EQ(out.find(": -inf"), std::string::npos) << out;
}

TEST(JsonWriterTest, KeysEmitSortedAndEscaped) {
  obs::JsonWriter w;
  w.Set("zeta", uint64_t{1});
  w.Set("alpha", std::string("line1\nline2\t\"quoted\""));
  w.Set("mid", true);
  std::string out = w.ToString();
  size_t a = out.find("alpha"), m = out.find("mid"), z = out.find("zeta");
  EXPECT_LT(a, m);
  EXPECT_LT(m, z);
  EXPECT_NE(out.find("line1\\nline2\\t\\\"quoted\\\""), std::string::npos)
      << out;
}

TEST(JsonWriterTest, EmptyHistogramEmitsNullExtrema) {
  // min()/max() return 0.0 on an empty histogram (pinned API); the dump must
  // not launder that placeholder into a fake sample.
  Histogram empty, full;
  full.Add(3.0);
  full.Add(5.0);
  obs::JsonWriter w;
  w.SetHistogram("none", empty);
  w.SetHistogram("some", full);
  std::string out = w.ToString();
  EXPECT_NE(out.find("\"none.n\": 0"), std::string::npos) << out;
  EXPECT_NE(out.find("\"none.min\": null"), std::string::npos) << out;
  EXPECT_NE(out.find("\"none.max\": null"), std::string::npos) << out;
  EXPECT_NE(out.find("\"some.min\": 3.000000"), std::string::npos) << out;
  EXPECT_NE(out.find("\"some.max\": 5.000000"), std::string::npos) << out;
}

TEST(HistogramTest, SummaryOfEmptyReportsNoExtrema) {
  Histogram h;
  EXPECT_EQ(h.Summary(), "n=0");
  h.Add(2.0);
  EXPECT_NE(h.Summary().find("max="), std::string::npos);
  EXPECT_NE(h.Summary().find("p999="), std::string::npos);
}

TEST(HistogramTest, P999SitsBetweenP99AndMax) {
  // A 1..1000 ramp: the interpolated quantiles are exactly computable, and
  // p999 must resolve tail structure p99 cannot see.
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(double(i));
  EXPECT_NEAR(h.P99(), 990.01, 1e-9);
  EXPECT_NEAR(h.P999(), 999.001, 1e-9);
  EXPECT_GT(h.P999(), h.P99());
  EXPECT_LE(h.P999(), h.max());
  EXPECT_EQ(h.Percentile(0.999), h.P999());
}

TEST(JsonWriterTest, SetHistogramEmitsP999) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(double(i));
  obs::JsonWriter w;
  w.SetHistogram("lat", h);
  std::string out = w.ToString();
  EXPECT_NE(out.find("\"lat.p99\": "), std::string::npos) << out;
  EXPECT_NE(out.find("\"lat.p999\": "), std::string::npos) << out;
}

// ---- MetricsRegistry ------------------------------------------------------------

TEST(MetricsRegistryTest, HandlesAreStableAndReadable) {
  obs::MetricsRegistry m;
  obs::Counter* c = m.counter("txn.committed");
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(m.Get("txn.committed"), 5u);
  EXPECT_EQ(m.counter("txn.committed"), c) << "register-or-get must be idempotent";
  EXPECT_EQ(m.Get("never.registered"), 0u);

  obs::Gauge* g = m.gauge("dedup.peak");
  g->NoteMax(7);
  g->NoteMax(3);
  EXPECT_EQ(m.GetGauge("dedup.peak"), 7);
}

TEST(MetricsRegistryTest, CounterSetViewSkipsZeros) {
  obs::MetricsRegistry m;
  m.counter("a.used")->Inc(2);
  m.counter("b.registered_only");  // never incremented
  CounterSet view = m.AsCounterSet();
  EXPECT_EQ(view.Get("a.used"), 2u);
  EXPECT_EQ(view.counters().count("b.registered_only"), 0u)
      << "zero-valued handles must stay out of digests and dumps";
}

TEST(MetricsRegistryTest, NopSinkAbsorbsWrites) {
  obs::MetricsRegistry::Nop()->Inc(123);
  obs::MetricsRegistry::NopGauge()->NoteMax(9);
  obs::Counter* c = obs::CounterIn(nullptr, "whatever");
  EXPECT_EQ(c, obs::MetricsRegistry::Nop());
}

TEST(MetricsRegistryTest, DumpJsonRendersEverything) {
  obs::MetricsRegistry m;
  m.counter("c.one")->Inc();
  m.gauge("g.level")->Set(-3);
  m.histogram("h.lat")->Add(10.0);
  obs::JsonWriter w;
  m.DumpJson(&w, "site0.");
  std::string out = w.ToString();
  EXPECT_NE(out.find("\"site0.c.one\": 1"), std::string::npos) << out;
  EXPECT_NE(out.find("\"site0.g.level\": -3"), std::string::npos) << out;
  EXPECT_NE(out.find("\"site0.h.lat.n\": 1"), std::string::npos) << out;
}

// ---- TraceRecorder --------------------------------------------------------------

TEST(TraceRecorderTest, RecordsEventsWithKernelTime) {
  sim::Kernel kernel;
  obs::TraceRecorder rec;
  rec.Attach(&kernel);
  kernel.ScheduleAt(42, [&rec]() {
    rec.Instant(SiteId(1), obs::Track::kVm, "vm.born", 7, "vm", 7, "amount", 3);
  });
  kernel.Run();
  ASSERT_EQ(rec.events().size(), 1u);
  EXPECT_EQ(rec.events()[0].ts, 42);
  EXPECT_EQ(rec.events()[0].site, 1u);
  EXPECT_EQ(rec.FirstTimeOf("vm.born", 7), 42);
  EXPECT_EQ(rec.FirstTimeOf("vm.born", 8), -1);
  EXPECT_EQ(rec.EventsFor(7).size(), 1u);
}

TEST(TraceRecorderTest, CapsAndCountsDrops) {
  obs::TraceRecorder rec(/*max_events=*/2);
  rec.Instant(SiteId(0), obs::Track::kNet, "net.send");
  rec.Instant(SiteId(0), obs::Track::kNet, "net.send");
  rec.Instant(SiteId(0), obs::Track::kNet, "net.send");
  EXPECT_EQ(rec.events().size(), 2u);
  EXPECT_EQ(rec.dropped(), 1u);
}

TEST(TraceRecorderTest, PerfettoJsonHasMetadataAndSpans) {
  obs::TraceRecorder rec;
  rec.Begin(SiteId(0), obs::Track::kTxn, "txn", 99, "ops", 1);
  rec.End(SiteId(0), obs::Track::kTxn, "txn", 99, "outcome", 0);
  std::string json = rec.ToPerfettoJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"99\""), std::string::npos)
      << "async spans must correlate by id";
}

// ---- End-to-end contracts -------------------------------------------------------

chaos::ChaosCase SmallCase() {
  chaos::ChaosCase c;
  c.seed = 11;
  c.workload.sites = 3;
  c.workload.txns = 30;
  c.workload.redist_permille = 300;  // plenty of Vm traffic to trace
  c.workload.loss_permille = 30;
  return c;
}

TEST(TraceGoldenTest, FixedSeedTraceIsByteStableAcrossRuns) {
  chaos::ChaosCase c = SmallCase();
  chaos::RunOptions opts;

  obs::TraceRecorder rec1;
  opts.trace = &rec1;
  chaos::RunResult r1 = chaos::RunCase(c, opts);

  obs::TraceRecorder rec2;
  opts.trace = &rec2;
  chaos::RunResult r2 = chaos::RunCase(c, opts);

  ASSERT_TRUE(r1.ok) << r1.violation;
  EXPECT_GT(rec1.events().size(), 0u) << "a traced run must record events";
  EXPECT_EQ(rec1.dropped(), 0u);
  std::string j1 = rec1.ToPerfettoJson();
  std::string j2 = rec2.ToPerfettoJson();
  EXPECT_EQ(j1, j2) << "same case, same bytes — the golden-file contract";
  EXPECT_EQ(r1.digest, r2.digest);
}

TEST(TraceGoldenTest, TracingDoesNotPerturbTheRun) {
  chaos::ChaosCase c = SmallCase();
  chaos::RunOptions plain;
  chaos::RunResult untraced = chaos::RunCase(c, plain);

  obs::TraceRecorder rec;
  chaos::RunOptions traced_opts;
  traced_opts.trace = &rec;
  chaos::RunResult traced = chaos::RunCase(c, traced_opts);

  EXPECT_EQ(untraced.digest, traced.digest)
      << "recording must never touch the kernel queue, RNG or counters";
  EXPECT_EQ(untraced.events_executed, traced.events_executed);
  EXPECT_EQ(untraced.committed, traced.committed);
}

TEST(ExplainViolationTest, PlantedViolationNamesTheOffendingVm) {
  chaos::ChaosCase c = SmallCase();
  obs::TraceRecorder rec;
  chaos::RunOptions opts;
  opts.trace = &rec;
  opts.planted_violation_at_us = 200'000;
  chaos::RunResult r = chaos::RunCase(c, opts);

  ASSERT_FALSE(r.ok) << "the planted Vm-creation must violate conservation";
  ASSERT_FALSE(r.explanation.empty());
  VmId planted = vm::MakeVmId(SiteId(0), (uint64_t{1} << 40) + 1);
  EXPECT_NE(r.explanation.find("vm " + planted.ToString()), std::string::npos)
      << r.explanation;
  EXPECT_NE(r.explanation.find("no vm.born trace event"), std::string::npos)
      << "the planted record bypassed the Vm layer and the trace proves it: "
      << r.explanation;
}

// ---- PartitionInjector heal clamp ----------------------------------------------

TEST(PartitionInjectorTest, FinalHealIsClampedInsideTheWindow) {
  std::vector<ItemId> items;
  core::Catalog catalog = bench::MakeCountCatalog(1, 100, &items);
  system::ClusterOptions copts;
  copts.num_sites = 3;
  copts.seed = 5;
  system::Cluster cluster(&catalog, copts);
  cluster.BootstrapEven();

  // Split at t=10ms with a nominal 300ms duration but a window ending at
  // t=20ms: the heal must land at 20ms, not 310ms.
  bench::PartitionInjector injector(&cluster, 10'000, 300'000, 42);
  injector.Start(20'000);
  cluster.RunFor(15'000);
  EXPECT_EQ(injector.splits(), 1u);
  EXPECT_TRUE(cluster.network().partition().IsPartitioned());
  cluster.RunFor(10'000);  // now t=25ms, past the window
  EXPECT_TRUE(injector.healed_at_end()) << injector.splits() << " splits, "
                                        << injector.heals() << " heals";
  EXPECT_FALSE(cluster.network().partition().IsPartitioned())
      << "the injector must not leave a partition standing past until_";
}

}  // namespace
}  // namespace dvp
