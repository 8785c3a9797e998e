// Self-test of the benchmark's own derivations: the histogram percentiles
// against exact nearest-rank percentiles, the slo_goodput_tps rule, and the
// wan_partition workload's determinism (two same-seed runs, identical
// virtual-time results). Exits non-zero on the first failure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "sim_workload.h"
#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool Near(double got, double want, double rel) {
  return std::fabs(got - want) <= rel * std::fabs(want);
}

void Percentiles() {
  Check(LogHistogram::RankFor(50, 10) == 5 && LogHistogram::RankFor(90, 10) == 9 &&
            LogHistogram::RankFor(99, 10) == 10 &&
            LogHistogram::RankFor(0.01, 10) == 1,
        "nearest rank: ceil(p/100 * N), at least 1");

  LogHistogram lin;
  for (int v = 1; v <= 1000; ++v) lin.Add(v);
  Check(lin.Percentile(50) == 500 && lin.Percentile(90) == 900 &&
            lin.Percentile(99) == 990 && lin.Percentile(100) == 1000,
        "values below 2048 ns are exact: 1..1000 gives p50 500, p99 990");
  Check(LogHistogram().Percentile(50) == 0, "an empty histogram reads 0");

  dvp::Rng rng(7);
  std::vector<double> samples;
  LogHistogram a, b, all;
  for (int i = 0; i < 100000; ++i) {
    int64_t v = int64_t(rng.NextExponential(2e6)) + 1;  // ~2 ms, long tail
    samples.push_back(double(v));
    (i % 2 ? a : b).Add(v);
    all.Add(v);
  }
  bool within = true;
  for (double p : {1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    within &= Near(all.Percentile(p), ExactPercentile(samples, p),
                   1.0 / 2048);
  }
  Check(within, "log buckets stay within 2^-11 of the exact percentile");
  a.Merge(b);
  Check(a.count() == all.count() && a.Percentile(50) == all.Percentile(50) &&
            a.Percentile(99) == all.Percentile(99),
        "merged per-site histograms equal one histogram of every sample");

  Check(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2.5,
        "median of repetitions");
}

void Goodput() {
  const int64_t limit = 1000;
  uint64_t within = 0;
  struct Case {
    bool committed;
    int64_t latency;
  };
  for (Case c : {Case{true, 10}, Case{true, 1000}, Case{true, 1001},
                 Case{false, 10}, Case{true, 999}}) {
    within += WithinSlo(c.committed, c.latency, limit);
  }
  Check(within == 3, "within the limit: committed and latency <= limit");
  Check(SloGoodput(within, 0.5) == 6.0 && SloGoodput(30000, 10) == 3000,
        "slo_goodput_tps = committed within limit / admission seconds");
}

void Determinism() {
  const dvp::SimTime admission_us = 10'000'000;
  WanOutcome x = RunWanOnce(11, admission_us);
  WanOutcome y = RunWanOnce(11, admission_us);
  WanOutcome z = RunWanOnce(12, admission_us);
  std::printf("     wan_partition seed 11, 10 s virtual: %llu txns, commit "
              "%.4f, p50 %.0f us, p90 %.0f us, p99 %.0f us\n",
              static_cast<unsigned long long>(x.submitted),
              double(x.committed) / double(x.submitted), x.p50_us, x.p90_us,
              x.p99_us);
  Check(x.audit_ok && y.audit_ok && x.decided == x.submitted,
        "wan_partition passes its correctness gate");
  Check(x.digest == y.digest && x.submitted == y.submitted &&
            x.committed == y.committed && x.p50_us == y.p50_us &&
            x.p90_us == y.p90_us && x.p99_us == y.p99_us &&
            x.slo_goodput_tps == y.slo_goodput_tps,
        "two same-seed wan_partition runs give identical virtual-time metrics");
  Check(x.digest != z.digest, "another seed gives another run");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::Percentiles();
  perfbench::Goodput();
  perfbench::Determinism();
  std::printf("%s\n", perfbench::failures ? "SELFTEST FAILED" : "selftest ok");
  return perfbench::failures ? 1 : 0;
}
