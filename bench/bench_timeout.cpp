// E9 — Tuning the pessimistic timeout (paper §5 step 3: "a timeout always
// results in the abortion of the transaction"), plus a seed-sensitivity
// ablation.
//
// The timeout is the only knob that trades latency for commit rate: too
// short and healthy gathers abort; too long and doomed gathers (partitioned
// peers, exhausted value) waste their bound. Sweep timeout × mean link
// delay; then repeat one cell over five seeds to show determinism-level
// noise.
#include "bench/bench_common.h"

namespace dvp::bench {
namespace {

constexpr SimTime kRun = 30'000'000;

workload::WorkloadResults RunCell(SimTime timeout_us, SimTime delay_us,
                                  uint64_t seed) {
  std::vector<ItemId> items;
  core::Catalog catalog = MakeCountCatalog(2, 2000, &items);
  system::ClusterOptions opts;
  opts.num_sites = 4;
  opts.seed = seed;
  opts.site.txn.timeout_us = timeout_us;
  opts.link.base_delay_us = delay_us;
  opts.link.jitter_mean_us = double(delay_us) / 2;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();

  workload::WorkloadOptions w;
  w.arrivals_per_sec = 100;
  w.p_decrement = 0.5;
  w.p_increment = 0.5;
  w.p_read = 0;
  w.site_zipf_theta = 1.2;  // heavy redistribution
  w.increment_site_zipf_theta = 0.0;
  w.seed = seed * 13 + 7;
  workload::WorkloadDriver driver(&cluster, items, w);
  return driver.Run(kRun);
}

void Main() {
  PrintHeader("E9", "timeout tuning: commit rate vs decision bound");
  workload::TablePrinter table({"link delay (ms)", "timeout (ms)", "commit %",
                                "timeout abort %", "p99 commit (ms)",
                                "max decision (ms)"});
  for (SimTime delay : {1'000, 5'000, 20'000}) {
    for (SimTime timeout : {25'000, 100'000, 400'000, 1'600'000}) {
      auto r = RunCell(timeout, delay, 42);
      double timeout_pct = 0;
      if (auto it = r.outcomes.find(txn::TxnOutcome::kAbortTimeout);
          it != r.outcomes.end()) {
        timeout_pct = 100.0 * double(it->second) /
                      double(std::max<uint64_t>(1, r.submitted));
      }
      table.AddRow(double(delay) / 1000.0, double(timeout) / 1000.0,
                   Pct(r.commit_rate()), timeout_pct,
                   r.commit_latency_us.P99() / 1000.0,
                   r.decision_latency_us.max() / 1000.0);
    }
  }
  table.Print();

  std::cout << "\nSeed sensitivity (delay 5 ms, timeout 100 ms):\n";
  workload::TablePrinter seeds({"seed", "commit %", "p99 commit (ms)"});
  Histogram commit_rates;
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    auto r = RunCell(100'000, 5'000, seed);
    commit_rates.Add(Pct(r.commit_rate()));
    seeds.AddRow(seed, Pct(r.commit_rate()),
                 r.commit_latency_us.P99() / 1000.0);
  }
  seeds.Print();
  std::cout << "commit% across seeds: mean=" << commit_rates.mean()
            << " stddev=" << commit_rates.StdDev()
            << " (tight: results are workload-determined, not "
               "schedule-lucky)\n";
}

}  // namespace
}  // namespace dvp::bench

int main() { dvp::bench::Main(); }
