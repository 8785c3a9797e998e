// E1 — Non-blocking behaviour (paper §2, §5).
//
// Claim: a DvP transaction always reaches a commit/abort decision within a
// bounded number of locally-measured steps (here: bounded virtual time ≈
// timeout + local work), no matter when partitions strike. A 2PC participant
// caught in the uncertainty window can be blocked for the entire partition;
// transactions at the horizon may still be undecided.
//
// Sweep: partition injection period (how often a random 2-way split of 300ms
// hits the 4-site network), identical workload on DvP and 2PC/write-all.
#include <cassert>

#include "baseline/twopc.h"
#include "bench/bench_common.h"

namespace dvp::bench {
namespace {

constexpr SimTime kRun = 60'000'000;       // 60 s of virtual time
constexpr SimTime kDrain = 5'000'000;      // decisions may finish here
constexpr SimTime kSplitLen = 300'000;     // each partition lasts 300 ms
constexpr SimTime kTimeout = 300'000;      // DvP redistribution timeout

struct Row {
  std::string system;
  SimTime period;
  workload::WorkloadResults results;
  double max_blocked_ms = 0;
  uint64_t undecided = 0;
};

/// The E1 load and its random splits, driven through `world` — the same
/// harness for both systems.
Row Drive(world::SimWorld* world, const std::vector<ItemId>& items,
          std::string system, SimTime period_us) {
  workload::WorkloadOptions w;
  w.arrivals_per_sec = 150;
  // Balanced mix: the totals stay near steady state, so aborts measure the
  // protocol (conflicts, partitions), not resource exhaustion. Site skew
  // concentrates demand so redistribution actually happens.
  w.p_decrement = 0.5;
  w.p_increment = 0.5;
  w.p_read = 0;  // full reads are E5's subject
  w.site_zipf_theta = 0.8;
  w.seed = 5 + uint64_t(period_us);
  workload::WorkloadDriver driver(world, items, w);

  PartitionInjector injector(world, period_us, kSplitLen, 77);
  injector.Start(kRun);

  Row row;
  row.system = std::move(system);
  row.period = period_us;
  row.results = driver.Run(kRun, kDrain);
  // Every split must have healed inside the injection window: the drain
  // phase measures decision tails, not a leftover partition.
  assert(injector.healed_at_end());
  row.undecided = row.results.submitted - row.results.decided();
  return row;
}

Row RunDvp(SimTime period_us) {
  std::vector<ItemId> items;
  core::Catalog catalog = MakeCountCatalog(4, 400, &items);
  system::ClusterOptions opts;
  opts.num_sites = 4;
  opts.seed = 99;
  opts.site.txn.timeout_us = kTimeout;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();
  return Drive(&cluster, items, "DvP", period_us);
}

Row Run2pc(SimTime period_us) {
  std::vector<ItemId> items;
  core::Catalog catalog = MakeCountCatalog(4, 400, &items);
  baseline::TwoPcOptions opts;
  opts.num_sites = 4;
  opts.seed = 99;
  opts.policy = baseline::ReplicaPolicy::kWriteAll;
  opts.coordinator_timeout_us = kTimeout;
  baseline::TwoPcCluster cluster(&catalog, opts);
  cluster.Bootstrap();
  Row row = Drive(&cluster, items, "2PC", period_us);
  row.max_blocked_ms = cluster.blocked_time().max() / 1000.0;
  return row;
}

void Main() {
  PrintHeader("E1",
              "non-blocking: decision latency is bounded for DvP; 2PC "
              "participants block across partitions");
  workload::TablePrinter table(
      {"system", "split every (s)", "commit %", "decided %",
       "p99 decision (ms)", "max decision (ms)", "undecided@end",
       "max blocked (ms)"});
  for (SimTime period : {20'000'000, 5'000'000, 2'000'000, 1'000'000}) {
    for (bool dvp : {true, false}) {
      Row row = dvp ? RunDvp(period) : Run2pc(period);
      const auto& r = row.results;
      table.AddRow(
          row.system, double(period) / 1e6, Pct(r.commit_rate()),
          Pct(double(r.decided()) / double(std::max<uint64_t>(1, r.submitted))),
          r.decision_latency_us.P99() / 1000.0,
          r.decision_latency_us.max() / 1000.0, row.undecided,
          row.max_blocked_ms);
    }
  }
  table.Print();
  std::cout << "\nDvP bound: timeout (" << kTimeout / 1000
            << " ms) + local work. Any 2PC row with max-decision or "
               "max-blocked well above that is the blocking behaviour the "
               "paper predicts.\n";
}

}  // namespace
}  // namespace dvp::bench

int main() { dvp::bench::Main(); }
