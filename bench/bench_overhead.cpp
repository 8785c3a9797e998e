// E10 — What the scheme costs when nothing fails (paper §8 admits overheads;
// here we quantify the failure-free common case).
//
// Uniform, locally-satisfiable workload, no faults. Sweep site count and
// compare per-committed-transaction costs:
//   DvP           — 1 log force (the commit record), 0 messages
//   PrimaryCopy   — 1 log force at the primary, 1 RPC round trip from
//                   non-primary sites
//   2PC write-all — prepare+decision forces at every replica, 4n messages
// Every system's forces are counted from its sites' logs.
#include "baseline/primary_copy.h"
#include "baseline/twopc.h"
#include "bench/bench_common.h"

namespace dvp::bench {
namespace {

constexpr SimTime kRun = 20'000'000;

/// Log forces across every site's stable storage, measured, for any of the
/// three systems.
uint64_t ForcesOf(world::SimWorld& world, uint32_t n) {
  uint64_t forces = 0;
  for (uint32_t s = 0; s < n; ++s) forces += world.storage(SiteId(s)).forces();
  return forces;
}

workload::WorkloadOptions Mix(uint64_t seed) {
  workload::WorkloadOptions w;
  w.arrivals_per_sec = 100;
  w.p_decrement = 0.5;
  w.p_increment = 0.5;
  w.p_read = 0;
  w.seed = seed;
  return w;
}

void Main(const std::string& json_path) {
  PrintHeader("E10",
              "failure-free overhead per committed txn vs cluster size");
  JsonMetrics metrics;
  workload::TablePrinter table({"sites", "system", "commit %",
                                "log forces/commit", "msgs/commit",
                                "p50 latency (ms)"});
  for (uint32_t n : {1u, 2u, 4u, 8u, 16u}) {
    {  // DvP
      std::vector<ItemId> items;
      core::Catalog catalog = MakeCountCatalog(4, core::Value(4000) * n, &items);
      system::ClusterOptions opts;
      opts.num_sites = n;
      opts.seed = 7;
      system::Cluster cluster(&catalog, opts);
      cluster.BootstrapEven();
      workload::WorkloadDriver driver(&cluster, items, Mix(100 + n));
      auto r = driver.Run(kRun);
      uint64_t forces = ForcesOf(cluster, n);
      CounterSet counters = cluster.AggregateCounters();
      double commits = double(std::max<uint64_t>(1, r.committed()));
      table.AddRow(n, "DvP", Pct(r.commit_rate()), double(forces) / commits,
                   double(counters.Get("net.sent")) / commits,
                   r.commit_latency_us.Median() / 1000.0);
      std::string k = "e10.dvp.n" + std::to_string(n) + ".";
      metrics.Set(k + "committed", r.committed());
      metrics.Set(k + "forces_per_commit", double(forces) / commits);
      metrics.Set(k + "msgs_per_commit",
                  double(counters.Get("net.sent")) / commits);
      metrics.Set(k + "p50_latency_us", r.commit_latency_us.Median());
    }
    if (n >= 2) {  // PrimaryCopy
      std::vector<ItemId> items;
      core::Catalog catalog = MakeCountCatalog(4, core::Value(4000) * n, &items);
      baseline::PrimaryCopyOptions opts;
      opts.num_sites = n;
      opts.seed = 7;
      baseline::PrimaryCopyCluster cluster(&catalog, opts);
      cluster.Bootstrap();
      workload::WorkloadDriver driver(&cluster, items, Mix(100 + n));
      auto r = driver.Run(kRun);
      const net::NetworkStats& ns = cluster.network().stats();
      double commits = double(std::max<uint64_t>(1, r.committed()));
      double forces = double(ForcesOf(cluster, n)) / commits;
      table.AddRow(n, "PrimaryCopy", Pct(r.commit_rate()), forces,
                   double(ns.packets_sent) / commits,
                   r.commit_latency_us.Median() / 1000.0);
      metrics.Set("e10.primary.n" + std::to_string(n) + ".forces_per_commit",
                  forces);
    }
    if (n >= 2) {  // 2PC write-all
      std::vector<ItemId> items;
      core::Catalog catalog = MakeCountCatalog(4, core::Value(4000) * n, &items);
      baseline::TwoPcOptions opts;
      opts.num_sites = n;
      opts.seed = 7;
      opts.policy = baseline::ReplicaPolicy::kWriteAll;
      baseline::TwoPcCluster cluster(&catalog, opts);
      cluster.Bootstrap();
      workload::WorkloadDriver driver(&cluster, items, Mix(100 + n));
      auto r = driver.Run(kRun);
      const net::NetworkStats& ns = cluster.network().stats();
      double commits = double(std::max<uint64_t>(1, r.committed()));
      double forces = double(ForcesOf(cluster, n)) / commits;
      table.AddRow(n, "2PC write-all", Pct(r.commit_rate()), forces,
                   double(ns.packets_sent) / commits,
                   r.commit_latency_us.Median() / 1000.0);
      metrics.Set("e10.2pc.n" + std::to_string(n) + ".forces_per_commit",
                  forces);
    }
  }
  table.Print();
  std::cout << "\nDvP's failure-free cost is flat in n (1 force, 0 "
               "messages): the paper's 'traditional database without "
               "replicated data is a trivial special case' observation. 2PC "
               "pays O(n) forces and messages per commit; primary copy pays "
               "one RPC for remote submitters.\n";
  metrics.WriteTo(json_path);
}

}  // namespace
}  // namespace dvp::bench

int main(int argc, char** argv) {
  dvp::bench::Main(dvp::bench::JsonPathFromArgs(argc, argv));
}
