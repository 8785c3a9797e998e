// Inventory control with a hot SKU, crash + independent recovery (paper §7,
// §8). Six warehouse sites allocate units of a single hot SKU concurrently
// (the "aggregate field" / hot-spot scenario); mid-run one site crashes and
// later recovers with no remote communication; the run ends with a
// conservation audit proving no unit was created or destroyed.
#include <iostream>

#include "system/cluster.h"
#include "workload/generator.h"

using namespace dvp;

int main() {
  core::Catalog catalog;
  ItemId sku = catalog.AddItem("sku:widget", core::CountDomain::Instance(),
                               60'000);
  ItemId sku2 =
      catalog.AddItem("sku:gadget", core::CountDomain::Instance(), 12'000);

  system::ClusterOptions opts;
  opts.num_sites = 6;
  opts.seed = 99;
  opts.site.checkpoint_interval_us = 2'000'000;  // checkpoint every 2s
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();

  workload::WorkloadOptions w;
  w.arrivals_per_sec = 300;   // allocations/restocks across all sites
  w.p_decrement = 0.55;       // ship units
  w.p_increment = 0.45;       // restock / returns
  w.p_read = 0;
  w.amount_min = 1;
  w.amount_max = 8;
  w.item_zipf_theta = 0.9;    // widget is the hot spot
  w.seed = 4242;
  std::vector<ItemId> items{sku, sku2};
  workload::WorkloadDriver driver(&cluster, items, w);

  // Crash site 2 at t=6s; recover it at t=12s and report what recovery did.
  cluster.kernel().ScheduleAt(6'000'000, [&cluster]() {
    std::cout << "[t=6s]  site 2 crashes (volatile state lost; its share of "
                 "the stock is temporarily inaccessible)\n";
    cluster.CrashSite(SiteId(2));
  });
  cluster.kernel().ScheduleAt(12'000'000, [&cluster]() {
    std::cout << "[t=12s] site 2 begins independent recovery\n";
    cluster.site(SiteId(2)).Recover([](const recovery::RecoveryReport& r) {
      std::cout << "[t=12s] recovery done: replayed " << r.records_replayed
                << " log records (" << r.redo_writes
                << " redo writes), remote messages needed = "
                << r.remote_messages_needed << "\n";
    });
  });

  std::cout << "Running 20s of inventory traffic on 6 sites "
               "(crash at 6s, recovery at 12s)...\n";
  auto results = driver.Run(20'000'000, 3'000'000);

  std::cout << "\nsubmitted " << results.submitted << ", committed "
            << results.committed() << " ("
            << 100.0 * results.commit_rate() << "%), refused while down "
            << results.rejected_down << "\n";
  std::cout << "commit latency p50 "
            << results.commit_latency_us.Median() / 1000.0 << " ms, p99 "
            << results.commit_latency_us.P99() / 1000.0 << " ms\n";

  std::cout << "\nfinal widget stock: " << cluster.TotalOf(sku)
            << " units across fragments:";
  for (uint32_t s = 0; s < cluster.num_sites(); ++s) {
    std::cout << " " << cluster.site(SiteId(s)).LocalValue(sku);
  }
  std::cout << "\n";

  Status audit = cluster.AuditAll();
  std::cout << "conservation audit (no unit created or lost, including "
               "across the crash): "
            << audit.ToString() << "\n";
  return audit.ok() ? 0 : 1;
}
