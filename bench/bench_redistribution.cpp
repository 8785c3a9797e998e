// E8 — Redistribution traffic and the initial split policy (paper §9:
// "performance studies to find the best ways to distribute the data ... and
// to reduce the message traffic are needed").
//
// Sweep: demand skew (decrements Zipf-concentrated at low site ids,
// increments uniform) × initial allocation policy:
//   even            — N/n at every site,
//   all-at-one      — everything at site 0 (the traditional single-copy),
//   demand-weighted — shares proportional to expected demand.
// Report commit rate, timeout aborts, request messages and Vm per committed
// transaction.
#include <cmath>

#include "bench/bench_common.h"

namespace dvp::bench {
namespace {

constexpr SimTime kRun = 40'000'000;
constexpr core::Value kTotal = 6000;
constexpr uint32_t kSites = 4;

enum class SplitPolicy { kEven, kAllAtOne, kDemandWeighted };

std::vector<core::Value> MakeSplit(SplitPolicy policy, double theta) {
  switch (policy) {
    case SplitPolicy::kEven:
      return system::SplitEven(kTotal, kSites);
    case SplitPolicy::kAllAtOne: {
      std::vector<core::Value> v(kSites, 0);
      v[0] = kTotal;
      return v;
    }
    case SplitPolicy::kDemandWeighted: {
      // Zipf weights 1/(r+1)^theta, matching the workload's site skew.
      std::vector<double> w(kSites);
      double sum = 0;
      for (uint32_t s = 0; s < kSites; ++s) {
        w[s] = 1.0 / std::pow(double(s + 1), theta);
        sum += w[s];
      }
      std::vector<core::Value> v(kSites);
      core::Value used = 0;
      for (uint32_t s = 0; s < kSites; ++s) {
        v[s] = core::Value(double(kTotal) * w[s] / sum);
        used += v[s];
      }
      v[0] += kTotal - used;
      return v;
    }
  }
  return {};
}

std::string_view PolicyName(SplitPolicy p) {
  switch (p) {
    case SplitPolicy::kEven:
      return "even";
    case SplitPolicy::kAllAtOne:
      return "all-at-site0";
    case SplitPolicy::kDemandWeighted:
      return "demand-weighted";
  }
  return "?";
}

void Main() {
  PrintHeader("E8",
              "redistribution: aborts and message traffic vs demand skew × "
              "initial split policy");
  workload::TablePrinter table({"skew θ", "split", "commit %", "timeout %",
                                "req msgs/commit", "vm/commit",
                                "p99 commit (ms)"});
  for (double theta : {0.0, 0.6, 1.0, 1.4}) {
    for (SplitPolicy policy :
         {SplitPolicy::kEven, SplitPolicy::kAllAtOne,
          SplitPolicy::kDemandWeighted}) {
      std::vector<ItemId> items;
      core::Catalog catalog = MakeCountCatalog(1, kTotal, &items);
      system::ClusterOptions opts;
      opts.num_sites = kSites;
      opts.seed = 81 + uint64_t(theta * 10);
      system::Cluster cluster(&catalog, opts);
      std::map<ItemId, std::vector<core::Value>> alloc;
      alloc[items[0]] = MakeSplit(policy, theta);
      Status booted = cluster.Bootstrap(alloc);
      assert(booted.ok());
      (void)booted;

      workload::WorkloadOptions w;
      w.arrivals_per_sec = 120;
      w.p_decrement = 0.5;
      w.p_increment = 0.5;
      w.p_read = 0;
      w.site_zipf_theta = theta;
      w.increment_site_zipf_theta = 0.0;
      w.seed = 810 + uint64_t(theta * 10) + uint64_t(policy);
      workload::WorkloadDriver driver(&cluster, items, w);
      auto results = driver.Run(kRun);

      CounterSet counters = cluster.AggregateCounters();
      double commits = double(std::max<uint64_t>(1, results.committed()));
      double timeout_pct = 0;
      if (auto it = results.outcomes.find(txn::TxnOutcome::kAbortTimeout);
          it != results.outcomes.end()) {
        timeout_pct = 100.0 * double(it->second) /
                      double(std::max<uint64_t>(1, results.submitted));
      }
      table.AddRow(theta, PolicyName(policy), Pct(results.commit_rate()),
                   timeout_pct, double(counters.Get("req.sent")) / commits,
                   double(counters.Get("vm.created")) / commits,
                   results.commit_latency_us.P99() / 1000.0);
    }
  }
  table.Print();
  std::cout << "\nMatching the split to the demand (demand-weighted) beats "
               "both the even split and the single-copy allocation as skew "
               "grows: fewer requests, fewer Vm, fewer timeout aborts — the "
               "data-placement study §9 calls for.\n";

  // ---- Request fan-out policy (the message-traffic knob) -------------------
  std::cout << "\nRequest fan-out policy at skew θ=1.4, even split:\n";
  workload::TablePrinter fan({"fanout", "divide?", "commit %",
                              "req msgs/commit", "vm/commit",
                              "value moved/commit"});
  for (auto [fanout, divide] :
       std::vector<std::pair<uint32_t, bool>>{
           {0, false}, {0, true}, {2, false}, {1, false}}) {
    std::vector<ItemId> items;
    core::Catalog catalog = MakeCountCatalog(1, kTotal, &items);
    system::ClusterOptions opts;
    opts.num_sites = kSites;
    opts.seed = 83;
    opts.site.txn.request_fanout = fanout;
    opts.site.txn.divide_shortfall = divide;
    opts.site.txn.targeting = txn::TargetPolicy::kRandom;
    system::Cluster cluster(&catalog, opts);
    std::map<ItemId, std::vector<core::Value>> alloc;
    alloc[items[0]] = MakeSplit(SplitPolicy::kEven, 1.4);
    (void)cluster.Bootstrap(alloc);

    workload::WorkloadOptions w;
    w.arrivals_per_sec = 120;
    w.p_decrement = 0.5;
    w.p_increment = 0.5;
    w.p_read = 0;
    w.site_zipf_theta = 1.4;
    w.increment_site_zipf_theta = 0.0;
    w.seed = 831;
    workload::WorkloadDriver driver(&cluster, items, w);
    auto results = driver.Run(kRun);

    CounterSet counters = cluster.AggregateCounters();
    double commits = double(std::max<uint64_t>(1, results.committed()));
    // Value that physically moved between sites: an n-way ask for the full
    // shortfall ships up to n× the need (over-shipping).
    double vm_value = 0;
    for (const auto* storage : cluster.Storages()) {
      (void)storage->Scan(0, [&vm_value](Lsn, const wal::LogRecord& rec) {
        if (const auto* c = std::get_if<wal::VmCreateRec>(&rec)) {
          vm_value += double(c->amount);
        }
      });
    }
    vm_value /= commits;
    fan.AddRow(fanout == 0 ? std::string("all") : std::to_string(fanout),
               divide ? "yes" : "no", Pct(results.commit_rate()),
               double(counters.Get("req.msgs")) / commits,
               double(counters.Get("vm.created")) / commits, vm_value);
  }
  fan.Print();
  std::cout << "Asking everyone for the full shortfall maximises commit rate "
               "but over-ships value; dividing the ask or narrowing the "
               "fan-out trades commit probability for less traffic (§8's "
               "optimisation space).\n";
}

}  // namespace
}  // namespace dvp::bench

int main() { dvp::bench::Main(); }
