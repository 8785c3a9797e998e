// E3 — Virtual messages never lose value (paper §4.2).
//
// Claim: under arbitrary link loss/duplication/delay, the conservation
// invariant Σ fragments + in-flight Vm = initial + committed deltas holds at
// the end of every run, and every Vm is eventually accepted exactly once.
// Cost: retransmissions grow with the loss rate; commit rate degrades only
// because gathers time out, never because value vanishes.
//
// Sweep: per-packet loss probability 0%..90%, duplication 10%, heavy
// redistribution (skewed demand).
//
// Phase 2 exercises the transport's bounded-state claim: a >= 10k-Vm flood
// under loss+duplication, sampling the receiver-side dedup footprint (the
// transport's out-of-order window and the Vm layer's accepted-set) to show
// both stay O(outstanding), not O(lifetime).
#include "bench/bench_common.h"

#include <algorithm>

namespace dvp::bench {
namespace {

constexpr SimTime kRun = 30'000'000;
constexpr SimTime kDrainLong = 120'000'000;  // let retransmissions finish

void SweepLoss(JsonMetrics* metrics) {
  PrintHeader("E3",
              "Vm conservation and delivery under lossy links (dup 10%)");
  workload::TablePrinter table(
      {"loss %", "commit %", "vm created", "vm accepted", "retransmits",
       "retrans/vm", "dup drops", "pure acks", "piggy acks", "live vm @end",
       "conservation"});

  for (double loss : {0.0, 0.1, 0.3, 0.5, 0.7, 0.9}) {
    std::vector<ItemId> items;
    core::Catalog catalog = MakeCountCatalog(2, 2000, &items);
    system::ClusterOptions opts;
    opts.num_sites = 4;
    opts.seed = 1700 + uint64_t(loss * 100);
    opts.link.loss_prob = loss;
    opts.link.duplicate_prob = 0.1;
    system::Cluster cluster(&catalog, opts);
    cluster.BootstrapEven();

    workload::WorkloadOptions w;
    w.arrivals_per_sec = 80;
    w.p_decrement = 0.5;
    w.p_increment = 0.5;
    w.p_read = 0;
    w.site_zipf_theta = 1.5;            // decrements pile onto site 0 ...
    w.increment_site_zipf_theta = 0.0;  // ...while cancellations spread out,
                                        // so value continuously flows as Vm
    w.seed = 3000 + uint64_t(loss * 100);
    workload::WorkloadDriver driver(&cluster, items, w);
    auto results = driver.Run(kRun, kDrainLong);

    uint64_t retrans = 0, dup_drops = 0, pure = 0, piggy = 0;
    for (uint32_t s = 0; s < cluster.num_sites(); ++s) {
      const net::Transport* t = cluster.site(SiteId(s)).transport();
      retrans += t->retransmissions();
      dup_drops += t->dup_drops();
      pure += t->pure_acks();
      piggy += t->piggyback_acks();
    }
    CounterSet counters = cluster.AggregateCounters();
    uint64_t created = counters.Get("vm.created");
    uint64_t accepted = counters.Get("vm.accepted");
    uint64_t live = 0;
    for (ItemId item : items) live += cluster.Audit(item).live_vms;
    Status audit = cluster.AuditAll();

    table.AddRow(Pct(loss), Pct(results.commit_rate()), created, accepted,
                 retrans,
                 created == 0 ? 0.0 : double(retrans) / double(created),
                 dup_drops, pure, piggy, live,
                 audit.ok() ? "OK" : audit.ToString());
    std::string k = "e3.loss" + std::to_string(int(loss * 100)) + ".";
    metrics->Set(k + "committed", results.committed());
    metrics->Set(k + "vm_created", created);
    metrics->Set(k + "vm_accepted", accepted);
    metrics->Set(k + "retransmits", retrans);
    metrics->Set(k + "conservation_ok", uint64_t(audit.ok() ? 1 : 0));
  }
  table.Print();
  std::cout << "\nValue lost is identically zero at every loss rate; only "
               "latency and retransmission cost grow. (Live Vm at the end "
               "are transfers still being retried toward convergence.)\n";
}

void FloodBoundedState(JsonMetrics* metrics) {
  PrintHeader("E3b",
              "Bounded dedup state over a 12k-Vm flood (loss 30%, dup 10%)");

  core::Catalog catalog;
  ItemId item = catalog.AddItem("pool", core::CountDomain::Instance(), 40'000);
  system::ClusterOptions opts;
  opts.num_sites = 4;
  opts.seed = 4242;
  opts.link.loss_prob = 0.3;
  opts.link.duplicate_prob = 0.1;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();

  // A ring of direct transfers: every site continuously ships one unit to its
  // neighbour. 3000 sends per site = 12000 Vm total, far beyond any plausible
  // in-flight window, so an unbounded dedup set would be obvious.
  constexpr int kPerSite = 3000;
  constexpr SimTime kGap = 2'000;  // 2ms between sends per site
  size_t accepted_peak_live = 0, dedup_peak_live = 0;
  for (int i = 0; i < kPerSite; ++i) {
    for (uint32_t s = 0; s < 4; ++s) {
      (void)cluster.site(SiteId(s)).SendValue(SiteId((s + 1) % 4), item, 1);
    }
    cluster.RunFor(kGap);
    if (i % 50 == 0) {
      for (uint32_t s = 0; s < 4; ++s) {
        accepted_peak_live = std::max(
            accepted_peak_live, cluster.site(SiteId(s)).vm()->accepted_entries());
        dedup_peak_live = std::max(
            dedup_peak_live,
            cluster.site(SiteId(s)).transport()->dedup_entries());
      }
    }
  }
  cluster.RunFor(60'000'000);  // drain

  uint64_t retrans = 0, dup_drops = 0;
  size_t accepted_now = 0, accepted_peak = 0, dedup_now = 0, dedup_peak = 0;
  uint64_t lifetime_accepts = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    const net::Transport* t = cluster.site(SiteId(s)).transport();
    retrans += t->retransmissions();
    dup_drops += t->dup_drops();
    dedup_now += t->dedup_entries();
    dedup_peak = std::max(dedup_peak, t->dedup_peak());
    const vm::VmManager* v = cluster.site(SiteId(s)).vm();
    accepted_now += v->accepted_entries();
    accepted_peak = std::max(accepted_peak, v->accepted_entries_peak());
    lifetime_accepts += v->accept_count();
  }
  Status audit = cluster.AuditAll();

  workload::TablePrinter table(
      {"vm created", "vm accepted", "retransmits", "dup drops",
       "accepted-set now", "accepted-set peak", "dedup-window peak",
       "conservation"});
  table.AddRow(uint64_t(4 * kPerSite), lifetime_accepts, retrans, dup_drops,
               accepted_now, std::max(accepted_peak, accepted_peak_live),
               std::max(dedup_peak, dedup_peak_live),
               audit.ok() ? "OK" : audit.ToString());
  table.Print();
  std::cout << "\n12000 Vm flowed through. The dedup footprint is bounded by "
               "the retransmission window, not the lifetime count: the "
               "cumulative closed-below watermark stalls behind the oldest "
               "transfer still in retransmission, so under sustained 30% "
               "loss the accepted-set peaks at a fraction of the flood and "
               "drains to zero once the channels close (the final watermark "
               "rides a reliable closure notification).\n";
  metrics->Set("e3b.vm_created", uint64_t(4 * kPerSite));
  metrics->Set("e3b.vm_accepted", lifetime_accepts);
  metrics->Set("e3b.accepted_set_now", uint64_t(accepted_now));
  metrics->Set("e3b.dedup_window_peak",
               uint64_t(std::max(dedup_peak, dedup_peak_live)));
  metrics->Set("e3b.conservation_ok", uint64_t(audit.ok() ? 1 : 0));
}

void Main(const std::string& json_path) {
  JsonMetrics metrics;
  SweepLoss(&metrics);
  FloodBoundedState(&metrics);
  metrics.WriteTo(json_path);
}

}  // namespace
}  // namespace dvp::bench

int main(int argc, char** argv) {
  dvp::bench::Main(dvp::bench::JsonPathFromArgs(argc, argv));
}
