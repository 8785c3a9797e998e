// E10b — Group commit + frame coalescing amortise the per-transaction force
// and the per-Vm real message (paper §4.2: one real message may carry many
// virtual messages; here the same amortisation is applied to the log force).
//
// Workload: a locally-satisfiable increment/decrement stream at every site
// (the paper's failure-free common case: 1 force, 0 messages per commit)
// plus a periodic burst of ring redistributions, so each site continuously
// owes its neighbour a clump of Vm transfers and acceptance acks.
//
// Sweep (K records, T µs) group-commit bounds with coalescing on, against the
// group-commit-off / message-per-packet baseline. Fixed seed; submissions are
// open-loop, inventory is generous, so the COMMIT OUTCOMES are identical in
// every configuration — only the cost columns move:
//   forces/txn    — stable-storage forces per committed transaction
//   msgs/txn      — network packets per committed transaction
//   p50/p99 (ms)  — commit latency (shows the deferral the timer buys back)
#include "bench/bench_common.h"

#include <cstdlib>

namespace dvp::bench {
namespace {

constexpr SimTime kRun = 10'000'000;    // 10 s of load
constexpr SimTime kDrain = 10'000'000;  // let Vm channels close
constexpr uint32_t kSites = 4;
constexpr SimTime kBurstGap = 5'000;    // ring burst every 5 ms per site
constexpr int kBurstSends = 4;          // transfers per burst (same peer)

struct Config {
  std::string label;
  bool group = false;
  uint32_t max_records = 8;
  SimTime max_delay_us = 1'000;
  bool coalesce = false;
};

struct Outcome {
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t forces = 0;
  uint64_t packets = 0;
  uint64_t log_bytes = 0;
  uint64_t max_group_records = 0;
  double p50_us = 0;
  double p99_us = 0;
  double forces_per_txn = 0;
  double msgs_per_txn = 0;
};

Outcome RunOnce(const Config& cfg) {
  std::vector<ItemId> items;
  // Generous inventory: every decrement is locally satisfiable, so no
  // transaction ever needs a remote gather and outcomes cannot depend on
  // force/coalesce timing.
  core::Catalog catalog = MakeCountCatalog(4, 400'000, &items);
  system::ClusterOptions opts;
  opts.num_sites = kSites;
  opts.seed = 9'090;
  opts.site.group_commit.enabled = cfg.group;
  opts.site.group_commit.max_records = cfg.max_records;
  opts.site.group_commit.max_delay_us = cfg.max_delay_us;
  opts.site.transport.coalesce = cfg.coalesce;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();

  // Ring redistribution bursts: every kBurstGap, each site ships kBurstSends
  // one-unit Vm to its neighbour — the clumped traffic coalescing targets.
  std::function<void(SimTime)> arm_burst = [&](SimTime at) {
    if (at >= kRun) return;
    cluster.kernel().ScheduleAt(at, [&, at]() {
      for (uint32_t s = 0; s < kSites; ++s) {
        for (int i = 0; i < kBurstSends; ++i) {
          (void)cluster.site(SiteId(s)).SendValue(SiteId((s + 1) % kSites),
                                                  items[0], 1);
        }
      }
      arm_burst(at + kBurstGap);
    });
  };
  arm_burst(kBurstGap);

  workload::WorkloadOptions w;
  w.arrivals_per_sec = 400;
  w.p_decrement = 0.5;
  w.p_increment = 0.5;
  w.p_read = 0;
  w.seed = 515;
  workload::WorkloadDriver driver(&cluster, items, w);
  auto r = driver.Run(kRun, kDrain);

  Outcome out;
  out.submitted = r.submitted;
  out.committed = r.committed();
  for (uint32_t s = 0; s < kSites; ++s) {
    const wal::StableStorage& st = cluster.storage(SiteId(s));
    out.forces += st.forces();
    out.log_bytes += st.log_bytes();
    out.max_group_records =
        std::max(out.max_group_records, st.max_group_records());
  }
  out.packets = cluster.network().stats().packets_sent;
  double commits = double(std::max<uint64_t>(1, out.committed));
  out.forces_per_txn = double(out.forces) / commits;
  out.msgs_per_txn = double(out.packets) / commits;
  out.p50_us = r.commit_latency_us.Median();
  out.p99_us = r.commit_latency_us.P99();

  Status audit = cluster.AuditAll();
  if (!audit.ok()) {
    std::cout << "CONSERVATION VIOLATION (" << cfg.label
              << "): " << audit.ToString() << "\n";
    std::exit(1);
  }
  return out;
}

void Main(const std::string& json_path) {
  PrintHeader("E10b",
              "group commit + Vm coalescing: forces and messages per txn");
  JsonMetrics metrics;

  std::vector<Config> configs = {
      {"baseline", false, 0, 0, false},
      {"coalesce-only", false, 0, 0, true},
      {"K8-T1000", true, 8, 1'000, true},
      {"K8-T2000", true, 8, 2'000, true},
      {"K32-T2000", true, 32, 2'000, true},
      {"K32-T5000", true, 32, 5'000, true},
  };

  workload::TablePrinter table({"config", "committed", "forces/txn",
                                "msgs/txn", "max group", "p50 (ms)",
                                "p99 (ms)"});
  std::vector<Outcome> outcomes;
  for (const Config& cfg : configs) {
    Outcome o = RunOnce(cfg);
    outcomes.push_back(o);
    table.AddRow(cfg.label, o.committed, o.forces_per_txn, o.msgs_per_txn,
                 o.max_group_records, o.p50_us / 1000.0, o.p99_us / 1000.0);
    std::string k = "e10b." + cfg.label + ".";
    metrics.Set(k + "submitted", o.submitted);
    metrics.Set(k + "committed", o.committed);
    metrics.Set(k + "forces", o.forces);
    metrics.Set(k + "packets", o.packets);
    metrics.Set(k + "log_bytes", o.log_bytes);
    metrics.Set(k + "forces_per_txn", o.forces_per_txn);
    metrics.Set(k + "msgs_per_txn", o.msgs_per_txn);
    metrics.Set(k + "p50_latency_us", o.p50_us);
    metrics.Set(k + "p99_latency_us", o.p99_us);
  }
  table.Print();

  const Outcome& base = outcomes[0];
  const Outcome& best = outcomes.back();
  bool outcomes_equal = true;
  for (const Outcome& o : outcomes) {
    outcomes_equal = outcomes_equal && o.submitted == base.submitted &&
                     o.committed == base.committed;
  }
  double force_ratio =
      best.forces_per_txn > 0 ? base.forces_per_txn / best.forces_per_txn : 0;
  double msg_ratio =
      best.msgs_per_txn > 0 ? base.msgs_per_txn / best.msgs_per_txn : 0;
  metrics.Set("e10b.force_reduction_x", force_ratio);
  metrics.Set("e10b.msg_reduction_x", msg_ratio);
  metrics.Set("e10b.outcomes_unchanged", uint64_t(outcomes_equal ? 1 : 0));
  metrics.WriteTo(json_path);

  std::cout << "\nforce reduction (baseline vs " << configs.back().label
            << "): " << force_ratio << "x; message reduction: " << msg_ratio
            << "x; commit outcomes "
            << (outcomes_equal ? "identical" : "DIVERGED")
            << " across configs.\n";
  std::cout << "CHECK force_reduction>=3: "
            << (force_ratio >= 3.0 ? "PASS" : "FAIL")
            << "  CHECK msg_reduction>=1.5: "
            << (msg_ratio >= 1.5 ? "PASS" : "FAIL")
            << "  CHECK outcomes_unchanged: "
            << (outcomes_equal ? "PASS" : "FAIL") << "\n";
  if (force_ratio < 3.0 || msg_ratio < 1.5 || !outcomes_equal) std::exit(1);
}

}  // namespace
}  // namespace dvp::bench

int main(int argc, char** argv) {
  dvp::bench::Main(dvp::bench::JsonPathFromArgs(argc, argv));
}
