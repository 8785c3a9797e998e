// E6 — Independent recovery (paper §7).
//
// Claims:
//  (a) A recovering DvP site exchanges ZERO remote messages before doing
//      useful local work; recovery time is proportional to the redo suffix
//      and shrinks with checkpointing.
//  (b) A recovering 2PC participant with an in-doubt (prepared, undecided)
//      transaction MUST interrogate the coordinator — remote messages > 0 —
//      and the in-doubt items stay locked until the answer arrives.
//
// Sweep: workload duration before the crash (log length) × checkpoint
// interval for DvP; a crash-inside-the-uncertainty-window scenario for 2PC.
#include "baseline/twopc.h"
#include "bench/bench_common.h"

namespace dvp::bench {
namespace {

struct DvpRow {
  uint64_t log_records = 0;
  uint64_t redo_suffix = 0;
  double recovery_ms = 0;
  uint64_t remote_msgs = 0;
  bool first_local_commit_ok = false;
};

DvpRow RunDvp(SimTime workload_us, SimTime checkpoint_us) {
  std::vector<ItemId> items;
  core::Catalog catalog = MakeCountCatalog(2, 2000, &items);
  system::ClusterOptions opts;
  opts.num_sites = 4;
  opts.seed = 61;
  opts.site.checkpoint_interval_us = checkpoint_us;
  opts.site.recovery_us_per_record = 50;  // pronounced, measurable redo cost
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();

  workload::WorkloadOptions w;
  w.arrivals_per_sec = 120;
  w.p_decrement = 0.5;
  w.p_increment = 0.5;
  w.p_read = 0;
  w.site_zipf_theta = 1.0;  // cross-site traffic → Vm records in the log
  w.increment_site_zipf_theta = 0.0;
  w.seed = 71;
  workload::WorkloadDriver driver(&cluster, items, w);
  (void)driver.Run(workload_us, 1'000'000);

  DvpRow row;
  SiteId victim(0);
  row.log_records = cluster.storage(victim).log_size();
  row.redo_suffix =
      row.log_records - cluster.storage(victim).checkpoint_upto();
  cluster.CrashSite(victim);

  uint64_t sent_before = cluster.AggregateCounters().Get("net.sent");
  SimTime t0 = cluster.Now();
  bool recovered = false;
  recovery::RecoveryReport report;
  cluster.site(victim).Recover([&](const recovery::RecoveryReport& r) {
    recovered = true;
    report = r;
  });
  // Run only until the site is back up; no other traffic in flight.
  while (!recovered) cluster.kernel().Step();
  row.recovery_ms = double(cluster.Now() - t0) / 1000.0;
  row.remote_msgs = report.remote_messages_needed;
  (void)sent_before;

  // First useful work: a purely local transaction, no network needed.
  txn::TxnSpec spec;
  spec.ops = {txn::TxnOp::Increment(items[0], 1)};
  bool committed = false;
  (void)cluster.Submit(victim, spec, [&](const txn::TxnResult& r) {
    committed = r.committed();
  });
  row.first_local_commit_ok = committed;  // fast path commits synchronously
  return row;
}

void Run2pcScenario(workload::TablePrinter& table) {
  // Crash a participant inside the uncertainty window, then recover it.
  std::vector<ItemId> items;
  core::Catalog catalog = MakeCountCatalog(1, 1000, &items);
  baseline::TwoPcOptions opts;
  opts.num_sites = 4;
  opts.seed = 62;
  opts.link = net::LinkParams::Synchronous(10'000);
  baseline::TwoPcCluster cluster(&catalog, opts);
  cluster.Bootstrap();

  txn::TxnSpec spec;
  spec.ops = {txn::TxnOp::Decrement(items[0], 5)};
  (void)cluster.Submit(SiteId(0), spec, nullptr);
  // locks @10ms, grants @20ms, prepare @30ms (participants force prepare),
  // votes @40ms. Crash participant 3 right after it prepared.
  cluster.RunFor(31'000);
  cluster.CrashSite(SiteId(3));
  cluster.RunFor(200'000);

  bool done = false;
  uint64_t msgs = 0;
  SimTime t0 = cluster.Now();
  cluster.RecoverSite(SiteId(3), [&](uint64_t m) {
    done = true;
    msgs = m;
  });
  cluster.RunFor(2'000'000);
  table.AddRow("2PC participant (in-doubt)", uint64_t(3), uint64_t(1),
               done ? double(cluster.Now() - t0) / 1000.0 : -1.0, msgs,
               done ? "after coordinator answered" : "STILL BLOCKED");
}

void Main() {
  PrintHeader("E6",
              "independent recovery: remote messages needed and recovery "
              "time vs log length / checkpointing");
  workload::TablePrinter table({"scenario", "log records", "redo suffix",
                                "recovery (ms)", "remote msgs",
                                "first local commit"});
  for (SimTime workload : {5'000'000, 20'000'000, 60'000'000}) {
    for (SimTime ckpt : {SimTime{0}, SimTime{1'000'000}}) {
      DvpRow row = RunDvp(workload, ckpt);
      std::string label = "DvP " + std::to_string(workload / 1'000'000) +
                          "s" + (ckpt > 0 ? " + ckpt 1s" : " no ckpt");
      table.AddRow(label, row.log_records, row.redo_suffix, row.recovery_ms,
                   row.remote_msgs,
                   row.first_local_commit_ok ? "immediately" : "FAILED");
    }
  }
  Run2pcScenario(table);
  table.Print();
  std::cout << "\nDvP: zero remote messages, redo bounded by the checkpoint "
               "suffix, and useful local work the instant the redo ends. 2PC "
               "participant: cannot touch the in-doubt item until the "
               "coordinator answers.\n";
}

}  // namespace
}  // namespace dvp::bench

int main() { dvp::bench::Main(); }
