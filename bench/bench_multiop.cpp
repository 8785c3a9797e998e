// E13 — multi-item atomic sets: transfers and orders as first-class load.
//
// Claim: multi-item ACID transactions (transfer = decrement A + increment B;
// order = stock down + revenue up, both under ONE timestamp with locks taken
// in global item-id order) commit through the unchanged WAL/group-commit
// path, abort cleanly with partial gathers returned, and leave every
// cross-item invariant intact: each atomic commit record is zero-sum, the
// sum over the whole item set conserves with atomic records excluded, and
// the committed history replays serializably in timestamp order.
//
// Setup: 5 sites, 8 items, Zipf-skewed transfer/order/single-op mix, with
// the multiop abort-on-cycle-risk timeout armed below the single-op window.
// Each seed runs TWICE and the commit outcomes must be identical — the
// determinism gate CI byte-diffs via BENCH_multiop.json.
#include "bench/bench_common.h"
#include "verify/conservation.h"
#include "verify/serializability.h"

namespace dvp::bench {
namespace {

using txn::TxnOutcome;

constexpr SimTime kRun = 20'000'000;
constexpr SimTime kDrain = 3'000'000;
constexpr uint32_t kSites = 5;
constexpr uint32_t kItems = 8;
constexpr core::Value kPerItem = 400;
constexpr double kRate = 400.0;
constexpr uint64_t kSeeds[] = {7'001, 9'102};

struct Outcome {
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t transfer_committed = 0;
  uint64_t order_committed = 0;
  uint64_t single_committed = 0;
  uint64_t aborted = 0;
  uint64_t timeouts = 0;
  uint64_t multiop_return_sends = 0;
  uint64_t zero_sum_violations = 0;
  uint64_t group_audit_violations = 0;
  uint64_t serializability_ok = 0;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

Outcome RunOne(uint64_t seed) {
  std::vector<ItemId> items;
  core::Catalog catalog = MakeCountCatalog(kItems, kPerItem, &items);
  system::ClusterOptions opts;
  opts.num_sites = kSites;
  opts.seed = seed;
  opts.site.txn.targeting = txn::TargetPolicy::kRandom;
  opts.site.txn.timeout_us = 300'000;
  // The abort-on-cycle-risk knob: multi-ops park locks on two items while
  // gathering, so they give up earlier than single-item transactions.
  opts.site.txn.multiop_timeout_us = 200'000;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();

  workload::WorkloadOptions w;
  w.arrivals_per_sec = kRate;
  w.p_decrement = 0.20;
  w.p_increment = 0.10;
  w.p_read = 0.05;
  w.p_transfer = 0.45;
  w.p_order = 0.20;
  w.amount_min = 1;
  w.amount_max = 6;
  w.item_zipf_theta = 0.6;
  w.seed = seed * 3 + 1;
  workload::WorkloadDriver driver(&cluster, items, w);

  verify::HistoryChecker checker(&catalog);
  driver.set_on_commit([&](TxnId id, const txn::TxnSpec& spec,
                           const txn::TxnResult& r) {
    checker.RecordCommitAt(cluster.Now(), id, spec, r);
  });

  Outcome out;
  driver.set_on_decision([&](SiteId, const txn::TxnSpec& spec,
                             const txn::TxnResult& r) {
    if (!r.committed()) {
      ++out.aborted;
      if (r.outcome == TxnOutcome::kAbortTimeout) ++out.timeouts;
      return;
    }
    if (spec.label == "transfer") {
      ++out.transfer_committed;
    } else if (spec.label == "order") {
      ++out.order_committed;
    } else {
      ++out.single_committed;
    }
  });

  auto r = driver.Run(kRun, kDrain);
  out.submitted = r.submitted;
  out.committed = r.committed();
  out.multiop_return_sends =
      cluster.AggregateCounters().Get("txn.multiop.return_sends");

  // Per-item conservation (legs counted individually)…
  Status audit = cluster.AuditAll();
  if (!audit.ok()) {
    std::cout << "CONSERVATION VIOLATION (seed " << seed
              << "): " << audit.ToString() << "\n";
    std::exit(1);
  }
  // …and the invariant this experiment exists for: transaction-scoped
  // cross-item conservation. Every atomic record zero-sum, and the whole
  // item set balances with atomic records excluded.
  auto storages = cluster.Storages();
  if (!verify::CheckAtomicSetCommits(storages).ok()) {
    ++out.zero_sum_violations;
  }
  if (!verify::AuditGroup(storages, catalog, items).ok()) {
    ++out.group_audit_violations;
  }

  std::map<ItemId, core::Value> final_totals;
  for (ItemId item : items) final_totals[item] = cluster.TotalOf(item);
  Status ser = checker.Check(verify::HistoryChecker::Order::kTimestamp,
                             &final_totals);
  out.serializability_ok = ser.ok() ? 1 : 0;
  if (!ser.ok()) {
    std::cout << "SERIALIZABILITY VIOLATION (seed " << seed
              << "): " << ser.ToString() << "\n";
  }
  return out;
}

void Main(const std::string& json_path) {
  PrintHeader("E13",
              "multi-item atomic sets: transfers/orders commit atomically, "
              "abort cleanly, and every cross-item invariant holds");
  JsonMetrics metrics;
  workload::TablePrinter table({"seed", "committed", "transfer", "order",
                                "single", "aborted", "timeouts", "returns",
                                "serializable"});
  bool ok = true;
  uint64_t deterministic = 1;
  for (uint64_t seed : kSeeds) {
    Outcome a = RunOne(seed);
    Outcome b = RunOne(seed);
    if (!(a == b)) {
      deterministic = 0;
      std::cout << "DETERMINISM VIOLATION: seed " << seed
                << " produced different outcomes across two runs\n";
    }
    table.AddRow(seed, a.committed, a.transfer_committed, a.order_committed,
                 a.single_committed, a.aborted, a.timeouts,
                 a.multiop_return_sends, a.serializability_ok);
    std::string k = "multiop.s" + std::to_string(seed) + ".";
    metrics.Set(k + "submitted", a.submitted);
    metrics.Set(k + "committed", a.committed);
    metrics.Set(k + "transfer_committed", a.transfer_committed);
    metrics.Set(k + "order_committed", a.order_committed);
    metrics.Set(k + "single_committed", a.single_committed);
    metrics.Set(k + "aborted", a.aborted);
    metrics.Set(k + "timeout_aborts", a.timeouts);
    metrics.Set(k + "multiop_return_sends", a.multiop_return_sends);
    metrics.Set(k + "zero_sum_violations", a.zero_sum_violations);
    metrics.Set(k + "group_audit_violations", a.group_audit_violations);
    metrics.Set(k + "serializability_ok", a.serializability_ok);
    ok = ok && a.transfer_committed > 0 && a.order_committed > 0 &&
         a.zero_sum_violations == 0 && a.group_audit_violations == 0 &&
         a.serializability_ok == 1;
  }
  metrics.Set("multiop.determinism", deterministic);
  metrics.WriteTo(json_path);
  table.Print();

  ok = ok && deterministic == 1;
  std::cout << "\nCHECK transfers+orders committed, zero-sum clean, "
            << "serializable, deterministic: " << (ok ? "PASS" : "FAIL")
            << "\n";
  if (!ok) std::exit(1);
}

}  // namespace
}  // namespace dvp::bench

int main(int argc, char** argv) {
  dvp::bench::Main(dvp::bench::JsonPathFromArgs(argc, argv));
}
