// Multi-item atomic sets under chaos: transfers and orders mixed into the
// adversarial swarm. The cross-item oracles (every atomic commit record
// zero-sum; the whole item set conserving with atomic records excluded) run
// with the standard suite at probe instants and after the drain, so a
// multi-op that commits one leg without the other — or aborts without
// returning its partial gathers — surfaces as an oracle violation here.
//
// Layers follow conservation_property_test: pinned fault mixes, generated
// FaultPlan swarm seeds, one audit-after-every-event case, and pinned
// regression cases for bugs the multi-op work exposed.
#include <gtest/gtest.h>

#include "chaos/fault_plan.h"
#include "chaos/harness.h"
#include "system/cluster.h"
#include "verify/serializability.h"
#include "workload/generator.h"

namespace dvp {
namespace {

chaos::WorkloadSpec MultiopWorkload(uint32_t transfer_permille,
                                    uint32_t order_permille) {
  chaos::WorkloadSpec w;
  w.sites = 4;
  w.items = 3;
  w.total = 300;
  w.txns = 80;
  w.gap_us = 25'000;
  w.read_permille = 100;
  w.redist_permille = 200;
  w.max_amount = 12;
  w.timeout_us = 150'000;
  w.transfer_permille = transfer_permille;
  w.order_permille = order_permille;
  return w;
}

struct MultiopCase {
  const char* name;
  uint64_t seed;
  uint32_t transfer_permille;
  uint32_t order_permille;
  uint32_t loss_permille;
  bool crashes;
  bool partitions;
};

// Without a printer gtest dumps the raw bytes, and the discovered CTest name
// would carry the ASLR-randomised `name` pointer and uninitialised padding.
void PrintTo(const MultiopCase& c, std::ostream* os) { *os << c.name; }

class MultiopChaosTest : public ::testing::TestWithParam<MultiopCase> {};

TEST_P(MultiopChaosTest, CrossItemInvariantsHoldUnderFaults) {
  const MultiopCase& p = GetParam();

  chaos::ChaosCase c;
  c.seed = p.seed;
  c.workload = MultiopWorkload(p.transfer_permille, p.order_permille);
  c.workload.loss_permille = p.loss_permille;

  chaos::PlanSpec spec;
  spec.num_sites = 4;
  spec.horizon_us = 2'100'000;
  spec.max_events = 12;
  spec.crashes = p.crashes;
  spec.partitions = p.partitions;
  spec.link_faults = false;
  spec.skew = false;
  c.plan = chaos::GeneratePlan(p.seed, spec);

  chaos::RunResult r = chaos::RunCase(c);
  EXPECT_TRUE(r.ok) << p.name << ": " << r.violation << "\n" << c.ToLiteral();
  EXPECT_EQ(r.decided, r.submitted);
  EXPECT_GT(r.events_executed, 100u) << "the run must actually have run";
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, MultiopChaosTest,
    ::testing::Values(
        MultiopCase{"calm_transfers", 11, 400, 0, 0, false, false},
        MultiopCase{"calm_orders", 12, 0, 400, 0, false, false},
        MultiopCase{"mixed", 13, 250, 250, 0, false, false},
        MultiopCase{"lossy", 14, 300, 150, 300, false, false},
        MultiopCase{"crashes", 15, 300, 150, 0, true, false},
        MultiopCase{"partitions", 16, 300, 150, 0, false, true},
        MultiopCase{"everything", 17, 300, 150, 300, true, true}),
    [](const auto& info) { return std::string(info.param.name); });

// Generated swarm: seeds drawn from the same generator the chaos_runner
// uses. MakeSwarmCase mixes transfer/order permille into roughly a third of
// the drawn workloads, so this block exercises multi-op traffic against the
// full generated fault-class mix.
TEST(MultiopSwarm, GeneratedSwarmSeedsHoldAllOracles) {
  uint32_t with_multiops = 0;
  for (uint64_t seed = 9'000; seed < 9'024; ++seed) {
    chaos::ChaosCase c = chaos::MakeSwarmCase(seed);
    if (c.workload.transfer_permille + c.workload.order_permille == 0) {
      continue;  // this block is about the multi-op mixes
    }
    ++with_multiops;
    chaos::RunResult r = chaos::RunCase(c);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.violation << "\n"
                      << c.ToLiteral();
    EXPECT_EQ(r.decided, r.submitted) << "seed " << seed;
  }
  EXPECT_GE(with_multiops, 4u)
      << "swarm generator stopped drawing multi-op workloads";
}

// The durable cross-item ledger, audited after EVERY simulation event: at no
// instant — mid-gather, mid-abort-return, mid-crash — may the durable view
// show a state the atomic-set records cannot explain.
TEST(MultiopSwarm, AuditAfterEveryEventWithTransfers) {
  chaos::ChaosCase c;
  c.seed = 77;
  c.workload = MultiopWorkload(350, 150);
  c.workload.txns = 50;

  chaos::RunOptions opts;
  opts.audit_every_event = true;
  chaos::RunResult r = chaos::RunCase(c, opts);
  EXPECT_TRUE(r.ok) << r.violation << "\n" << c.ToLiteral();
  EXPECT_EQ(r.decided, r.submitted);
}

// Pinned shrunken swarm case (brace-literal, positional): the smallest
// generated case that drives transfers, orders, an abort-returned partial
// gather and a crash/recovery through one run. Also guards the WorkloadSpec
// literal layout — the transfer/order knobs are the two trailing fields, and
// re-ordering them silently re-maps every reproducer in the tree.
TEST(MultiopRegression, PinnedTransferOrderCrashCase) {
  chaos::ChaosCase c;
  c.seed = 9'102;
  c.perturb_seed = 9'103;
  c.max_jitter_us = 200;
  c.workload = {4, 3, 300, 70, 20'000, chaos::kAnySite, 100, 150,
                10, 120'000, 200, 100, 0, 0, 0, 0, 0, 350, 150};
  c.plan.events = {{200'000, chaos::FaultKind::kCrash, 1, 0},
                   {500'000, chaos::FaultKind::kRecover, 1, 0},
                   {700'000, chaos::FaultKind::kLinkLoss, 0, 600},
                   {1'100'000, chaos::FaultKind::kLinkLoss, 0, 0}};

  chaos::RunResult r = chaos::RunCase(c);
  EXPECT_TRUE(r.ok) << r.violation << "\n" << c.ToLiteral();
  EXPECT_EQ(r.decided, r.submitted);
}

// Regression for the read-termination soundness hole the multi-op abort
// path exposed (found by E13 seed 9102): a multi-op abort returns its
// partial gathers as Vm sends, and such a Vm — created at the READER's own
// site, repeatedly deferred at a destination that keeps the item locked —
// holds value invisible to every remote probe round. The §5 rule ("a read
// may be honored only when no Vm for the item is outstanding here") must
// also gate the reader's own outbox at termination, or the read observes a
// total no serial order can explain. This is the E13 mix shrunk to the
// failing window; pre-fix it fails the exact timestamp-order replay.
TEST(MultiopRegression, ReadDrainWaitsForLocalOutstandingVm) {
  uint64_t seed = 9'102;
  std::vector<ItemId> items;
  core::Catalog catalog;
  for (int i = 0; i < 8; ++i) {
    items.push_back(catalog.AddItem("item" + std::to_string(i),
                                    core::CountDomain::Instance(), 400));
  }

  system::ClusterOptions opts;
  opts.num_sites = 5;
  opts.seed = seed;
  opts.site.txn.targeting = txn::TargetPolicy::kRandom;
  opts.site.txn.timeout_us = 300'000;
  opts.site.txn.multiop_timeout_us = 200'000;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();

  workload::WorkloadOptions w;
  w.arrivals_per_sec = 400.0;
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
  driver.Run(9'000'000, 3'000'000);

  std::map<ItemId, core::Value> final_totals;
  for (ItemId item : items) final_totals[item] = cluster.TotalOf(item);
  Status ser = checker.Check(verify::HistoryChecker::Order::kTimestamp,
                             &final_totals);
  EXPECT_TRUE(ser.ok()) << ser.ToString();
  EXPECT_TRUE(cluster.AuditAll().ok());
}

}  // namespace
}  // namespace dvp
