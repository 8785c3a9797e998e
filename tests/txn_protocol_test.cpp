// Transaction-protocol tests beyond the basic airline scenarios: spec
// validation, concurrency-control outcomes, Conc2 mode, compute windows,
// gauge-domain behaviour, fan-out options.
#include <gtest/gtest.h>

#include "system/cluster.h"

namespace dvp {
namespace {

using core::CountDomain;
using core::GaugeDomain;
using txn::TxnOp;
using txn::TxnOutcome;
using txn::TxnResult;
using txn::TxnSpec;

class TxnProtocolTest : public ::testing::Test {
 protected:
  void Build(system::ClusterOptions opts, core::Value total = 400) {
    catalog_ = std::make_unique<core::Catalog>();
    item_ = catalog_->AddItem("pool", CountDomain::Instance(), total);
    gauge_ = catalog_->AddItem("net", GaugeDomain::Instance(), 0);
    cluster_ = std::make_unique<system::Cluster>(catalog_.get(), opts);
    cluster_->BootstrapEven();
  }

  TxnResult SubmitAndRun(SiteId at, const TxnSpec& spec,
                         SimTime run_us = 2'000'000) {
    TxnResult out;
    bool done = false;
    auto submitted = cluster_->Submit(at, spec, [&](const TxnResult& r) {
      out = r;
      done = true;
    });
    EXPECT_TRUE(submitted.ok());
    cluster_->RunFor(run_us);
    EXPECT_TRUE(done);
    return out;
  }

  std::unique_ptr<core::Catalog> catalog_;
  ItemId item_;
  ItemId gauge_;
  std::unique_ptr<system::Cluster> cluster_;
};

TEST_F(TxnProtocolTest, EmptySpecIsInvalid) {
  Build({});
  TxnSpec spec;
  EXPECT_EQ(SubmitAndRun(SiteId(0), spec).outcome, TxnOutcome::kAbortInvalid);
}

TEST_F(TxnProtocolTest, NonPositiveAmountIsInvalid) {
  Build({});
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 0)};
  EXPECT_EQ(SubmitAndRun(SiteId(0), spec).outcome, TxnOutcome::kAbortInvalid);
  spec.ops = {TxnOp::Increment(item_, -3)};
  EXPECT_EQ(SubmitAndRun(SiteId(0), spec).outcome, TxnOutcome::kAbortInvalid);
}

TEST_F(TxnProtocolTest, UnknownItemIsInvalid) {
  Build({});
  TxnSpec spec;
  spec.ops = {TxnOp::Increment(ItemId(42), 1)};
  EXPECT_EQ(SubmitAndRun(SiteId(0), spec).outcome, TxnOutcome::kAbortInvalid);
}

TEST_F(TxnProtocolTest, DuplicateItemIsInvalid) {
  Build({});
  TxnSpec spec;
  spec.ops = {TxnOp::Increment(item_, 1), TxnOp::Decrement(item_, 1)};
  EXPECT_EQ(SubmitAndRun(SiteId(0), spec).outcome, TxnOutcome::kAbortInvalid);
}

TEST_F(TxnProtocolTest, SubmitToDownSiteFailsFast) {
  Build({});
  cluster_->CrashSite(SiteId(0));
  TxnSpec spec;
  spec.ops = {TxnOp::Increment(item_, 1)};
  auto submitted = cluster_->Submit(SiteId(0), spec, nullptr);
  EXPECT_FALSE(submitted.ok());
  EXPECT_TRUE(submitted.status().IsUnavailable());
}

TEST_F(TxnProtocolTest, LockConflictAbortsImmediately) {
  system::ClusterOptions opts;
  opts.site.txn.local_compute_us = 50'000;  // first txn holds the lock 50ms
  Build(opts);
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 1)};
  bool first_done = false, second_done = false;
  TxnResult second;
  ASSERT_TRUE(cluster_
                  ->Submit(SiteId(0), spec,
                           [&](const TxnResult&) { first_done = true; })
                  .ok());
  ASSERT_TRUE(cluster_
                  ->Submit(SiteId(0), spec,
                           [&](const TxnResult& r) {
                             second = r;
                             second_done = true;
                           })
                  .ok());
  // The conflicting submission decides instantly, before any time passes.
  EXPECT_TRUE(second_done);
  EXPECT_EQ(second.outcome, TxnOutcome::kAbortLockConflict);
  EXPECT_EQ(second.latency_us, 0);
  cluster_->RunFor(200'000);
  EXPECT_TRUE(first_done);
}

TEST_F(TxnProtocolTest, ComputeWindowDelaysCommitButCommits) {
  system::ClusterOptions opts;
  opts.site.txn.local_compute_us = 30'000;
  Build(opts);
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 1)};
  TxnResult r = SubmitAndRun(SiteId(0), spec);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_GE(r.latency_us, 30'000);
}

TEST_F(TxnProtocolTest, GaugeDecrementNeverNeedsRedistribution) {
  Build({});
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(gauge_, 1000)};
  TxnResult r = SubmitAndRun(SiteId(0), spec);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(r.rounds, 0u);
  EXPECT_EQ(cluster_->site(SiteId(0)).LocalValue(gauge_), -1000);
  EXPECT_EQ(cluster_->TotalOf(gauge_), -1000);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

TEST_F(TxnProtocolTest, MixedDomainTransaction) {
  Build({});
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 5), TxnOp::Increment(gauge_, 5)};
  TxnResult r = SubmitAndRun(SiteId(1), spec);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(cluster_->TotalOf(item_), 395);
  EXPECT_EQ(cluster_->TotalOf(gauge_), 5);
}

TEST_F(TxnProtocolTest, MultiItemShortfallGathersBoth) {
  Build({});
  // Drain site 0 on the count item.
  TxnSpec drain;
  drain.ops = {TxnOp::Decrement(item_, 100)};
  ASSERT_EQ(SubmitAndRun(SiteId(0), drain).outcome, TxnOutcome::kCommitted);
  // Needs 60 more than the (now empty) local fragment.
  TxnSpec both;
  both.ops = {TxnOp::Decrement(item_, 60), TxnOp::Increment(gauge_, 1)};
  TxnResult r = SubmitAndRun(SiteId(0), both);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(cluster_->TotalOf(item_), 240);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

// An emergent invariant worth pinning down: a *local* Begin can never fail
// the Conc1 gate, because every stamp on a local fragment was either issued
// by the local clock or accompanied by an Observe of the stamping timestamp.
// Conc1's conservatism therefore bites only at the remote-honor gate, where
// a requester with a lagging clock is refused — and the kCc GatherNack
// carries the refuser's clock so a retry succeeds (§7's "bump-up").
TEST_F(TxnProtocolTest, Conc1StaleRequesterRefusedThenNackEnablesRetry) {
  Build({});
  // Artificially age every remote fragment's lock timestamp far beyond
  // site 0's clock (as heavy traffic among sites 1..3 would).
  for (uint32_t s = 1; s < 4; ++s) {
    cluster_->site(SiteId(s)).store()->SetTs(item_,
                                             Timestamp(1000, SiteId(s)));
  }
  // Drain site 0 locally, then demand more than its fragment: the gather
  // requests carry a tiny timestamp and every remote site refuses.
  TxnSpec drain;
  drain.ops = {TxnOp::Decrement(item_, 100)};
  ASSERT_EQ(SubmitAndRun(SiteId(0), drain).outcome, TxnOutcome::kCommitted);
  TxnSpec need;
  need.ops = {TxnOp::Decrement(item_, 50)};
  TxnResult r = SubmitAndRun(SiteId(0), need);
  EXPECT_EQ(r.outcome, TxnOutcome::kAbortTimeout);
  EXPECT_GE(cluster_->AggregateCounters().Get("req.ignored.cc"), 3u);
  // The refusals carried clock NACKs; site 0's clock has caught up and the
  // retry's timestamp dominates the stamps.
  EXPECT_GE(cluster_->AggregateCounters().Get("req.nack_received"), 1u);
  TxnResult retry = SubmitAndRun(SiteId(0), need);
  EXPECT_EQ(retry.outcome, TxnOutcome::kCommitted);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

// With a retry timer, a kCc refusal is answered at once: the origin re-asks
// the refusing site under a fresh timestamp instead of idling until the
// timer fires. Site 1, the donor, stamps its fragment far ahead of the
// origin's clock with many local transactions; site 2 is drained. The
// origin's gather is refused once by the Conc1 gate and still commits well
// inside one retry interval.
TEST_F(TxnProtocolTest, Conc1NackReasksTheRefusingSiteAtOnce) {
  system::ClusterOptions opts;
  opts.num_sites = 3;
  opts.site.txn.gather_retry_us = 5'000;
  Build(opts, 300);
  TxnSpec one;
  one.ops = {TxnOp::Increment(item_, 1)};
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(SubmitAndRun(SiteId(1), one, 1'000).outcome,
              TxnOutcome::kCommitted);
  }
  TxnSpec drain;
  drain.ops = {TxnOp::Decrement(item_, 100)};
  ASSERT_EQ(SubmitAndRun(SiteId(2), drain).outcome, TxnOutcome::kCommitted);
  ASSERT_EQ(SubmitAndRun(SiteId(0), drain).outcome, TxnOutcome::kCommitted);

  TxnSpec need;
  need.ops = {TxnOp::Decrement(item_, 50)};
  TxnResult r = SubmitAndRun(SiteId(0), need);
  ASSERT_EQ(r.outcome, TxnOutcome::kCommitted) << r.status.ToString();
  EXPECT_LT(r.latency_us, 5'000);
  auto c = cluster_->AggregateCounters();
  EXPECT_EQ(c.Get("req.nack_received"), 1u);
  EXPECT_EQ(c.Get("req.reask_early"), 1u);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

// The early re-ask is bounded: however many kCc NACKs one open shortfall
// draws, at most two re-asks leave before the retry timer fires.
TEST_F(TxnProtocolTest, EarlyReasksAreBoundedBetweenRetryTimerFirings) {
  system::ClusterOptions opts;
  opts.num_sites = 3;
  opts.site.txn.gather_retry_us = 5'000;
  Build(opts, 300);
  TxnSpec drain;
  drain.ops = {TxnOp::Decrement(item_, 100)};
  ASSERT_EQ(SubmitAndRun(SiteId(0), drain).outcome, TxnOutcome::kCommitted);

  TxnSpec need;
  need.ops = {TxnOp::Decrement(item_, 50)};
  bool done = false;
  auto id = cluster_->Submit(SiteId(0), need,
                             [&](const TxnResult&) { done = true; });
  ASSERT_TRUE(id.ok());
  uint64_t msgs_before = cluster_->AggregateCounters().Get("req.msgs");
  proto::GatherNackMsg nack;
  nack.from = SiteId(1);
  nack.reason = proto::GatherNackMsg::Reason::kCc;
  nack.item = item_;
  nack.ts_packed = Timestamp(1000, SiteId(1)).packed();
  nack.trace_id = id.value().value();
  for (int i = 0; i < 3; ++i) {
    cluster_->site(SiteId(0)).txns()->OnNack(SiteId(1), nack);
  }
  auto c = cluster_->AggregateCounters();
  EXPECT_EQ(c.Get("req.nack_received"), 3u);
  EXPECT_EQ(c.Get("req.reask_early"), 2u);
  EXPECT_EQ(c.Get("req.msgs") - msgs_before, 2u);
  cluster_->RunFor(2'000'000);
  EXPECT_TRUE(done);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

TEST_F(TxnProtocolTest, Conc2CommitsWhereConc1WouldReject) {
  system::ClusterOptions opts;
  opts.UseConc2();
  Build(opts);
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 1)};
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(SubmitAndRun(SiteId(1), spec).outcome, TxnOutcome::kCommitted);
  }
  TxnSpec big;
  big.ops = {TxnOp::Decrement(item_, 99)};
  ASSERT_EQ(SubmitAndRun(SiteId(1), big).outcome, TxnOutcome::kCommitted);
  TxnSpec local;
  local.ops = {TxnOp::Increment(item_, 1)};
  EXPECT_EQ(SubmitAndRun(SiteId(0), local).outcome, TxnOutcome::kCommitted);
}

TEST_F(TxnProtocolTest, Conc2RedistributionViaBroadcast) {
  system::ClusterOptions opts;
  opts.UseConc2();
  Build(opts);
  TxnSpec drain;
  drain.ops = {TxnOp::Decrement(item_, 100)};
  ASSERT_EQ(SubmitAndRun(SiteId(2), drain).outcome, TxnOutcome::kCommitted);
  TxnSpec need;
  need.ops = {TxnOp::Decrement(item_, 50)};
  TxnResult r = SubmitAndRun(SiteId(2), need);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

TEST_F(TxnProtocolTest, FanoutOneStillGathersFromSingleTarget) {
  system::ClusterOptions opts;
  opts.site.txn.request_fanout = 1;
  Build(opts);
  TxnSpec drain;
  drain.ops = {TxnOp::Decrement(item_, 100)};
  ASSERT_EQ(SubmitAndRun(SiteId(0), drain).outcome, TxnOutcome::kCommitted);
  TxnSpec need;
  need.ops = {TxnOp::Decrement(item_, 50)};
  // Fan-out 1 asks exactly one site for 50; that site holds 100: success.
  TxnResult r = SubmitAndRun(SiteId(0), need);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_LE(cluster_->AggregateCounters().Get("req.msgs"), 2u);
}

// One retry timer serves every kind of open work. A decrement short of its
// local fragment, a full read and a snapshot read share one transaction on
// lossy links: the timer runs at gather_retry_us while the shortfall is open
// and re-asks the reads' missing replies on the same firings. Both reads
// still return their item's exact total.
TEST_F(TxnProtocolTest, MixedKindSpecSharesOneRetryTimer) {
  system::ClusterOptions opts;
  opts.site.txn.gather_retry_us = 5'000;
  opts.link.loss_prob = 0.01;
  catalog_ = std::make_unique<core::Catalog>();
  ItemId stock = catalog_->AddItem("stock", CountDomain::Instance(), 400);
  ItemId full = catalog_->AddItem("full", CountDomain::Instance(), 800);
  ItemId snap = catalog_->AddItem("snap", CountDomain::Instance(), 1200);
  cluster_ = std::make_unique<system::Cluster>(catalog_.get(), opts);
  cluster_->BootstrapEven();

  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(stock, 150), TxnOp::ReadFull(full),
              TxnOp::ReadSnapshot(snap)};
  TxnResult r = SubmitAndRun(SiteId(2), spec);
  ASSERT_EQ(r.outcome, TxnOutcome::kCommitted) << r.status.ToString();
  EXPECT_EQ(r.read_values.at(full), 800);
  EXPECT_EQ(r.read_values.at(snap), 1200);
  EXPECT_GE(r.rounds, 2u);
  EXPECT_EQ(cluster_->TotalOf(stock), 250);
  EXPECT_EQ(cluster_->site(SiteId(2)).LocalValue(full), 800);
  EXPECT_TRUE(cluster_->AuditAll().ok());
  EXPECT_TRUE(cluster_->AuditAllVolatile().ok());
}

TEST_F(TxnProtocolTest, DivideShortfallSpreadsTheAsk) {
  system::ClusterOptions opts;
  opts.site.txn.divide_shortfall = true;
  Build(opts);
  TxnSpec drain;
  drain.ops = {TxnOp::Decrement(item_, 100)};
  ASSERT_EQ(SubmitAndRun(SiteId(0), drain).outcome, TxnOutcome::kCommitted);
  TxnSpec need;
  need.ops = {TxnOp::Decrement(item_, 60)};
  TxnResult r = SubmitAndRun(SiteId(0), need);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  // Each of 3 targets was asked for ceil(60/3) = 20; little over-shipping.
  EXPECT_LE(cluster_->site(SiteId(0)).LocalValue(item_), 10);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

TEST_F(TxnProtocolTest, TimeoutLatencyEqualsConfiguredBound) {
  system::ClusterOptions opts;
  opts.site.txn.timeout_us = 123'000;
  Build(opts);
  ASSERT_TRUE(cluster_->Partition({{SiteId(0)}, {SiteId(1), SiteId(2),
                                                 SiteId(3)}})
                  .ok());
  TxnSpec need;
  need.ops = {TxnOp::Decrement(item_, 101)};  // local 100 insufficient
  TxnResult r = SubmitAndRun(SiteId(0), need);
  EXPECT_EQ(r.outcome, TxnOutcome::kAbortTimeout);
  EXPECT_EQ(r.latency_us, 123'000);
}

TEST_F(TxnProtocolTest, SingleSiteClusterWorks) {
  system::ClusterOptions opts;
  opts.num_sites = 1;
  Build(opts);
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 10)};
  EXPECT_EQ(SubmitAndRun(SiteId(0), spec).outcome, TxnOutcome::kCommitted);
  // Reads are trivially local.
  TxnSpec read;
  read.ops = {TxnOp::ReadFull(item_)};
  TxnResult r = SubmitAndRun(SiteId(0), read);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(r.read_values.at(item_), 390);
  // Insufficient value has nobody to ask: bounded timeout abort.
  TxnSpec huge;
  huge.ops = {TxnOp::Decrement(item_, 1000)};
  EXPECT_EQ(SubmitAndRun(SiteId(0), huge).outcome, TxnOutcome::kAbortTimeout);
}

TEST_F(TxnProtocolTest, AbortedGatherLeavesValueRedistributedNotLost) {
  Build({});
  ASSERT_TRUE(cluster_->Partition({{SiteId(0), SiteId(1)},
                                   {SiteId(2), SiteId(3)}})
                  .ok());
  TxnSpec need;
  need.ops = {TxnOp::Decrement(item_, 180)};  // group holds 200 total
  TxnResult r = SubmitAndRun(SiteId(0), need);
  // Site 1's 100 flowed to site 0 even though the txn aborted (§6: aborted
  // transactions are Rds transactions).
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);  // 100+100 = 200 >= 180!
  // Redo with an amount beyond the group's reach:
  TxnSpec over;
  over.ops = {TxnOp::Decrement(item_, 100)};  // only 20 left in the group
  TxnResult r2 = SubmitAndRun(SiteId(0), over);
  EXPECT_EQ(r2.outcome, TxnOutcome::kAbortTimeout);
  EXPECT_EQ(cluster_->TotalOf(item_), 220);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

}  // namespace
}  // namespace dvp
