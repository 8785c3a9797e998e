// The full-read drain protocol (§3, §5): termination detection via double
// all-zero rounds with stable acceptance counters. The property at stake:
// a committed read returns EXACTLY initial + Σ deltas of the transactions
// serialized before it — even with concurrent traffic, lossy links and
// in-flight Vm racing the read.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "system/cluster.h"
#include "verify/serializability.h"

namespace dvp {
namespace {

using core::CountDomain;
using txn::TxnOp;
using txn::TxnOutcome;
using txn::TxnResult;
using txn::TxnSpec;

class ReadProtocolTest : public ::testing::Test {
 protected:
  void Build(system::ClusterOptions opts, core::Value total = 400) {
    catalog_ = std::make_unique<core::Catalog>();
    item_ = catalog_->AddItem("pool", CountDomain::Instance(), total);
    cluster_ = std::make_unique<system::Cluster>(catalog_.get(), opts);
    cluster_->BootstrapEven();
  }

  TxnResult SubmitAndRun(SiteId at, const TxnSpec& spec,
                         SimTime run_us = 4'000'000) {
    TxnResult out;
    bool done = false;
    auto ok = cluster_->Submit(at, spec, [&](const TxnResult& r) {
      out = r;
      done = true;
    });
    EXPECT_TRUE(ok.ok());
    cluster_->RunFor(run_us);
    EXPECT_TRUE(done);
    return out;
  }

  // A first read attempt from a cold site is often refused by the Conc1 gate
  // (fragment stamps exceed the fresh reader timestamp); the CC NACKs bump
  // the reader's clock, so one or two client retries suffice -- the realistic
  // usage pattern the paper's conservative scheme implies.
  TxnResult ReadWithRetry(SiteId at, ItemId item, int attempts = 3,
                          SimTime run_us = 4'000'000) {
    TxnSpec read;
    read.ops = {TxnOp::ReadFull(item)};
    TxnResult r;
    for (int i = 0; i < attempts; ++i) {
      r = SubmitAndRun(at, read, run_us);
      if (r.committed()) break;
    }
    return r;
  }

  std::unique_ptr<core::Catalog> catalog_;
  ItemId item_;
  std::unique_ptr<system::Cluster> cluster_;
};

TEST_F(ReadProtocolTest, QuiescentReadIsExact) {
  Build({});
  TxnSpec read;
  read.ops = {TxnOp::ReadFull(item_)};
  TxnResult r = SubmitAndRun(SiteId(2), read);
  ASSERT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(r.read_values.at(item_), 400);
  // Everything is at the reader now; every other fragment is zero.
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(cluster_->site(SiteId(s)).LocalValue(item_),
              s == 2 ? 400 : 0);
  }
  // Minimum protocol cost: an initial gather round + two all-zero
  // confirmation rounds.
  EXPECT_GE(r.rounds, 2u);
}

// A full-read round completes only once every other site has replied, so the
// shortfall fan-out must not narrow a read: with fan-out 1 the first round
// used to reach one site, and the read idled until the retry timer re-asked
// the rest, at least one 40 ms base interval later. The first read drains
// the item to the reader; the second, on a quiescent item, needs no re-ask.
TEST_F(ReadProtocolTest, NarrowFanoutReadReachesEverySite) {
  system::ClusterOptions opts;
  opts.site.txn.request_fanout = 1;
  opts.site.txn.targeting = txn::TargetPolicy::kRandom;
  Build(opts);
  TxnSpec read;
  read.ops = {TxnOp::ReadFull(item_)};
  ASSERT_EQ(SubmitAndRun(SiteId(2), read).outcome, TxnOutcome::kCommitted);
  TxnResult r = SubmitAndRun(SiteId(2), read);
  ASSERT_EQ(r.outcome, TxnOutcome::kCommitted) << r.status.ToString();
  EXPECT_EQ(r.read_values.at(item_), 400);
  EXPECT_LT(r.latency_us, 40'000);
}

TEST_F(ReadProtocolTest, BackToBackReadsBothExact) {
  Build({});
  TxnSpec read;
  read.ops = {TxnOp::ReadFull(item_)};
  EXPECT_EQ(SubmitAndRun(SiteId(0), read).read_values.at(item_), 400);
  EXPECT_EQ(SubmitAndRun(SiteId(3), read).read_values.at(item_), 400);
  EXPECT_EQ(cluster_->site(SiteId(3)).LocalValue(item_), 400);
}

TEST_F(ReadProtocolTest, ReadAfterUpdatesSeesCommittedTotal) {
  Build({});
  TxnSpec d;
  d.ops = {TxnOp::Decrement(item_, 37)};
  ASSERT_EQ(SubmitAndRun(SiteId(1), d).outcome, TxnOutcome::kCommitted);
  TxnSpec i;
  i.ops = {TxnOp::Increment(item_, 12)};
  ASSERT_EQ(SubmitAndRun(SiteId(3), i).outcome, TxnOutcome::kCommitted);
  TxnResult r = ReadWithRetry(SiteId(0), item_);
  ASSERT_EQ(r.outcome, TxnOutcome::kCommitted) << r.status.ToString();
  EXPECT_EQ(r.read_values.at(item_), 375);
}

TEST_F(ReadProtocolTest, ReadDuringPartitionAborts) {
  Build({});
  ASSERT_TRUE(cluster_->Partition({{SiteId(0), SiteId(1)},
                                   {SiteId(2), SiteId(3)}})
                  .ok());
  TxnSpec read;
  read.ops = {TxnOp::ReadFull(item_)};
  TxnResult r = SubmitAndRun(SiteId(0), read);
  EXPECT_EQ(r.outcome, TxnOutcome::kAbortTimeout);
  // The aborted read's gathered value is redistribution, not loss.
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

TEST_F(ReadProtocolTest, ReadRacingInFlightVmStillExact) {
  // Start a transfer between two non-reader sites, then read while its Vm is
  // in flight. The sender refuses the read until its outbox drains, so the
  // reader can never terminate with the moving value uncounted.
  system::ClusterOptions opts;
  opts.link.base_delay_us = 10'000;  // slow links: wide race window
  opts.link.jitter_mean_us = 5'000;
  Build(opts);
  ASSERT_TRUE(cluster_->site(SiteId(1)).SendValue(SiteId(3), item_, 40).ok());
  TxnResult r = ReadWithRetry(SiteId(0), item_, 3, 8'000'000);
  ASSERT_EQ(r.outcome, TxnOutcome::kCommitted) << r.status.ToString();
  EXPECT_EQ(r.read_values.at(item_), 400);
}

// Property sweep: reads interleaved with concurrent committed updates under
// lossy links. The precise criterion is timestamp-order serializability
// (Conc1): every committed read value must equal the running total of the
// serial replay at the read's TS(t) position — verified by the checker,
// together with decrement applicability and the exact final totals.
class ReadRaceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReadRaceTest, ConcurrentReadsAreConsistentSnapshots) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("pool", CountDomain::Instance(), 500);
  system::ClusterOptions opts;
  opts.num_sites = 4;
  opts.seed = GetParam();
  opts.link.loss_prob = 0.1;
  opts.site.txn.timeout_us = 800'000;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();

  Rng rng(GetParam() * 13 + 1);
  verify::HistoryChecker checker(&catalog);
  int reads_committed = 0;

  // Phase 1: concurrent updates with interleaved (often starving) reads.
  for (int step = 0; step < 50; ++step) {
    SiteId at(static_cast<uint32_t>(rng.NextBounded(4)));
    double roll = rng.NextDouble();
    TxnSpec spec;
    if (roll < 0.15) {
      spec.ops = {TxnOp::ReadFull(item)};
    } else {
      core::Value amount = rng.NextInt(1, 10);
      spec.ops = {rng.NextBool(0.5) ? TxnOp::Decrement(item, amount)
                                    : TxnOp::Increment(item, amount)};
    }
    (void)cluster.Submit(at, spec, [&, spec](const TxnResult& r) {
      if (!r.committed()) return;
      if (!r.read_values.empty()) ++reads_committed;
      checker.RecordCommitAt(cluster.Now(), r.id, spec, r);
    });
    cluster.RunFor(rng.NextInt(10'000, 120'000));
  }
  cluster.RunFor(5'000'000);

  // Phase 2: the system quiesces; a read (with NACK-assisted retries) must
  // now succeed and join the checked history.
  for (int attempt = 0; attempt < 5 && reads_committed == 0; ++attempt) {
    TxnSpec read;
    read.ops = {TxnOp::ReadFull(item)};
    (void)cluster.Submit(SiteId(0), read, [&, read](const TxnResult& r) {
      if (!r.committed()) return;
      ++reads_committed;
      checker.RecordCommitAt(cluster.Now(), r.id, read, r);
    });
    cluster.RunFor(3'000'000);
  }
  EXPECT_GT(reads_committed, 0) << "no read survived even at quiescence";

  std::map<ItemId, core::Value> final_totals{{item, cluster.TotalOf(item)}};
  Status check = checker.Check(verify::HistoryChecker::Order::kTimestamp,
                               &final_totals);
  EXPECT_TRUE(check.ok()) << check.ToString();
  EXPECT_TRUE(cluster.AuditAll().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadRaceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace dvp
