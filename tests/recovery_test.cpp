// Recovery tests (§7): idempotent redo, checkpointing, independent restart,
// and the brutal one — a crash injected immediately after EVERY log append
// position in a fixed scenario, each followed by recovery and a full
// conservation + state audit.
#include <gtest/gtest.h>

#include "recovery/recovery.h"
#include "system/cluster.h"

namespace dvp {
namespace {

using core::CountDomain;
using txn::TxnOp;
using txn::TxnOutcome;
using txn::TxnResult;
using txn::TxnSpec;

class RecoveryTest : public ::testing::Test {
 protected:
  void Build(SimTime checkpoint_interval = 0) {
    catalog_ = std::make_unique<core::Catalog>();
    item_ = catalog_->AddItem("pool", CountDomain::Instance(), 400);
    system::ClusterOptions opts;
    opts.num_sites = 4;
    opts.seed = 55;
    opts.site.checkpoint_interval_us = checkpoint_interval;
    cluster_ = std::make_unique<system::Cluster>(catalog_.get(), opts);
    cluster_->BootstrapEven();
  }

  TxnResult SubmitAndRun(SiteId at, const TxnSpec& spec) {
    TxnResult out;
    auto ok = cluster_->Submit(at, spec,
                               [&out](const TxnResult& r) { out = r; });
    EXPECT_TRUE(ok.ok());
    cluster_->RunFor(2'000'000);
    return out;
  }

  std::unique_ptr<core::Catalog> catalog_;
  ItemId item_;
  std::unique_ptr<system::Cluster> cluster_;
};

TEST_F(RecoveryTest, CommittedStateSurvivesCrash) {
  Build();
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 30)};
  ASSERT_EQ(SubmitAndRun(SiteId(0), spec).outcome, TxnOutcome::kCommitted);
  cluster_->CrashSite(SiteId(0));
  cluster_->RecoverSite(SiteId(0));
  cluster_->RunFor(1'000'000);
  EXPECT_EQ(cluster_->site(SiteId(0)).LocalValue(item_), 70);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

TEST_F(RecoveryTest, RecoveryReportCountsWork) {
  Build();
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 1)};
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(SubmitAndRun(SiteId(0), spec).outcome, TxnOutcome::kCommitted);
  }
  cluster_->CrashSite(SiteId(0));
  recovery::RecoveryReport report;
  bool done = false;
  cluster_->site(SiteId(0)).Recover([&](const recovery::RecoveryReport& r) {
    report = r;
    done = true;
  });
  cluster_->RunFor(1'000'000);
  ASSERT_TRUE(done);
  EXPECT_EQ(report.committed_txns, 5u);
  EXPECT_EQ(report.redo_writes, 5u);
  EXPECT_EQ(report.remote_messages_needed, 0u);
  EXPECT_GT(report.clock_counter, 0u);
}

TEST_F(RecoveryTest, CheckpointShortensRedo) {
  Build();
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 1)};
  for (int i = 0; i < 5; ++i) SubmitAndRun(SiteId(0), spec);
  cluster_->site(SiteId(0)).Checkpoint();
  for (int i = 0; i < 2; ++i) SubmitAndRun(SiteId(0), spec);

  cluster_->CrashSite(SiteId(0));
  recovery::RecoveryReport report;
  cluster_->site(SiteId(0)).Recover(
      [&](const recovery::RecoveryReport& r) { report = r; });
  cluster_->RunFor(1'000'000);
  // Only the two post-checkpoint transactions replay (2 commits + 2 applied
  // markers = 4 records).
  EXPECT_EQ(report.committed_txns, 2u);
  EXPECT_EQ(cluster_->site(SiteId(0)).LocalValue(item_), 93);
}

TEST_F(RecoveryTest, RecoveryDurationScalesWithSuffix) {
  Build();
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 1)};
  for (int i = 0; i < 10; ++i) SubmitAndRun(SiteId(0), spec);
  SimTime long_redo = recovery::RecoveryDuration(
      cluster_->storage(SiteId(0)), 5);
  cluster_->site(SiteId(0)).Checkpoint();
  SimTime short_redo = recovery::RecoveryDuration(
      cluster_->storage(SiteId(0)), 5);
  EXPECT_GT(long_redo, short_redo);
  EXPECT_EQ(short_redo, 0);
}

TEST_F(RecoveryTest, AllSitesFailOneRecoversAndWorksAlone) {
  Build();
  for (uint32_t s = 0; s < 4; ++s) cluster_->CrashSite(SiteId(s));
  cluster_->RecoverSite(SiteId(2));
  cluster_->RunFor(1'000'000);
  ASSERT_TRUE(cluster_->site(SiteId(2)).IsUp());
  // "even if all sites fail and subsequently one site recovers ... it can
  // begin doing some useful work" (§7).
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 10)};
  EXPECT_EQ(SubmitAndRun(SiteId(2), spec).outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(cluster_->site(SiteId(2)).LocalValue(item_), 90);
}

TEST_F(RecoveryTest, PendingTxnAtCrashReportsSiteFailure) {
  Build();
  ASSERT_TRUE(
      cluster_->Partition({{SiteId(0)}, {SiteId(1), SiteId(2), SiteId(3)}})
          .ok());
  TxnSpec need;
  need.ops = {TxnOp::Decrement(item_, 150)};  // must gather; will hang
  TxnResult out;
  bool done = false;
  ASSERT_TRUE(cluster_
                  ->Submit(SiteId(0), need,
                           [&](const TxnResult& r) {
                             out = r;
                             done = true;
                           })
                  .ok());
  cluster_->RunFor(10'000);  // mid-gather
  cluster_->CrashSite(SiteId(0));
  ASSERT_TRUE(done);
  EXPECT_EQ(out.outcome, TxnOutcome::kAbortSiteFailure);
}

TEST_F(RecoveryTest, DoubleCrashDuringOperationIsSafe) {
  Build();
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 7)};
  ASSERT_EQ(SubmitAndRun(SiteId(1), spec).outcome, TxnOutcome::kCommitted);
  for (int round = 0; round < 3; ++round) {
    cluster_->CrashSite(SiteId(1));
    cluster_->RecoverSite(SiteId(1));
    cluster_->RunFor(1'000'000);
    EXPECT_EQ(cluster_->site(SiteId(1)).LocalValue(item_), 93);
  }
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

// ---- Crash at every log-append point -----------------------------------------
//
// The scenario: four rounds in which site 0 ships value to another site (Vm
// create/accept/ack records) and commits two local transactions, while site
// 2 gathers from everyone, site 0 included. A crash is injected right after
// the k-th log append at site 0, recovery runs, and afterwards: conservation
// must hold and the system must still make progress. Without a crash the
// scenario makes 16 appends at site 0; k sweeps all of them, and a k that
// crashes nothing fails rather than re-running the no-fault path.
// ---- Boot shares across a crash ---------------------------------------------
//
// A rule-booted site holds no fragment for an item it never touched: the item
// reads as its boot share, and recovery must rebuild that share from the
// stable boot rule — not the identity — while materialising nothing for it.

TEST(BootShareRecoveryTest, UntouchedItemsRecoverTheirBootShare) {
  core::Catalog catalog;
  ItemId hot = catalog.AddItem("hot", CountDomain::Instance(), 100);
  ItemId odd = catalog.AddItem("odd", CountDomain::Instance(), 31);
  ItemId tiny = catalog.AddItem("tiny", CountDomain::Instance(), 7);
  system::ClusterOptions opts;
  opts.num_sites = 3;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(hot, 4)};
  bool committed = false;
  ASSERT_TRUE(cluster
                  .Submit(SiteId(0), spec,
                          [&](const TxnResult& r) { committed = r.committed(); })
                  .ok());
  cluster.RunFor(1'000'000);
  ASSERT_TRUE(committed);

  cluster.CrashSite(SiteId(0));
  EXPECT_EQ(cluster.site(SiteId(0)).DurableValue(odd), 11);
  cluster.RecoverSite(SiteId(0));
  cluster.RunFor(1'000'000);
  site::Site& site = cluster.site(SiteId(0));
  ASSERT_TRUE(site.IsUp());
  EXPECT_EQ(site.LocalValue(hot), 30);  // 34 - 4
  EXPECT_EQ(site.LocalValue(odd), 11);
  EXPECT_EQ(site.LocalValue(tiny), 3);
  EXPECT_EQ(site.store()->resident_count(), 1u);  // only the touched item
  Status audit = cluster.AuditAll();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

// Conc1 stamps a fragment when it locks it (SetTs). A transaction that only
// locked the item — here a decrement that times out, its gather cut off by a
// partition — materialises the fragment at its boot share, so a checkpoint
// images the share and the crash keeps it.
TEST(BootShareRecoveryTest, LockOnlyFragmentKeepsItsShareAcrossACrash) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("pool", CountDomain::Instance(), 100);
  system::ClusterOptions opts;
  opts.num_sites = 2;
  opts.site.txn.timeout_us = 50'000;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();
  ASSERT_TRUE(cluster.Partition({{SiteId(0)}, {SiteId(1)}}).ok());
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item, 80)};
  TxnResult result;
  ASSERT_TRUE(cluster
                  .Submit(SiteId(0), spec,
                          [&](const TxnResult& r) { result = r; })
                  .ok());
  cluster.RunFor(500'000);
  ASSERT_FALSE(result.committed());

  site::Site& site = cluster.site(SiteId(0));
  ASSERT_EQ(site.store()->resident_count(), 1u);  // materialised by the lock
  EXPECT_NE(site.store()->ts(item), Timestamp::Zero());
  EXPECT_EQ(site.LocalValue(item), 50);
  site.Checkpoint();
  EXPECT_EQ(cluster.storage(SiteId(0)).image().at(item).value, 50);
  cluster.CrashSite(SiteId(0));
  cluster.RecoverSite(SiteId(0));
  cluster.RunFor(1'000'000);
  EXPECT_EQ(site.LocalValue(item), 50);
  Status audit = cluster.AuditAll();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

class CrashPointTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashPointTest, RecoveryIsCorrectFromEveryCrashPoint) {
  const int crash_after = GetParam();

  core::Catalog catalog;
  ItemId item = catalog.AddItem("pool", CountDomain::Instance(), 400);
  system::ClusterOptions opts;
  opts.num_sites = 4;
  opts.seed = 99;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();

  // Arm the crash: after the k-th append at site 0, schedule an immediate
  // crash (same virtual instant, next event).
  int appends = 0;
  bool crashed = false;
  cluster.storage(SiteId(0)).set_post_append_hook(
      [&](Lsn, const wal::LogRecord&) {
        if (++appends == crash_after && !crashed) {
          crashed = true;
          cluster.kernel().Schedule(0, [&cluster]() {
            cluster.CrashSite(SiteId(0));
          });
        }
      });

  // The scenario (all fire-and-forget; outcomes depend on the crash point).
  txn::TxnSpec d5;
  d5.ops = {txn::TxnOp::Decrement(item, 5)};
  txn::TxnSpec i3;
  i3.ops = {txn::TxnOp::Increment(item, 3)};
  for (uint32_t round = 0; round < 4; ++round) {
    (void)cluster.site(SiteId(0)).SendValue(SiteId(1 + round % 3), item, 10);
    (void)cluster.Submit(SiteId(0), d5, nullptr);
    (void)cluster.Submit(SiteId(0), i3, nullptr);
  }
  txn::TxnSpec big;  // site 2 will request from everyone, incl. site 0
  big.ops = {txn::TxnOp::Decrement(item, 150)};
  (void)cluster.Submit(SiteId(2), big, nullptr);
  cluster.RunFor(3'000'000);

  ASSERT_TRUE(crashed) << "crash point " << crash_after
                       << " is past the scenario's " << appends << " appends";
  ASSERT_TRUE(cluster.AuditAll().ok()) << "crash point " << crash_after;

  // ...and after recovery the site serves local work and the value total is
  // intact.
  if (crashed) {
    cluster.RecoverSite(SiteId(0));
    cluster.RunFor(2'000'000);
    ASSERT_TRUE(cluster.site(SiteId(0)).IsUp());
  }
  txn::TxnResult out;
  txn::TxnSpec probe;
  probe.ops = {txn::TxnOp::Increment(item, 1)};
  ASSERT_TRUE(cluster
                  .Submit(SiteId(0), probe,
                          [&out](const txn::TxnResult& r) { out = r; })
                  .ok());
  cluster.RunFor(2'000'000);
  EXPECT_EQ(out.outcome, txn::TxnOutcome::kCommitted)
      << "crash point " << crash_after;
  EXPECT_TRUE(cluster.AuditAll().ok()) << "crash point " << crash_after;
}

INSTANTIATE_TEST_SUITE_P(EveryAppend, CrashPointTest,
                         ::testing::Range(1, 17));

}  // namespace
}  // namespace dvp
