// Tests for the verification tooling itself: the conservation auditor and
// the serializability checker must not only pass correct histories — they
// must *fail* doctored ones (a checker that can't detect violations proves
// nothing).
#include <gtest/gtest.h>

#include "system/cluster.h"
#include "verify/conservation.h"
#include "verify/serializability.h"

namespace dvp {
namespace {

using core::CountDomain;
using txn::TxnOp;
using txn::TxnResult;
using txn::TxnSpec;
using verify::HistoryChecker;

// ---- Conservation auditor ------------------------------------------------------

class AuditorTest : public ::testing::Test {
 protected:
  AuditorTest() {
    item_ = catalog_.AddItem("pool", CountDomain::Instance(), 100);
    spare_ = catalog_.AddItem("spare", CountDomain::Instance(), 100);
    system::ClusterOptions opts;
    opts.num_sites = 2;
    opts.seed = 5;
    cluster_ = std::make_unique<system::Cluster>(&catalog_, opts);
    cluster_->BootstrapEven();
  }

  core::Catalog catalog_;
  ItemId item_, spare_;
  std::unique_ptr<system::Cluster> cluster_;
};

TEST_F(AuditorTest, BreakdownSeparatesFragmentsAndInFlight) {
  ASSERT_TRUE(cluster_->Partition({{SiteId(0)}, {SiteId(1)}}).ok());
  ASSERT_TRUE(cluster_->site(SiteId(0)).SendValue(SiteId(1), item_, 12).ok());
  auto b = cluster_->Audit(item_);
  EXPECT_EQ(b.site_total, 88);
  EXPECT_EQ(b.in_flight, 12);
  EXPECT_EQ(b.live_vms, 1u);
  EXPECT_EQ(b.committed_delta, 0);
  EXPECT_EQ(b.total(), 100);
}

TEST_F(AuditorTest, CommittedDeltaTracked) {
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 30)};
  bool done = false;
  ASSERT_TRUE(cluster_
                  ->Submit(SiteId(0), spec,
                           [&](const TxnResult& r) {
                             done = r.committed();
                           })
                  .ok());
  cluster_->RunFor(1'000'000);
  ASSERT_TRUE(done);
  auto b = cluster_->Audit(item_);
  EXPECT_EQ(b.committed_delta, -30);
  EXPECT_EQ(b.total(), 70);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

TEST_F(AuditorTest, DetectsDoctoredValueLoss) {
  // Forge a commit record that claims to have destroyed 10 units without a
  // matching delta — the auditor must notice.
  wal::TxnCommitRec forged;
  forged.txn = TxnId(999999);
  forged.ts_packed = Timestamp(500, SiteId(0)).packed();
  // Fragment drops by 10 but delta says 0: value vanished.
  forged.writes = {wal::FragmentWrite{item_, 40, 0, 0}};
  cluster_->storage(SiteId(0)).Append(wal::LogRecord(forged));
  Status audit = cluster_->AuditAll();
  EXPECT_FALSE(audit.ok());
  EXPECT_EQ(audit.code(), StatusCode::kInternal);
}

TEST_F(AuditorTest, DetectsDoctoredDuplication) {
  // Forge an acceptance for a Vm that was never created: value from nowhere.
  wal::VmAcceptRec forged;
  forged.vm = VmId(123456789);
  forged.src = SiteId(0);
  forged.item = item_;
  forged.amount = 25;
  forged.write = wal::FragmentWrite{item_, 75, 25, 0};
  cluster_->storage(SiteId(1)).Append(wal::LogRecord(forged));
  EXPECT_FALSE(cluster_->AuditAll().ok());
}

TEST_F(AuditorTest, VolatileViewRejectsAnUnforcedForgery) {
  // A Vm-creation record that no store applied, still in the unforced tail:
  // the durable view cannot see it yet, the volatile view must.
  wal::VmCreateRec forged;
  forged.vm = VmId(987654321);
  forged.dst = SiteId(1);
  forged.item = item_;
  forged.amount = 5;
  forged.write = wal::FragmentWrite{item_, 50, 0, 0};
  cluster_->storage(SiteId(0)).AppendBuffered(wal::LogRecord(forged));
  EXPECT_TRUE(cluster_->AuditAll().ok());
  Status s = cluster_->AuditAllVolatile();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("volatile conservation violated for item pool"),
            std::string::npos)
      << s.message();
}

// No site has touched `spare_`, so no store or image holds it: every site
// reads it as its boot share. A forged write on it must still unbalance it.
TEST_F(AuditorTest, DetectsAForgedWriteOnAnItemNoSiteTouched) {
  ASSERT_TRUE(cluster_->AuditAll().ok());
  wal::TxnCommitRec forged;
  forged.txn = TxnId(424242);
  forged.ts_packed = Timestamp(600, SiteId(1)).packed();
  // The share is 50; the forged record claims 57 with no delta.
  forged.writes = {wal::FragmentWrite{spare_, 57, 0, 0}};
  cluster_->storage(SiteId(1)).Append(wal::LogRecord(forged));
  Status s = cluster_->AuditAll();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("conservation violated for item spare: "
                             "fragments=107"),
            std::string::npos)
      << s.message();
}

TEST_F(AuditorTest, FirstViolationIsReportedInCatalogOrder) {
  // Value from nowhere for both items, the later catalog item logged first:
  // the report follows catalog order, not log order.
  uint64_t next_vm = 555000;
  for (ItemId item : {spare_, item_}) {
    wal::VmAcceptRec forged;
    forged.vm = VmId(next_vm++);
    forged.src = SiteId(0);
    forged.item = item;
    forged.amount = 7;
    forged.write = wal::FragmentWrite{item, 57, 7, 0};
    cluster_->storage(SiteId(1)).Append(wal::LogRecord(forged));
  }
  Status s = cluster_->AuditAll();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("conservation violated for item pool:"),
            std::string::npos)
      << s.message();
}

// ---- Cross-item conservation oracles -------------------------------------------
//
// The transaction-scoped invariants behind E13: every atomic-set commit
// record zero-sum (CheckAtomicSetCommits), and the group-level sum balancing
// with atomic records excluded (AuditGroup). Each oracle must also FAIL a
// doctored log — an oracle that can't reject forgeries proves nothing.

class GroupAuditTest : public ::testing::Test {
 protected:
  GroupAuditTest() {
    a_ = catalog_.AddItem("a", CountDomain::Instance(), 100);
    b_ = catalog_.AddItem("b", CountDomain::Instance(), 100);
    system::ClusterOptions opts;
    opts.num_sites = 2;
    opts.seed = 5;
    cluster_ = std::make_unique<system::Cluster>(&catalog_, opts);
    cluster_->BootstrapEven();
  }

  wal::TxnCommitRec ForgedAtomic(core::Value delta_a, core::Value delta_b) {
    // Post values consistent with site 0's even fragments (50/50), so the
    // per-item audit — which counts atomic legs individually — balances and
    // only the transaction-scoped oracles can notice.
    wal::TxnCommitRec rec;
    rec.txn = TxnId(424242);
    rec.ts_packed = Timestamp(700, SiteId(0)).packed();
    rec.atomic_set = true;
    rec.writes = {wal::FragmentWrite{a_, 50 + delta_a, delta_a, 0},
                  wal::FragmentWrite{b_, 50 + delta_b, delta_b, 0}};
    return rec;
  }

  core::Catalog catalog_;
  ItemId a_, b_;
  std::unique_ptr<system::Cluster> cluster_;
};

TEST_F(GroupAuditTest, CleanClusterPassesBothOracles) {
  auto storages = cluster_->Storages();
  EXPECT_TRUE(verify::CheckAtomicSetCommits(storages).ok());
  std::vector<ItemId> group{a_, b_};
  EXPECT_TRUE(verify::AuditGroup(storages, catalog_, group).ok());
}

TEST_F(GroupAuditTest, ZeroSumAtomicRecordPasses) {
  cluster_->storage(SiteId(0)).Append(wal::LogRecord(ForgedAtomic(-10, 10)));
  auto storages = cluster_->Storages();
  EXPECT_TRUE(verify::CheckAtomicSetCommits(storages).ok());
  std::vector<ItemId> group{a_, b_};
  EXPECT_TRUE(verify::AuditGroup(storages, catalog_, group).ok());
}

TEST_F(GroupAuditTest, NonZeroSumAtomicRecordIsRejected) {
  cluster_->storage(SiteId(0)).Append(wal::LogRecord(ForgedAtomic(-10, 25)));
  Status s = verify::CheckAtomicSetCommits(cluster_->Storages());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("not zero-sum"), std::string::npos);
}

TEST_F(GroupAuditTest, SingleLegAtomicRecordIsRejected) {
  wal::TxnCommitRec rec = ForgedAtomic(-10, 25);
  rec.writes.resize(1);  // an "atomic set" with one leg is a forgery
  cluster_->storage(SiteId(0)).Append(wal::LogRecord(rec));
  Status s = verify::CheckAtomicSetCommits(cluster_->Storages());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("need >= 2"), std::string::npos);
}

TEST_F(GroupAuditTest, GroupAuditCatchesMintingAtomicRecord) {
  // The minted 15 units hide from every per-item audit (each leg's post
  // value matches its delta) — only the group sum with atomic records
  // excluded exposes them.
  cluster_->storage(SiteId(0)).Append(wal::LogRecord(ForgedAtomic(-10, 25)));
  std::vector<ItemId> group{a_, b_};
  Status s = verify::AuditGroup(cluster_->Storages(), catalog_, group);
  EXPECT_FALSE(s.ok());
}

// ---- HistoryChecker -------------------------------------------------------------

class CheckerTest : public ::testing::Test {
 protected:
  CheckerTest() : item_(catalog_.AddItem("x", CountDomain::Instance(), 100)) {}

  TxnResult Committed(std::map<ItemId, core::Value> reads = {}) {
    TxnResult r;
    r.outcome = txn::TxnOutcome::kCommitted;
    r.read_values = std::move(reads);
    return r;
  }

  TxnSpec Dec(core::Value m) {
    TxnSpec s;
    s.ops = {TxnOp::Decrement(item_, m)};
    return s;
  }
  TxnSpec Inc(core::Value m) {
    TxnSpec s;
    s.ops = {TxnOp::Increment(item_, m)};
    return s;
  }
  TxnSpec Read() {
    TxnSpec s;
    s.ops = {TxnOp::ReadFull(item_)};
    return s;
  }

  TxnId Ts(uint64_t counter) {
    return TxnId(Timestamp(counter, SiteId(0)).packed());
  }

  core::Catalog catalog_;
  ItemId item_;
};

TEST_F(CheckerTest, AcceptsValidTimestampHistory) {
  HistoryChecker checker(&catalog_);
  checker.RecordCommit(Ts(1), Dec(40), Committed());
  checker.RecordCommit(Ts(2), Inc(10), Committed());
  checker.RecordCommit(Ts(3), Read(), Committed({{item_, 70}}));
  std::map<ItemId, core::Value> finals{{item_, 70}};
  EXPECT_TRUE(
      checker.Check(HistoryChecker::Order::kTimestamp, &finals).ok());
}

TEST_F(CheckerTest, RejectsOverdraft) {
  HistoryChecker checker(&catalog_);
  checker.RecordCommit(Ts(1), Dec(80), Committed());
  checker.RecordCommit(Ts(2), Dec(80), Committed());  // impossible
  Status s = checker.Check(HistoryChecker::Order::kTimestamp, nullptr);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("not applicable"), std::string::npos);
}

TEST_F(CheckerTest, RejectsWrongReadValue) {
  HistoryChecker checker(&catalog_);
  checker.RecordCommit(Ts(1), Dec(40), Committed());
  checker.RecordCommit(Ts(2), Read(), Committed({{item_, 99}}));  // lies
  EXPECT_FALSE(
      checker.Check(HistoryChecker::Order::kTimestamp, nullptr).ok());
}

TEST_F(CheckerTest, RejectsWrongFinalTotals) {
  HistoryChecker checker(&catalog_);
  checker.RecordCommit(Ts(1), Dec(40), Committed());
  std::map<ItemId, core::Value> finals{{item_, 99}};
  EXPECT_FALSE(
      checker.Check(HistoryChecker::Order::kTimestamp, &finals).ok());
}

TEST_F(CheckerTest, TimestampOrderIsNotRecordOrder) {
  HistoryChecker checker(&catalog_);
  // Recorded out of timestamp order; replay must sort by TS(t).
  checker.RecordCommit(Ts(2), Dec(100), Committed());
  checker.RecordCommit(Ts(1), Inc(50), Committed());
  std::map<ItemId, core::Value> finals{{item_, 50}};
  EXPECT_TRUE(
      checker.Check(HistoryChecker::Order::kTimestamp, &finals).ok());
}

TEST_F(CheckerTest, WindowedReadAcceptsAnyConsistentPlacement) {
  HistoryChecker checker(&catalog_);
  TxnResult dec = Committed();
  // Read starts at t=0, commits at t=100; a decrement of 30 commits at t=50.
  // Either 100 or 70 is a consistent read value.
  TxnResult read70 = Committed({{item_, 70}});
  read70.latency_us = 100;
  checker.RecordCommitAt(50, Ts(2), Dec(30), dec);
  checker.RecordCommitAt(100, Ts(1), Read(), read70);
  EXPECT_TRUE(
      checker.Check(HistoryChecker::Order::kCommitOrder, nullptr).ok());

  HistoryChecker checker2(&catalog_);
  TxnResult read100 = Committed({{item_, 100}});
  read100.latency_us = 100;
  checker2.RecordCommitAt(50, Ts(2), Dec(30), dec);
  checker2.RecordCommitAt(100, Ts(1), Read(), read100);
  EXPECT_TRUE(
      checker2.Check(HistoryChecker::Order::kCommitOrder, nullptr).ok());
}

TEST_F(CheckerTest, WindowedReadRejectsImpossibleValue) {
  HistoryChecker checker(&catalog_);
  TxnResult read = Committed({{item_, 85}});  // 100-30 or 100, never 85
  read.latency_us = 100;
  checker.RecordCommitAt(50, Ts(2), Dec(30), Committed());
  checker.RecordCommitAt(100, Ts(1), Read(), read);
  Status s = checker.Check(HistoryChecker::Order::kCommitOrder, nullptr);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unreachable"), std::string::npos);
}

TEST_F(CheckerTest, WindowedReadMustIncludePriorCommits) {
  HistoryChecker checker(&catalog_);
  // Decrement committed BEFORE the read started: it must be visible.
  TxnResult read = Committed({{item_, 100}});  // claims not to see it
  read.latency_us = 10;  // started at 90
  checker.RecordCommitAt(50, Ts(2), Dec(30), Committed());
  checker.RecordCommitAt(100, Ts(1), Read(), read);
  EXPECT_FALSE(
      checker.Check(HistoryChecker::Order::kCommitOrder, nullptr).ok());
}

// ---- Multi-item histories -------------------------------------------------------

class MultiItemCheckerTest : public ::testing::Test {
 protected:
  MultiItemCheckerTest()
      : a_(catalog_.AddItem("a", CountDomain::Instance(), 100)),
        b_(catalog_.AddItem("b", CountDomain::Instance(), 100)) {}

  TxnResult Committed(std::map<ItemId, core::Value> reads = {}) {
    TxnResult r;
    r.outcome = txn::TxnOutcome::kCommitted;
    r.read_values = std::move(reads);
    return r;
  }

  TxnSpec ReadBoth() {
    TxnSpec s;
    s.ops = {TxnOp::ReadFull(a_), TxnOp::ReadFull(b_)};
    return s;
  }

  TxnId Ts(uint64_t counter) {
    return TxnId(Timestamp(counter, SiteId(0)).packed());
  }

  core::Catalog catalog_;
  ItemId a_, b_;
};

TEST_F(MultiItemCheckerTest, RejectsCommittedAtomicSetThatIsNotZeroSum) {
  // The replay enforces the atomic-set contract itself: a committed
  // transfer whose legs do not cancel is a history no correct execution
  // could have produced, whatever the totals say.
  HistoryChecker checker(&catalog_);
  TxnSpec crooked;
  crooked.ops = {TxnOp::Decrement(a_, 10), TxnOp::Increment(b_, 5)};
  crooked.atomic_set = true;
  checker.RecordCommit(Ts(1), crooked, Committed());
  Status s = checker.Check(HistoryChecker::Order::kTimestamp, nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("not zero-sum"), std::string::npos);
}

TEST_F(MultiItemCheckerTest, AcceptsTransferThenConsistentJointRead) {
  HistoryChecker checker(&catalog_);
  checker.RecordCommitAt(50, Ts(2), txn::MakeTransfer(a_, b_, 30),
                         Committed());
  // Either both legs visible (70, 130) or neither (100, 100) is consistent.
  for (auto [va, vb] : {std::pair<core::Value, core::Value>{70, 130},
                        std::pair<core::Value, core::Value>{100, 100}}) {
    TxnResult read = Committed({{a_, va}, {b_, vb}});
    read.latency_us = 100;
    HistoryChecker c2(&catalog_);
    c2.RecordCommitAt(50, Ts(2), txn::MakeTransfer(a_, b_, 30), Committed());
    c2.RecordCommitAt(100, Ts(1), ReadBoth(), read);
    EXPECT_TRUE(c2.Check(HistoryChecker::Order::kCommitOrder, nullptr).ok())
        << "read (" << va << ", " << vb << ") should be consistent";
  }
}

// Pinned regression for the missed cross-item conflict edge: validating each
// read item's window subset-sum INDEPENDENTLY accepts a reader that saw only
// one leg of an atomic transfer — per item, {transfer} explains a=70 and {}
// explains b=100, so a per-item checker passes. The window choice must be
// per whole transaction (one joint subset), and no joint subset yields
// (70, 100). This history must FAIL; a checker that passes it would have
// missed the torn-read anomaly entirely.
TEST_F(MultiItemCheckerTest, RejectsJointReadThatTearsAnAtomicTransfer) {
  HistoryChecker checker(&catalog_);
  TxnResult torn = Committed({{a_, 70}, {b_, 100}});
  torn.latency_us = 100;
  checker.RecordCommitAt(50, Ts(2), txn::MakeTransfer(a_, b_, 30),
                         Committed());
  checker.RecordCommitAt(100, Ts(1), ReadBoth(), torn);
  Status s = checker.Check(HistoryChecker::Order::kCommitOrder, nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("jointly unreachable"), std::string::npos);
}

}  // namespace
}  // namespace dvp
