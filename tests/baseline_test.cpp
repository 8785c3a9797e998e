// Correctness and blocking-behaviour tests for the traditional baselines:
// 2PC over replicated data (write-all and quorum), primary copy, and the
// single-site escrow method.
#include <gtest/gtest.h>

#include "baseline/escrow.h"
#include "baseline/primary_copy.h"
#include "baseline/twopc.h"
#include "dvpcore/catalog.h"

namespace dvp {
namespace {

using baseline::EscrowSite;
using baseline::PrimaryCopyCluster;
using baseline::PrimaryCopyOptions;
using baseline::ReplicaPolicy;
using baseline::TwoPcCluster;
using baseline::TwoPcOptions;
using core::CountDomain;
using txn::TxnOp;
using txn::TxnOutcome;
using txn::TxnResult;
using txn::TxnSpec;

TxnSpec Decr(ItemId item, core::Value m) {
  TxnSpec s;
  s.ops = {TxnOp::Decrement(item, m)};
  return s;
}

class TwoPcTest : public ::testing::Test {
 protected:
  TwoPcTest() {
    item_ = catalog_.AddItem("stock", CountDomain::Instance(), 100);
  }

  void MakeCluster(ReplicaPolicy policy) {
    TwoPcOptions opts;
    opts.num_sites = 4;
    opts.seed = 11;
    opts.policy = policy;
    cluster_ = std::make_unique<TwoPcCluster>(&catalog_, opts);
    cluster_->Bootstrap();
  }

  TxnResult SubmitAndRun(SiteId at, const TxnSpec& spec,
                         SimTime run_us = 3'000'000) {
    TxnResult out;
    bool done = false;
    auto ok = cluster_->Submit(at, spec, [&](const TxnResult& r) {
      out = r;
      done = true;
    });
    EXPECT_TRUE(ok.ok());
    cluster_->RunFor(run_us);
    EXPECT_TRUE(done) << "2PC coordinator never decided";
    return out;
  }

  core::Catalog catalog_;
  ItemId item_;
  std::unique_ptr<TwoPcCluster> cluster_;
};

TEST_F(TwoPcTest, WriteAllCommitUpdatesEveryReplica) {
  MakeCluster(ReplicaPolicy::kWriteAll);
  TxnResult r = SubmitAndRun(SiteId(0), Decr(item_, 10));
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted) << r.status.ToString();
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(cluster_->ReplicaValue(SiteId(s), item_), 90);
  }
}

TEST_F(TwoPcTest, InsufficientValueAborts) {
  MakeCluster(ReplicaPolicy::kWriteAll);
  TxnResult r = SubmitAndRun(SiteId(1), Decr(item_, 101));
  EXPECT_NE(r.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(cluster_->ReplicaValue(SiteId(0), item_), 100);
}

TEST_F(TwoPcTest, WriteAllIsUnavailableDuringPartition) {
  MakeCluster(ReplicaPolicy::kWriteAll);
  ASSERT_TRUE(
      cluster_->Partition({{SiteId(0), SiteId(1)}, {SiteId(2), SiteId(3)}})
          .ok());
  TxnResult r = SubmitAndRun(SiteId(0), Decr(item_, 1));
  EXPECT_NE(r.outcome, TxnOutcome::kCommitted)
      << "write-all must not commit in a partition";
}

TEST_F(TwoPcTest, QuorumCommitsInMajoritySideOnly) {
  MakeCluster(ReplicaPolicy::kQuorum);
  ASSERT_TRUE(
      cluster_->Partition({{SiteId(0), SiteId(1), SiteId(2)}, {SiteId(3)}})
          .ok());
  EXPECT_EQ(SubmitAndRun(SiteId(0), Decr(item_, 5)).outcome,
            TxnOutcome::kCommitted);
  EXPECT_NE(SubmitAndRun(SiteId(3), Decr(item_, 5)).outcome,
            TxnOutcome::kCommitted);
}

TEST_F(TwoPcTest, QuorumSerialUpdatesReadLatestVersion) {
  MakeCluster(ReplicaPolicy::kQuorum);
  ASSERT_EQ(SubmitAndRun(SiteId(0), Decr(item_, 10)).outcome,
            TxnOutcome::kCommitted);
  ASSERT_EQ(SubmitAndRun(SiteId(2), Decr(item_, 20)).outcome,
            TxnOutcome::kCommitted);
  TxnSpec read;
  read.ops = {TxnOp::ReadFull(item_)};
  TxnResult r = SubmitAndRun(SiteId(3), read);
  ASSERT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(r.read_values.at(item_), 70);
}

// A snapshot read is served like a whole-value read: the quorum's latest
// version is already a consistent cut, so the value comes back.
TEST_F(TwoPcTest, SnapshotReadReturnsTheQuorumValue) {
  MakeCluster(ReplicaPolicy::kQuorum);
  ASSERT_EQ(SubmitAndRun(SiteId(0), Decr(item_, 10)).outcome,
            TxnOutcome::kCommitted);
  TxnSpec read;
  read.ops = {TxnOp::ReadSnapshot(item_)};
  TxnResult r = SubmitAndRun(SiteId(3), read);
  ASSERT_EQ(r.outcome, TxnOutcome::kCommitted);
  ASSERT_EQ(r.read_values.count(item_), 1u) << "snapshot read returned nothing";
  EXPECT_EQ(r.read_values.at(item_), 90);
}

TEST_F(TwoPcTest, ParticipantBlocksWhenPartitionHitsUncertaintyWindow) {
  // Slow the links so we can partition mid-protocol deterministically.
  TwoPcOptions opts;
  opts.num_sites = 4;
  opts.seed = 13;
  opts.policy = ReplicaPolicy::kWriteAll;
  opts.link = net::LinkParams::Synchronous(10'000);  // 10ms per hop
  cluster_ = std::make_unique<TwoPcCluster>(&catalog_, opts);
  cluster_->Bootstrap();

  bool decided = false;
  ASSERT_TRUE(cluster_
                  ->Submit(SiteId(0), Decr(item_, 5),
                           [&](const TxnResult&) { decided = true; })
                  .ok());
  // Locks at t=10ms, grants back at t=20ms, prepares arrive t=30ms, votes
  // back t=40ms. Partition at t=35ms: participants have voted (prepared),
  // coordinator never hears all votes... actually votes are in flight; cut
  // the network right after prepare-receipt so votes are lost.
  cluster_->RunFor(32'000);
  ASSERT_TRUE(
      cluster_->Partition({{SiteId(0)}, {SiteId(1), SiteId(2), SiteId(3)}})
          .ok());
  cluster_->RunFor(500'000);

  // Participants 1..3 are prepared and cannot learn the decision: blocked,
  // holding locks, polling.
  EXPECT_GT(cluster_->BlockedParticipants(), 0u);
  CounterSet counters = cluster_->AggregateCounters();
  EXPECT_GT(counters.Get("2pc.blocked.poll"), 0u);

  // Healing lets the termination protocol finish and unblock everyone.
  cluster_->Heal();
  cluster_->RunFor(1'000'000);
  EXPECT_EQ(cluster_->BlockedParticipants(), 0u);
  EXPECT_TRUE(decided);
  EXPECT_GT(cluster_->blocked_time().count(), 0u);
}

TEST(PrimaryCopyTest, RoutesToPrimaryAndCommits) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("stock", CountDomain::Instance(), 50);
  PrimaryCopyOptions opts;
  opts.num_sites = 4;
  PrimaryCopyCluster cluster(&catalog, opts);
  cluster.Bootstrap();
  ASSERT_EQ(cluster.PrimaryOf(item), SiteId(0));

  TxnResult out;
  bool done = false;
  ASSERT_TRUE(cluster
                  .Submit(SiteId(2), Decr(item, 7),
                          [&](const TxnResult& r) {
                            out = r;
                            done = true;
                          })
                  .ok());
  cluster.RunFor(1'000'000);
  ASSERT_TRUE(done);
  EXPECT_EQ(out.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(cluster.PrimaryValue(item), 43);
}

// The primary holds the sole copy, so a snapshot read returns its value.
TEST(PrimaryCopyTest, SnapshotReadReturnsThePrimaryValue) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("stock", CountDomain::Instance(), 50);
  PrimaryCopyOptions opts;
  opts.num_sites = 4;
  PrimaryCopyCluster cluster(&catalog, opts);
  cluster.Bootstrap();

  TxnSpec read;
  read.ops = {TxnOp::ReadSnapshot(item)};
  TxnResult out;
  bool done = false;
  ASSERT_TRUE(cluster
                  .Submit(SiteId(2), read,
                          [&](const TxnResult& r) {
                            out = r;
                            done = true;
                          })
                  .ok());
  cluster.RunFor(1'000'000);
  ASSERT_TRUE(done);
  ASSERT_EQ(out.outcome, TxnOutcome::kCommitted);
  ASSERT_EQ(out.read_values.count(item), 1u)
      << "snapshot read returned nothing";
  EXPECT_EQ(out.read_values.at(item), 50);
}

TEST(PrimaryCopyTest, UnreachablePrimaryMeansUnavailable) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("stock", CountDomain::Instance(), 50);
  PrimaryCopyOptions opts;
  opts.num_sites = 4;
  opts.request_timeout_us = 100'000;
  PrimaryCopyCluster cluster(&catalog, opts);
  cluster.Bootstrap();
  ASSERT_TRUE(
      cluster.Partition({{SiteId(0), SiteId(1)}, {SiteId(2), SiteId(3)}})
          .ok());

  TxnResult out;
  bool done = false;
  ASSERT_TRUE(cluster
                  .Submit(SiteId(2), Decr(item, 1),
                          [&](const TxnResult& r) {
                            out = r;
                            done = true;
                          })
                  .ok());
  cluster.RunFor(1'000'000);
  ASSERT_TRUE(done);
  EXPECT_EQ(out.outcome, TxnOutcome::kAbortTimeout);
  // Same-side clients still work.
  bool done2 = false;
  ASSERT_TRUE(cluster
                  .Submit(SiteId(1), Decr(item, 1),
                          [&](const TxnResult& r) {
                            EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
                            done2 = true;
                          })
                  .ok());
  cluster.RunFor(1'000'000);
  EXPECT_TRUE(done2);
}

TEST(EscrowTest, EscrowAdmitsConcurrentDecrements) {
  sim::Kernel kernel;
  EscrowSite escrow(&kernel, EscrowSite::Mode::kEscrow, 100, 10'000);
  int ok = 0, bad = 0;
  for (int i = 0; i < 5; ++i) {
    escrow.Decrement(10, [&](Status s) { s.ok() ? ++ok : ++bad; });
  }
  kernel.Run();
  EXPECT_EQ(ok, 5);
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(escrow.committed_value(), 50);
}

TEST(EscrowTest, EscrowRefusesOverCommitment) {
  sim::Kernel kernel;
  EscrowSite escrow(&kernel, EscrowSite::Mode::kEscrow, 25, 10'000);
  int ok = 0, bad = 0;
  for (int i = 0; i < 5; ++i) {
    escrow.Decrement(10, [&](Status s) { s.ok() ? ++ok : ++bad; });
  }
  kernel.Run();
  EXPECT_EQ(ok, 2);  // 10 + 10 admitted; third would risk going below zero
  EXPECT_EQ(bad, 3);
  EXPECT_EQ(escrow.committed_value(), 5);
}

TEST(EscrowTest, ExclusiveLockSerialisesAndAborts) {
  sim::Kernel kernel;
  EscrowSite lock(&kernel, EscrowSite::Mode::kExclusive, 100, 10'000);
  int ok = 0, bad = 0;
  for (int i = 0; i < 5; ++i) {
    lock.Decrement(10, [&](Status s) { s.ok() ? ++ok : ++bad; });
  }
  kernel.Run();
  EXPECT_EQ(ok, 1) << "only the lock holder proceeds";
  EXPECT_EQ(bad, 4);
}

}  // namespace
}  // namespace dvp
