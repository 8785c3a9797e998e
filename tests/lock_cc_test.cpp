// Unit tests for the lock manager (try-lock-only, deadlock-free by
// construction) and the Conc1/Conc2 policy object, plus the multi-item
// lock-ordering invariant and its cluster-level deadlock regression.
#include <gtest/gtest.h>

#include "cc/lock_manager.h"
#include "cc/policy.h"
#include "system/cluster.h"

namespace dvp::cc {
namespace {

std::vector<ItemId> Items(std::initializer_list<uint32_t> ids) {
  std::vector<ItemId> out;
  for (uint32_t id : ids) out.push_back(ItemId(id));
  return out;
}

TEST(LockManagerTest, TryLockAllGrantsWhenFree) {
  LockManager locks;
  EXPECT_TRUE(locks.TryLockAll(Items({1, 2, 3}), TxnId(10)));
  EXPECT_EQ(locks.num_locked(), 3u);
  EXPECT_TRUE(locks.HeldBy(ItemId(2), TxnId(10)));
  EXPECT_EQ(locks.OwnerOf(ItemId(3)), TxnId(10));
}

TEST(LockManagerTest, TryLockAllIsAllOrNothing) {
  LockManager locks;
  ASSERT_TRUE(locks.TryLock(ItemId(2), TxnId(1)));
  EXPECT_FALSE(locks.TryLockAll(Items({1, 2, 3}), TxnId(9)));
  // Nothing acquired: items 1 and 3 stay free.
  EXPECT_FALSE(locks.IsLocked(ItemId(1)));
  EXPECT_FALSE(locks.IsLocked(ItemId(3)));
  EXPECT_EQ(locks.OwnerOf(ItemId(2)), TxnId(1));
}

TEST(LockManagerTest, OwnerMayRelock) {
  LockManager locks;
  ASSERT_TRUE(locks.TryLock(ItemId(1), TxnId(5)));
  EXPECT_TRUE(locks.TryLock(ItemId(1), TxnId(5)));
  EXPECT_TRUE(locks.TryLockAll(Items({1, 2}), TxnId(5)));
}

TEST(LockManagerTest, DuplicateItemsInRequestAreFine) {
  LockManager locks;
  EXPECT_TRUE(locks.TryLockAll(Items({4, 4, 4}), TxnId(2)));
  EXPECT_EQ(locks.num_locked(), 1u);
}

TEST(LockManagerTest, UnlockOnlyByOwner) {
  LockManager locks;
  ASSERT_TRUE(locks.TryLock(ItemId(1), TxnId(5)));
  locks.Unlock(ItemId(1), TxnId(6));  // not the owner: no-op
  EXPECT_TRUE(locks.IsLocked(ItemId(1)));
  locks.Unlock(ItemId(1), TxnId(5));
  EXPECT_FALSE(locks.IsLocked(ItemId(1)));
}

TEST(LockManagerTest, ReleaseAllFreesOnlyOwners) {
  LockManager locks;
  ASSERT_TRUE(locks.TryLockAll(Items({1, 2}), TxnId(5)));
  ASSERT_TRUE(locks.TryLock(ItemId(3), TxnId(6)));
  locks.ReleaseAll(TxnId(5));
  EXPECT_FALSE(locks.IsLocked(ItemId(1)));
  EXPECT_FALSE(locks.IsLocked(ItemId(2)));
  EXPECT_TRUE(locks.IsLocked(ItemId(3)));
}

TEST(LockManagerTest, ClearDropsEverything) {
  LockManager locks;
  ASSERT_TRUE(locks.TryLockAll(Items({1, 2, 3}), TxnId(5)));
  locks.Clear();
  EXPECT_EQ(locks.num_locked(), 0u);
  EXPECT_EQ(locks.OwnerOf(ItemId(1)), TxnId::Invalid());
}

TEST(LockManagerTest, OwnerOfFreeItemIsInvalid) {
  LockManager locks;
  EXPECT_FALSE(locks.OwnerOf(ItemId(42)).valid());
  EXPECT_FALSE(locks.HeldBy(ItemId(42), TxnId(1)));
}

// ---- Multi-item lock ordering -------------------------------------------------
//
// TryLockAllOrdered is the atomic-set acquisition path. Its contract: walk
// the requested set in global ascending item-id order with duplicates
// collapsed — the one total order every site agrees on, so no two multi-ops
// can ever wait on each other in a cycle — and acquire all or nothing.

TEST(LockOrderTest, AcquisitionWalksAscendingItemIdsDeduped) {
  LockManager locks;
  ASSERT_TRUE(locks.TryLockAllOrdered(Items({7, 2, 9, 2, 4}), TxnId(3)));
  std::vector<ItemId> expect = Items({2, 4, 7, 9});
  EXPECT_EQ(locks.last_acquisition_order(), expect);
  EXPECT_EQ(locks.num_locked(), 4u);
  for (ItemId item : expect) EXPECT_TRUE(locks.HeldBy(item, TxnId(3)));
}

TEST(LockOrderTest, OrderIsCanonicalRegardlessOfRequestOrder) {
  // The same set presented in any order must walk identically — this is the
  // invariant that makes the order global across sites (each site sorts
  // locally; no coordination needed).
  std::vector<ItemId> expect = Items({1, 5, 8});
  for (auto req : {Items({8, 5, 1}), Items({5, 8, 1}), Items({1, 8, 5})}) {
    LockManager locks;
    ASSERT_TRUE(locks.TryLockAllOrdered(req, TxnId(2)));
    EXPECT_EQ(locks.last_acquisition_order(), expect);
  }
}

TEST(LockOrderTest, MidSequenceConflictAcquiresNothing) {
  LockManager locks;
  ASSERT_TRUE(locks.TryLock(ItemId(4), TxnId(1)));
  EXPECT_FALSE(locks.TryLockAllOrdered(Items({7, 2, 9, 4}), TxnId(9)));
  // All-or-nothing: the items before AND after the conflict stay free, and
  // no acquisition order was recorded because nothing was acquired.
  EXPECT_FALSE(locks.IsLocked(ItemId(2)));
  EXPECT_FALSE(locks.IsLocked(ItemId(7)));
  EXPECT_FALSE(locks.IsLocked(ItemId(9)));
  EXPECT_EQ(locks.OwnerOf(ItemId(4)), TxnId(1));
  EXPECT_TRUE(locks.last_acquisition_order().empty());
}

TEST(LockOrderTest, OwnerMayRelockItsOwnSetOrdered) {
  LockManager locks;
  ASSERT_TRUE(locks.TryLockAllOrdered(Items({3, 1}), TxnId(5)));
  EXPECT_TRUE(locks.TryLockAllOrdered(Items({1, 3, 6}), TxnId(5)));
  EXPECT_EQ(locks.num_locked(), 3u);
}

// Cluster-level deadlock regression: opposing transfers A→B and B→A
// submitted simultaneously from different sites are the classic wait-cycle
// shape. With try-locks plus the canonical acquisition order there is no
// waiting to cycle, so every submission must DECIDE (commit or abort) —
// under every perturber interleaving, not just the FIFO one. A hang here
// (decided < submitted) is exactly the deadlock this suite regresses.
TEST(LockOrderTest, OpposingTransfersDecideUnderEveryInterleaving) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    core::Catalog catalog;
    ItemId a = catalog.AddItem("a", core::CountDomain::Instance(), 120);
    ItemId b = catalog.AddItem("b", core::CountDomain::Instance(), 120);
    system::ClusterOptions opts;
    opts.num_sites = 3;
    opts.seed = seed;
    opts.site.txn.multiop_timeout_us = 150'000;
    // Search interleavings: shuffle same-instant events and jitter delivery.
    opts.perturb.seed = seed * 13 + 7;
    opts.perturb.shuffle_ties = true;
    opts.perturb.max_jitter_us = 150;
    system::Cluster cluster(&catalog, opts);
    cluster.BootstrapEven();

    int submitted = 0;
    int decided = 0;
    auto submit = [&](SiteId at, const txn::TxnSpec& spec) {
      auto id = cluster.Submit(at, spec,
                               [&](const txn::TxnResult&) { ++decided; });
      ASSERT_TRUE(id.ok());
      ++submitted;
    };
    for (int round = 0; round < 4; ++round) {
      // Amounts above the local fragment (120/3 = 40 per site), so each
      // transfer must GATHER remotely while holding locks on both items —
      // the two sides wait on each other's locked fragments, which is the
      // wait-cycle shape the canonical order + timeout must always break.
      submit(SiteId(0), txn::MakeTransfer(a, b, 60));
      submit(SiteId(1), txn::MakeTransfer(b, a, 50));
      cluster.RunFor(700'000);
    }
    cluster.RunFor(2'000'000);

    EXPECT_EQ(decided, submitted) << "seed " << seed << ": undecided txn "
                                  << "— opposing transfers wedged";
    EXPECT_TRUE(cluster.AuditAll().ok()) << "seed " << seed;
    EXPECT_EQ(cluster.TotalOf(a) + cluster.TotalOf(b), 240)
        << "seed " << seed;
  }
}

// ---- CcPolicy -----------------------------------------------------------------

TEST(CcPolicyTest, Conc1GateRequiresDominatingTimestamp) {
  CcPolicy policy(CcScheme::kConc1);
  Timestamp newer(10, SiteId(0));
  Timestamp older(5, SiteId(1));
  EXPECT_TRUE(policy.MayLock(newer, older));
  EXPECT_FALSE(policy.MayLock(older, newer));
  EXPECT_TRUE(policy.StampOnLock());
  EXPECT_FALSE(policy.BroadcastRequests());
}

TEST(CcPolicyTest, Conc1RejectsEqualTimestampAtBegin) {
  CcPolicy policy(CcScheme::kConc1);
  Timestamp ts(10, SiteId(0));
  // MayLock uses strict dominance at Begin; re-access equality is handled
  // by the request path, not this predicate.
  EXPECT_FALSE(policy.MayLock(ts, ts));
}

TEST(CcPolicyTest, Conc2HasNoTimestampGate) {
  CcPolicy policy(CcScheme::kConc2);
  Timestamp newer(10, SiteId(0));
  Timestamp older(5, SiteId(1));
  EXPECT_TRUE(policy.MayLock(older, newer));
  EXPECT_FALSE(policy.StampOnLock());
  EXPECT_TRUE(policy.BroadcastRequests());
}

}  // namespace
}  // namespace dvp::cc
