// Public-API surface tests for the Cluster facade: bootstrap validation,
// allocation helpers, Conc2 configuration, metrics aggregation, and the
// paired-items pattern for capacity-bounded counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "system/cluster.h"
#include "system/real_cluster.h"

namespace dvp {
namespace {

using core::CountDomain;
using system::Cluster;
using system::ClusterOptions;
using system::SplitEven;
using txn::TxnOp;
using txn::TxnOutcome;
using txn::TxnResult;
using txn::TxnSpec;

TEST(SplitEvenTest, DistributesRemainderToLowSites) {
  EXPECT_EQ(SplitEven(10, 4), (std::vector<core::Value>{3, 3, 2, 2}));
  EXPECT_EQ(SplitEven(8, 4), (std::vector<core::Value>{2, 2, 2, 2}));
  EXPECT_EQ(SplitEven(0, 3), (std::vector<core::Value>{0, 0, 0}));
  EXPECT_EQ(SplitEven(2, 5), (std::vector<core::Value>{1, 1, 0, 0, 0}));
}

TEST(SplitEvenTest, SharesSumExactlyAndDifferByAtMostOne) {
  EXPECT_EQ(SplitEven(-7, 3), (std::vector<core::Value>{-2, -2, -3}));
  for (core::Value total : {-1001, -100, -7, -5, -1, 0, 1, 5, 7, 100, 1001}) {
    for (uint32_t n : {1u, 2u, 3u, 4u, 7u, 16u}) {
      std::vector<core::Value> shares = SplitEven(total, n);
      ASSERT_EQ(shares.size(), n);
      EXPECT_EQ(std::accumulate(shares.begin(), shares.end(), core::Value{0}),
                total)
          << total << " over " << n;
      auto [lo, hi] = std::minmax_element(shares.begin(), shares.end());
      EXPECT_LE(*hi - *lo, 1) << total << " over " << n;
      EXPECT_TRUE(std::is_sorted(shares.rbegin(), shares.rend()))
          << "larger shares go to the low indices";
    }
  }
}

// A gauge item may start below zero; an even split of it must still hand
// out exactly its total, on both facades (no Start() needed to audit).
TEST(ClusterBootstrapTest, EvenSplitOfANegativeGaugeTotalConserves) {
  core::Catalog catalog;
  catalog.AddItem("temperature", core::GaugeDomain::Instance(), -7);
  {
    ClusterOptions opts;
    opts.num_sites = 3;
    Cluster cluster(&catalog, opts);
    cluster.BootstrapEven();
    Status audit = cluster.AuditAll();
    EXPECT_TRUE(audit.ok()) << audit.ToString();
  }
  {
    system::RealClusterOptions opts;
    opts.num_sites = 3;
    system::RealCluster cluster(&catalog, opts);
    cluster.BootstrapEven();
    Status audit = cluster.AuditAll();
    EXPECT_TRUE(audit.ok()) << audit.ToString();
  }
}

TEST(ClusterBootstrapTest, RejectsWrongSizeAllocation) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("x", CountDomain::Instance(), 100);
  ClusterOptions opts;
  opts.num_sites = 4;
  Cluster cluster(&catalog, opts);
  std::map<ItemId, std::vector<core::Value>> alloc;
  alloc[item] = {50, 50};  // only 2 entries for 4 sites
  EXPECT_FALSE(cluster.Bootstrap(alloc).ok());
}

TEST(ClusterBootstrapTest, RejectsWrongSum) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("x", CountDomain::Instance(), 100);
  ClusterOptions opts;
  opts.num_sites = 2;
  Cluster cluster(&catalog, opts);
  std::map<ItemId, std::vector<core::Value>> alloc;
  alloc[item] = {60, 60};  // sums to 120, not 100
  EXPECT_FALSE(cluster.Bootstrap(alloc).ok());
}

TEST(ClusterBootstrapTest, RejectsInvalidFragment) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("x", CountDomain::Instance(), 100);
  ClusterOptions opts;
  opts.num_sites = 2;
  Cluster cluster(&catalog, opts);
  std::map<ItemId, std::vector<core::Value>> alloc;
  alloc[item] = {150, -50};  // negative count fragment
  EXPECT_FALSE(cluster.Bootstrap(alloc).ok());
}

TEST(ClusterBootstrapTest, RejectsDoubleBootstrap) {
  core::Catalog catalog;
  catalog.AddItem("x", CountDomain::Instance(), 100);
  ClusterOptions opts;
  opts.num_sites = 2;
  Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();
  EXPECT_FALSE(cluster.Bootstrap({}).ok());
}

TEST(ClusterOptionsTest, UseConc2ForcesSynchronousLinks) {
  ClusterOptions opts;
  opts.link.loss_prob = 0.5;
  opts.UseConc2();
  EXPECT_EQ(opts.site.txn.scheme, cc::CcScheme::kConc2);
  EXPECT_EQ(opts.link.loss_prob, 0.0);
  EXPECT_EQ(opts.link.jitter_mean_us, 0.0);
}

TEST(ClusterRunTest, RunUntilQuiescentStopsAtDrainOrDeadline) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("x", CountDomain::Instance(), 100);
  ClusterOptions opts;
  opts.num_sites = 2;
  Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();
  // One transfer: a handful of events, all well inside the deadline.
  ASSERT_TRUE(cluster.site(SiteId(0)).SendValue(SiteId(1), item, 5).ok());
  cluster.RunUntilQuiescent(10'000'000);
  EXPECT_LT(cluster.Now(), 10'000'000);  // drained early
  EXPECT_EQ(cluster.site(SiteId(1)).LocalValue(item), 55);
  // With nothing pending, time does not run away past the deadline.
  SimTime before = cluster.Now();
  cluster.RunUntilQuiescent(1'000);
  EXPECT_LE(cluster.Now(), before + 1'000);
}

// The volatile audit reads every item at every up site; a read of an item a
// site holds nothing of must not materialise a fragment there.
TEST(ClusterAuditTest, VolatileAuditLeavesResidencyUnchanged) {
  core::Catalog catalog;
  for (int i = 0; i < 8; ++i) {
    catalog.AddItem("item" + std::to_string(i), CountDomain::Instance(), 40);
  }
  ClusterOptions opts;
  opts.num_sites = 4;
  Cluster cluster(&catalog, opts);
  cluster.BootstrapHomed();
  std::vector<size_t> before;
  for (uint32_t s = 0; s < 4; ++s) {
    before.push_back(cluster.site(SiteId(s)).store()->resident_count());
  }
  ASSERT_TRUE(cluster.AuditAllVolatile().ok());
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(cluster.site(SiteId(s)).store()->resident_count(), before[s])
        << "site " << s;
  }
}

TEST(ClusterMetricsTest, AggregateIncludesNetworkStats) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("x", CountDomain::Instance(), 100);
  ClusterOptions opts;
  opts.num_sites = 2;
  Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();
  ASSERT_TRUE(cluster.site(SiteId(0)).SendValue(SiteId(1), item, 5).ok());
  cluster.RunFor(1'000'000);
  CounterSet counters = cluster.AggregateCounters();
  EXPECT_GE(counters.Get("net.sent"), 2u);  // transfer + ack
  EXPECT_EQ(counters.Get("vm.created"), 1u);
  EXPECT_EQ(counters.Get("vm.accepted"), 1u);
}

// The paired-items idiom: a capacity-bounded counter (used, free) with
// used + free = capacity. "Increment used" is expressed as the atomic pair
// {Decrement(free), Increment(used)}, so the *upper* bound is enforced by
// the same bounded-decrement machinery — symmetric escrow, no new domain
// code. (O'Neil's method bounds both ends; so does this pattern.)
class PairedCapacityTest : public ::testing::Test {
 protected:
  PairedCapacityTest() {
    used_ = catalog_.AddItem("conn.used", CountDomain::Instance(), 0);
    free_ = catalog_.AddItem("conn.free", CountDomain::Instance(), 50);
    ClusterOptions opts;
    opts.num_sites = 4;
    opts.seed = 3;
    cluster_ = std::make_unique<Cluster>(&catalog_, opts);
    cluster_->BootstrapEven();
  }

  TxnResult Acquire(SiteId at, core::Value n) {
    TxnSpec spec;
    spec.ops = {TxnOp::Decrement(free_, n), TxnOp::Increment(used_, n)};
    return Run(at, spec);
  }
  TxnResult Release(SiteId at, core::Value n) {
    TxnSpec spec;
    spec.ops = {TxnOp::Decrement(used_, n), TxnOp::Increment(free_, n)};
    return Run(at, spec);
  }
  TxnResult Run(SiteId at, const TxnSpec& spec) {
    TxnResult out;
    (void)cluster_->Submit(at, spec,
                           [&out](const TxnResult& r) { out = r; });
    cluster_->RunFor(2'000'000);
    return out;
  }

  core::Catalog catalog_;
  ItemId used_, free_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(PairedCapacityTest, AcquireWithinCapacitySucceeds) {
  EXPECT_EQ(Acquire(SiteId(0), 10).outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(cluster_->TotalOf(used_), 10);
  EXPECT_EQ(cluster_->TotalOf(free_), 40);
  // The invariant used + free = 50 holds by conservation of both items.
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

TEST_F(PairedCapacityTest, CapacityCeilingIsEnforced) {
  ASSERT_EQ(Acquire(SiteId(0), 30).outcome, TxnOutcome::kCommitted);
  // 21 more would exceed capacity 50: free cannot cover it anywhere.
  EXPECT_EQ(Acquire(SiteId(1), 21).outcome, TxnOutcome::kAbortTimeout);
  EXPECT_EQ(cluster_->TotalOf(used_), 30);
  EXPECT_EQ(Acquire(SiteId(1), 20).outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(cluster_->TotalOf(used_), 50);
  EXPECT_EQ(cluster_->TotalOf(free_), 0);
}

TEST_F(PairedCapacityTest, ReleaseRestoresHeadroom) {
  ASSERT_EQ(Acquire(SiteId(2), 50).outcome, TxnOutcome::kCommitted);
  ASSERT_EQ(Release(SiteId(3), 15).outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(cluster_->TotalOf(used_), 35);
  EXPECT_EQ(cluster_->TotalOf(free_), 15);
  EXPECT_EQ(Acquire(SiteId(0), 15).outcome, TxnOutcome::kCommitted);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

TEST_F(PairedCapacityTest, ConcurrentAcquisitionNeverOversubscribes) {
  // Fire acquisitions from every site simultaneously; total admitted can
  // never exceed capacity even with redistribution racing.
  int committed_units = 0;
  for (int round = 0; round < 6; ++round) {
    for (uint32_t s = 0; s < 4; ++s) {
      TxnSpec spec;
      spec.ops = {TxnOp::Decrement(free_, 4), TxnOp::Increment(used_, 4)};
      (void)cluster_->Submit(SiteId(s), spec,
                             [&](const TxnResult& r) {
                               if (r.committed()) committed_units += 4;
                             });
    }
    cluster_->RunFor(300'000);
  }
  cluster_->RunFor(3'000'000);
  EXPECT_LE(committed_units, 50);
  EXPECT_EQ(cluster_->TotalOf(used_), committed_units);
  EXPECT_EQ(cluster_->TotalOf(free_), 50 - committed_units);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

}  // namespace
}  // namespace dvp
