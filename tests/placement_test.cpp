// Placement layer: surplus-hint cache semantics, hint piggybacking through a
// live cluster, surplus-directed gathers, multi-round gathers, the exact
// shortfall split, and the background rebalancer feeding the local-commit
// fast path. The chaos-facing pinned case at the bottom proves the layer
// coexists with faults under the full oracle suite.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/harness.h"
#include "placement/placement.h"
#include "system/cluster.h"

namespace dvp {
namespace {

using core::CountDomain;
using txn::TxnOp;
using txn::TxnOutcome;
using txn::TxnResult;
using txn::TxnSpec;

// ---- SurplusMap unit behaviour ----------------------------------------------

class PlacementUnitTest : public ::testing::Test {
 protected:
  void Build(placement::PlacementOptions popts, uint32_t num_sites = 4) {
    catalog_ = std::make_unique<core::Catalog>();
    item_ = catalog_->AddItem("pool", CountDomain::Instance(), 100);
    store_ = std::make_unique<core::ValueStore>(catalog_.get());
    pm_ = std::make_unique<placement::PlacementManager>(
        SiteId(0), num_sites, &kernel_, store_.get(), /*metrics=*/nullptr,
        popts);
  }

  void AdvanceTo(SimTime when) {
    kernel_.ScheduleAt(when, [] {});
    kernel_.Run();
  }

  sim::Kernel kernel_;
  std::unique_ptr<core::Catalog> catalog_;
  ItemId item_;
  std::unique_ptr<core::ValueStore> store_;
  std::unique_ptr<placement::PlacementManager> pm_;
};

TEST_F(PlacementUnitTest, RankTargetsOrdersBySurplusAndIgnoresStale) {
  placement::PlacementOptions popts;
  popts.hints_per_frame = 4;
  popts.hint_staleness_us = 100'000;
  Build(popts);

  pm_->OnHints(SiteId(1), {{item_, 10, 0, 1}});
  pm_->OnHints(SiteId(2), {{item_, 30, 0, 1}});
  pm_->OnHints(SiteId(3), {{item_, 0, 5, 1}});  // demand only: not a target
  auto ranked = pm_->RankTargets(item_);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].site, SiteId(2));
  EXPECT_EQ(ranked[0].surplus, 30);
  EXPECT_EQ(ranked[1].site, SiteId(1));

  // Past the freshness window every cached hint stops steering gathers.
  AdvanceTo(200'000);
  EXPECT_TRUE(pm_->RankTargets(item_).empty());
}

TEST_F(PlacementUnitTest, ReorderedOlderStampCannotOverwriteNewer) {
  placement::PlacementOptions popts;
  popts.hints_per_frame = 4;
  Build(popts);

  pm_->OnHints(SiteId(1), {{item_, 25, 0, /*stamp=*/7}});
  pm_->OnHints(SiteId(1), {{item_, 3, 0, /*stamp=*/4}});  // stale frame
  auto ranked = pm_->RankTargets(item_);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].surplus, 25);
}

TEST_F(PlacementUnitTest, FeedbackAdjustsCacheWithoutNewFrames) {
  placement::PlacementOptions popts;
  popts.hints_per_frame = 4;
  Build(popts);

  pm_->OnHints(SiteId(1), {{item_, 20, 0, 1}});
  pm_->NoteShipped(SiteId(1), item_, 15);
  auto ranked = pm_->RankTargets(item_);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].surplus, 5);

  // A "nothing to ship" NACK zeroes the entry outright.
  pm_->NoteEmpty(SiteId(1), item_);
  EXPECT_TRUE(pm_->RankTargets(item_).empty());
}

TEST_F(PlacementUnitTest, AdvertsReportShippableSurplusAndLocalDemand) {
  placement::PlacementOptions popts;
  popts.hints_per_frame = 4;
  popts.demand_halflife_us = 1'000'000;
  Build(popts);
  store_->Install(item_, 40, Timestamp::Zero());

  auto adverts = pm_->AdvertsFor(SiteId(1));
  ASSERT_EQ(adverts.size(), 1u);
  EXPECT_EQ(adverts[0].item, item_);
  EXPECT_EQ(adverts[0].surplus, 40);
  EXPECT_EQ(adverts[0].demand, 0);

  pm_->NoteShortfall(item_, 12);
  adverts = pm_->AdvertsFor(SiteId(1));
  ASSERT_EQ(adverts.size(), 1u);
  EXPECT_EQ(adverts[0].demand, 12);

  // Demand is an EWMA: it halves per halflife instead of persisting forever.
  AdvanceTo(2'000'000);
  EXPECT_EQ(pm_->LocalDemand(item_), 3);
}

// ---- Sparse-state behaviour (the O(active) rewrite) --------------------------

// The advert ring holds items this site has touched — never the catalog
// width — and drained items leave it as the advert cursor passes them.
TEST(PlacementSparseTest, AdvertRingTracksTouchedItemsAndRetiresDrained) {
  sim::Kernel kernel;
  core::Catalog catalog;
  std::vector<ItemId> items;
  for (int i = 0; i < 100; ++i) {
    items.push_back(
        catalog.AddItem("i" + std::to_string(i), CountDomain::Instance(), 10));
  }
  core::ValueStore store(&catalog);
  placement::PlacementOptions popts;
  popts.hints_per_frame = 4;
  placement::PlacementManager pm(SiteId(0), 4, &kernel, &store,
                                 /*metrics=*/nullptr, popts);
  EXPECT_EQ(pm.advert_ring_size(), 0u);

  store.Install(items[3], 10, Timestamp::Zero());
  store.SetValue(items[10], 5);
  EXPECT_EQ(pm.advert_ring_size(), 2u);  // O(touched), not 100

  auto adverts = pm.AdvertsFor(SiteId(1));
  EXPECT_EQ(adverts.size(), 2u);

  // Drain both fragments: with no surplus and no local demand the next
  // advert pass retires the ring entries instead of advertising nothing
  // forever.
  store.SetValue(items[3], 0);
  store.SetValue(items[10], 0);
  EXPECT_TRUE(pm.AdvertsFor(SiteId(1)).empty());
  EXPECT_EQ(pm.advert_ring_size(), 0u);

  // A later write re-adds the item — retirement is lazy, not permanent.
  store.SetValue(items[10], 2);
  EXPECT_EQ(pm.advert_ring_size(), 1u);
}

// Fragments resident before the manager exists (bootstrap, recovery) still
// get airtime: the constructor seeds the ring from the store.
TEST(PlacementSparseTest, AdvertRingSeedsFromFragmentsResidentAtConstruction) {
  sim::Kernel kernel;
  core::Catalog catalog;
  ItemId a = catalog.AddItem("a", CountDomain::Instance(), 50);
  catalog.AddItem("b", CountDomain::Instance(), 50);
  core::ValueStore store(&catalog);
  store.Install(a, 50, Timestamp::Zero());

  placement::PlacementOptions popts;
  popts.hints_per_frame = 4;
  placement::PlacementManager pm(SiteId(0), 4, &kernel, &store,
                                 /*metrics=*/nullptr, popts);
  EXPECT_EQ(pm.advert_ring_size(), 1u);
  auto adverts = pm.AdvertsFor(SiteId(1));
  ASSERT_EQ(adverts.size(), 1u);
  EXPECT_EQ(adverts[0].item, a);
  EXPECT_EQ(adverts[0].surplus, 50);
}

// ---- Boot-rule seeding -------------------------------------------------------
//
// A rule boot writes no fragment, so the advert ring is seeded from the boot
// rule instead of from per-item installs. What the ring advertises must not
// change: the expected strings were recorded from the per-item boot, which
// installed every boot fragment (and imaged it) one by one.

/// `frames` successive AdvertsFor frames from `s` as "item:surplus/demand".
std::string AdvertTrace(system::Cluster& cluster, SiteId s, int frames) {
  std::string out;
  SiteId dst((s.value() + 1) % cluster.num_sites());
  for (int f = 0; f < frames; ++f) {
    for (const net::PlacementHint& h :
         cluster.site(s).placement()->AdvertsFor(dst)) {
      out += std::to_string(h.item.value()) + ":" + std::to_string(h.surplus) +
             "/" + std::to_string(h.demand) + " ";
    }
    out += "|";
  }
  return out;
}

class AdvertSeedTest : public ::testing::Test {
 protected:
  void Build() {
    for (int i = 0; i < 10; ++i) {
      catalog_.AddItem("i" + std::to_string(i), CountDomain::Instance(),
                       7 * i + 1);
    }
    system::ClusterOptions opts;
    opts.num_sites = 3;
    opts.seed = 17;
    opts.site.placement.hints_per_frame = 4;
    cluster_ = std::make_unique<system::Cluster>(&catalog_, opts);
  }
  void Send(SiteId from, SiteId to, uint32_t item, core::Value amount) {
    ASSERT_TRUE(
        cluster_->site(from).SendValue(to, ItemId(item), amount).ok());
    cluster_->RunFor(100'000);
  }
  void CrashAndRecover(SiteId s) {
    cluster_->CrashSite(s);
    cluster_->RecoverSite(s);
    cluster_->RunFor(100'000);
    ASSERT_TRUE(cluster_->site(s).IsUp());
  }

  core::Catalog catalog_;
  std::unique_ptr<system::Cluster> cluster_;
};

TEST_F(AdvertSeedTest, EvenBootAdvertisesAsThePerItemBootDid) {
  Build();
  cluster_->BootstrapEven();
  EXPECT_EQ(AdvertTrace(*cluster_, SiteId(1), 4),
            "9:21/0 1:3/0 2:5/0 3:7/0 |4:10/0 5:12/0 6:14/0 7:17/0 |"
            "8:19/0 9:21/0 1:3/0 2:5/0 |3:7/0 4:10/0 5:12/0 6:14/0 |");
}

TEST_F(AdvertSeedTest, HomedBootAdvertisesAsThePerItemBootDid) {
  Build();
  cluster_->BootstrapHomed();
  EXPECT_EQ(AdvertTrace(*cluster_, SiteId(1), 3),
            "1:8/0 4:29/0 7:50/0 |1:8/0 4:29/0 7:50/0 |1:8/0 4:29/0 7:50/0 |");
}

// Recovered sites: the ring is the checkpoint image merged with the boot
// rule's items in id order, then the replayed suffix's new items in log
// order. The homed case puts a non-home item in the image and two more in
// the suffix, so a seeding that put the rule's items first would show.
TEST_F(AdvertSeedTest, RecoveredSitesAdvertiseAsThePerItemBootDid) {
  Build();
  cluster_->BootstrapHomed();
  Send(SiteId(1), SiteId(0), 1, 5);
  cluster_->site(SiteId(0)).Checkpoint();
  Send(SiteId(2), SiteId(0), 8, 3);
  Send(SiteId(1), SiteId(0), 4, 2);
  Send(SiteId(0), SiteId(2), 3, 4);
  CrashAndRecover(SiteId(0));
  EXPECT_EQ(AdvertTrace(*cluster_, SiteId(0), 4),
            "1:5/0 3:18/0 6:43/0 9:64/0 |8:3/0 4:2/0 0:1/0 1:5/0 |"
            "3:18/0 6:43/0 9:64/0 8:3/0 |4:2/0 0:1/0 1:5/0 3:18/0 |");
}

TEST_F(AdvertSeedTest, RecoveredEvenSiteAdvertisesAsThePerItemBootDid) {
  Build();
  cluster_->BootstrapEven();
  Send(SiteId(0), SiteId(2), 9, 20);
  cluster_->site(SiteId(2)).Checkpoint();
  Send(SiteId(1), SiteId(2), 3, 5);
  CrashAndRecover(SiteId(2));
  EXPECT_EQ(AdvertTrace(*cluster_, SiteId(2), 4),
            "9:41/0 1:2/0 2:5/0 3:12/0 |4:9/0 5:12/0 6:14/0 7:16/0 |"
            "8:19/0 9:41/0 1:2/0 2:5/0 |3:12/0 4:9/0 5:12/0 6:14/0 |");
}

// The rebalance tick evicts hint rows untouched for
// cache_evict_staleness_windows staleness windows, so the cache is bounded
// by recently-hinted items instead of growing with every item ever hinted.
TEST_F(PlacementUnitTest, TickEvictsStaleHintRowsAndBoundsTheCache) {
  placement::PlacementOptions popts;
  popts.hints_per_frame = 4;
  popts.hint_staleness_us = 10'000;
  popts.cache_evict_staleness_windows = 2;  // evict after 20ms untouched
  popts.rebalance = true;
  popts.rebalance_interval_us = 5'000;
  Build(popts);
  pm_->set_send_value_fn(
      [](SiteId, ItemId, core::Value) { return Status::OK(); });
  pm_->Start();

  pm_->OnHints(SiteId(1), {{item_, 10, 0, 1}});
  pm_->OnHints(SiteId(2), {{item_, 7, 0, 1}});
  EXPECT_EQ(pm_->cache_items(), 1u);
  EXPECT_EQ(pm_->cache_entries(), 2u);

  // Run past the eviction horizon (bounded run: the tick rearms forever).
  kernel_.Run(100'000);
  EXPECT_EQ(pm_->cache_items(), 0u);
  EXPECT_EQ(pm_->cache_entries(), 0u);
  EXPECT_EQ(pm_->cache_entries_peak(), 2u);  // high-water mark survives
}

// ---- Cluster-level behaviour ------------------------------------------------

class PlacementClusterTest : public ::testing::Test {
 protected:
  void Build(system::ClusterOptions opts,
             const std::vector<core::Value>& split) {
    catalog_ = std::make_unique<core::Catalog>();
    core::Value total = 0;
    for (core::Value v : split) total += v;
    item_ = catalog_->AddItem("pool", CountDomain::Instance(), total);
    cluster_ = std::make_unique<system::Cluster>(catalog_.get(), opts);
    std::map<ItemId, std::vector<core::Value>> alloc;
    alloc[item_] = split;
    ASSERT_TRUE(cluster_->Bootstrap(alloc).ok());
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
  std::unique_ptr<system::Cluster> cluster_;
};

TEST_F(PlacementClusterTest, HintsRideExistingFramesAcrossTheCluster) {
  system::ClusterOptions opts;
  opts.num_sites = 2;
  opts.site.placement.hints_per_frame = 4;
  opts.site.placement.hint_staleness_us = 60'000'000;
  Build(opts, {10, 50});

  // The gather's request/Vm exchange is the only traffic — the hints ride it.
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 20)};
  TxnResult r = SubmitAndRun(SiteId(0), spec);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);

  CounterSet counters = cluster_->AggregateCounters();
  EXPECT_GT(counters.Get("placement.hint.observed"), 0u);
  auto ranked = cluster_->site(SiteId(0)).placement()->RankTargets(item_);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0].site, SiteId(1));
}

TEST_F(PlacementClusterTest, DirectedGatherAsksOnlyTheSurplusSite) {
  system::ClusterOptions opts;
  opts.num_sites = 4;
  opts.site.placement.hints_per_frame = 4;
  opts.site.placement.hint_staleness_us = 60'000'000;
  opts.site.txn.targeting = txn::TargetPolicy::kSurplus;
  Build(opts, {5, 0, 0, 200});

  // Warm-up: the first gather has no hints, falls back to blind fan-out, and
  // the replies seed every cache.
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 10)};
  ASSERT_EQ(SubmitAndRun(SiteId(0), spec).outcome, TxnOutcome::kCommitted);
  CounterSet before = cluster_->AggregateCounters();
  EXPECT_GT(before.Get("placement.gather.fallback"), 0u);

  // Directed: the ranked cache points at site 3 alone; one request message.
  TxnResult r = SubmitAndRun(SiteId(0), spec);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  CounterSet after = cluster_->AggregateCounters();
  EXPECT_GT(after.Get("placement.gather.directed"),
            before.Get("placement.gather.directed"));
  EXPECT_EQ(after.Get("req.msgs") - before.Get("req.msgs"), 1u);
}

TEST_F(PlacementClusterTest, EmptyReplyNackRedirectsTheNextGather) {
  system::ClusterOptions opts;
  opts.num_sites = 3;
  opts.site.placement.hints_per_frame = 4;
  opts.site.placement.hint_staleness_us = 60'000'000;  // only feedback corrects
  opts.site.txn.targeting = txn::TargetPolicy::kSurplus;
  opts.site.txn.gather_retry_us = 100'000;
  Build(opts, {0, 0, 40});

  // Seed site 0's cache with a lie: empty site 1 claims plenty of surplus.
  cluster_->site(SiteId(0)).placement()->OnHints(SiteId(1),
                                                 {{item_, 100, 0, 1}});

  // The directed gather asks site 1 first, gets the surplus NACK, and the
  // retry round (the cache now knows site 1 is empty) falls back to blind
  // fan-out and reaches site 2's real surplus.
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 30)};
  TxnResult r = SubmitAndRun(SiteId(0), spec);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_GE(r.rounds, 2u);
  CounterSet counters = cluster_->AggregateCounters();
  EXPECT_GT(counters.Get("req.surplus_nack"), 0u);
  EXPECT_GT(counters.Get("placement.hint.empty"), 0u);
}

// Satellite: a gather that under-ships in round 1 completes in a later
// retry round instead of waiting for the timeout to abort it.
TEST_F(PlacementClusterTest, MultiRoundGatherCompletesAndCountsRounds) {
  system::ClusterOptions opts;
  opts.num_sites = 3;
  opts.site.txn.targeting = txn::TargetPolicy::kRandom;
  opts.site.txn.request_fanout = 1;
  opts.site.txn.gather_retry_us = 50'000;
  opts.site.txn.timeout_us = 2'000'000;
  Build(opts, {0, 20, 20});

  // Shortfall 30 > any single site's 20: round 1 under-ships no matter which
  // target the fan-out of one draws; a later round must fill the rest.
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 30)};
  TxnResult r = SubmitAndRun(SiteId(0), spec, 4'000'000);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_GE(r.rounds, 2u);

  CounterSet counters = cluster_->AggregateCounters();
  EXPECT_GE(counters.Get("req.sent"), 2u);
  EXPECT_GE(counters.Get("req.msgs"), 2u);
  Histogram* rounds =
      cluster_->site(SiteId(0)).metrics().histogram("txn.rounds");
  ASSERT_EQ(rounds->count(), 1u);
  EXPECT_GE(rounds->max(), 2.0);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

// Satellite: divide_shortfall's split sums exactly to the shortfall — the
// old ceil division gathered up to k-1 surplus units per round.
TEST_F(PlacementClusterTest, DivideShortfallSumsExactlyToTheShortfall) {
  system::ClusterOptions opts;
  opts.num_sites = 3;
  opts.site.txn.divide_shortfall = true;
  opts.site.txn.targeting = txn::TargetPolicy::kFirstK;
  Build(opts, {10, 20, 20});

  // Shortfall 5 across 2 targets: exact split asks 3 + 2. Ceil division
  // would ask 3 + 3 and leave a stray unit at site 0 after commit.
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 15)};
  TxnResult r = SubmitAndRun(SiteId(0), spec);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(cluster_->site(SiteId(0)).LocalValue(item_), 0);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

TEST_F(PlacementClusterTest, RebalancerFeedsTheDemandHotSpot) {
  system::ClusterOptions opts;
  opts.num_sites = 4;
  opts.site.placement.hints_per_frame = 4;
  opts.site.placement.rebalance = true;
  opts.site.placement.rebalance_interval_us = 100'000;
  opts.site.txn.targeting = txn::TargetPolicy::kSurplus;
  Build(opts, {0, 400, 400, 400});

  // A steady decrement stream at value-less site 0: the early ones gather
  // remotely (feeding the demand EWMA the hints broadcast), then the
  // rebalancer's pushes let later ones commit on the local fragment alone.
  uint32_t committed = 0;
  for (uint32_t i = 0; i < 60; ++i) {
    cluster_->kernel().ScheduleAt(50'000 * SimTime(i + 1), [&]() {
      TxnSpec spec;
      spec.ops = {TxnOp::Decrement(item_, 4)};
      (void)cluster_->Submit(SiteId(0), spec, [&](const TxnResult& r) {
        if (r.committed()) ++committed;
      });
    });
  }
  cluster_->RunFor(5'000'000);

  CounterSet counters = cluster_->AggregateCounters();
  EXPECT_EQ(committed, 60u);
  EXPECT_GT(counters.Get("placement.rebalance.push"), 0u);
  // The fast path: decrements that found the rebalanced value locally.
  EXPECT_GT(counters.Get("txn.local_commit"), 0u);
  EXPECT_TRUE(cluster_->AuditAll().ok());
  EXPECT_TRUE(cluster_->AuditAllVolatile().ok());
}

// ---- Chaos coexistence ------------------------------------------------------

// Pinned case: hints + rebalancer + crashes and loss, full oracle suite.
// The rebalancer's pushes are ordinary Vm transfers, so conservation and
// exactly-once accounting hold by construction even mid-fault.
TEST(PlacementChaos, PinnedCaseWithHintsAndRebalancerHoldsAllOracles) {
  chaos::ChaosCase c;
  c.seed = 505;
  c.workload = {4,     2,   240, 120, 20'000, chaos::kAnySite, 0, 150,
                40,    150'000, 60,  0,   0,      0,               0,
                /*surplus_hints=*/1, /*rebalance=*/1};
  c.plan.events = {
      {40'000, chaos::FaultKind::kCrash, 1, 0},
      {90'000, chaos::FaultKind::kRecover, 1, 0},
      {120'000, chaos::FaultKind::kLinkLoss, 0, 120},
      {400'000, chaos::FaultKind::kLinkLoss, 0, 0},
  };
  chaos::RunResult r = chaos::RunCase(c);
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_GT(r.committed, 0u);
}

}  // namespace
}  // namespace dvp
