// Property tests for "serializability subject to redistribution" (§6):
// random concurrent histories under Conc1 (checked against exact
// timestamp-order replay, including every full-read value) and under Conc2
// on its synchronous network (commit-order replay with windowed reads).
#include <gtest/gtest.h>

#include "system/cluster.h"
#include "verify/serializability.h"
#include "workload/generator.h"

namespace dvp {
namespace {

struct SerCase {
  uint64_t seed;
  cc::CcScheme scheme;
  uint32_t items;
  double read_mix;
  double loss;
};

class SerializabilityTest : public ::testing::TestWithParam<SerCase> {};

TEST_P(SerializabilityTest, RandomHistoryReplaysSerially) {
  const SerCase& c = GetParam();

  core::Catalog catalog;
  std::vector<ItemId> items;
  for (uint32_t i = 0; i < c.items; ++i) {
    items.push_back(catalog.AddItem("item" + std::to_string(i),
                                    core::CountDomain::Instance(), 3000));
  }
  system::ClusterOptions opts;
  opts.num_sites = 4;
  opts.seed = c.seed;
  opts.site.txn.local_compute_us = 1'500;  // lock windows → real contention
  if (c.scheme == cc::CcScheme::kConc2) {
    opts.UseConc2();
  } else {
    opts.link.loss_prob = c.loss;
  }
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();

  workload::WorkloadOptions w;
  w.arrivals_per_sec = 120;
  w.p_read = c.read_mix;
  w.p_decrement = (1.0 - c.read_mix) * 0.5;
  w.p_increment = (1.0 - c.read_mix) * 0.5;
  w.site_zipf_theta = 0.7;
  w.seed = c.seed * 31 + 5;
  workload::WorkloadDriver driver(&cluster, items, w);

  verify::HistoryChecker checker(&catalog);
  driver.set_on_commit([&](TxnId id, const txn::TxnSpec& spec,
                           const txn::TxnResult& r) {
    checker.RecordCommitAt(cluster.Now(), id, spec, r);
  });

  auto results = driver.Run(15'000'000, 4'000'000);
  ASSERT_GT(results.committed(), 100u) << "history too small to be meaningful";

  std::map<ItemId, core::Value> final_totals;
  for (ItemId item : items) final_totals[item] = cluster.TotalOf(item);

  auto order = c.scheme == cc::CcScheme::kConc1
                   ? verify::HistoryChecker::Order::kTimestamp
                   : verify::HistoryChecker::Order::kCommitOrder;
  Status check = checker.Check(order, &final_totals);
  EXPECT_TRUE(check.ok()) << check.ToString();
  EXPECT_TRUE(cluster.AuditAll().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Conc1, SerializabilityTest,
    ::testing::Values(SerCase{11, cc::CcScheme::kConc1, 4, 0.05, 0.0},
                      SerCase{12, cc::CcScheme::kConc1, 2, 0.10, 0.0},
                      SerCase{13, cc::CcScheme::kConc1, 1, 0.00, 0.0},
                      SerCase{14, cc::CcScheme::kConc1, 4, 0.05, 0.2},
                      SerCase{15, cc::CcScheme::kConc1, 8, 0.02, 0.1},
                      SerCase{16, cc::CcScheme::kConc1, 2, 0.15, 0.3}));

INSTANTIATE_TEST_SUITE_P(
    Conc2, SerializabilityTest,
    ::testing::Values(SerCase{21, cc::CcScheme::kConc2, 4, 0.05, 0.0},
                      SerCase{22, cc::CcScheme::kConc2, 2, 0.10, 0.0},
                      SerCase{23, cc::CcScheme::kConc2, 1, 0.00, 0.0},
                      SerCase{24, cc::CcScheme::kConc2, 8, 0.05, 0.0}));

// Decrement safety: a committed bounded decrement may never drive the item
// total below zero at any prefix of the serial order — checked implicitly by
// Check(), plus here via direct observation that no fragment ever went
// negative during a hostile run.
TEST(DecrementSafetyTest, FragmentsNeverNegativeUnderChaos) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("pool", core::CountDomain::Instance(), 60);
  system::ClusterOptions opts;
  opts.num_sites = 4;
  opts.seed = 77;
  opts.link.loss_prob = 0.3;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();

  cluster.kernel().set_post_event_hook([&]() {
    for (uint32_t s = 0; s < 4; ++s) {
      if (cluster.site(SiteId(s)).IsUp()) {
        ASSERT_GE(cluster.site(SiteId(s)).LocalValue(item), 0);
      }
    }
  });

  workload::WorkloadOptions w;
  w.arrivals_per_sec = 150;
  w.p_decrement = 0.8;  // constant pressure against the zero bound
  w.p_increment = 0.2;
  w.p_read = 0;
  w.amount_min = 1;
  w.amount_max = 9;
  w.seed = 777;
  std::vector<ItemId> items{item};
  workload::WorkloadDriver driver(&cluster, items, w);
  auto results = driver.Run(10'000'000);
  // Most demand must fail (the item only has 60 units) but never unsafely.
  EXPECT_GT(results.decided(), 500u);
  EXPECT_GE(cluster.TotalOf(item), 0);
  EXPECT_TRUE(cluster.AuditAll().ok());
}

}  // namespace
}  // namespace dvp
