// Tests for the workload generator, driving DvP and the baselines through
// world::SimWorld, and the table printer used by the experiment harnesses.
#include <gtest/gtest.h>

#include <sstream>

#include "baseline/primary_copy.h"
#include "baseline/twopc.h"
#include "system/cluster.h"
#include "workload/generator.h"
#include "workload/table.h"

namespace dvp::workload {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest() {
    items_.push_back(catalog_.AddItem("a", core::CountDomain::Instance(),
                                      100'000));
    items_.push_back(catalog_.AddItem("b", core::CountDomain::Instance(),
                                      100'000));
    system::ClusterOptions opts;
    opts.num_sites = 4;
    opts.seed = 3;
    cluster_ = std::make_unique<system::Cluster>(&catalog_, opts);
    cluster_->BootstrapEven();
  }

  core::Catalog catalog_;
  std::vector<ItemId> items_;
  std::unique_ptr<system::Cluster> cluster_;
};

TEST_F(WorkloadTest, MixProportionsAreRespected) {
  WorkloadOptions w;
  w.p_decrement = 0.6;
  w.p_increment = 0.3;
  w.p_read = 0.1;
  w.seed = 5;
  WorkloadDriver driver(cluster_.get(), items_, w);
  Rng rng(5);
  int dec = 0, inc = 0, read = 0;
  for (int i = 0; i < 20'000; ++i) {
    txn::TxnSpec spec = driver.MakeSpec(rng);
    switch (spec.ops.front().kind) {
      case txn::TxnOp::Kind::kDecrement:
        ++dec;
        break;
      case txn::TxnOp::Kind::kIncrement:
        ++inc;
        break;
      case txn::TxnOp::Kind::kReadFull:
      case txn::TxnOp::Kind::kReadSnapshot:
        ++read;
        break;
    }
  }
  EXPECT_NEAR(dec / 20'000.0, 0.6, 0.02);
  EXPECT_NEAR(inc / 20'000.0, 0.3, 0.02);
  EXPECT_NEAR(read / 20'000.0, 0.1, 0.02);
}

TEST_F(WorkloadTest, AmountsStayInRange) {
  WorkloadOptions w;
  w.amount_min = 2;
  w.amount_max = 9;
  w.p_read = 0;
  WorkloadDriver driver(cluster_.get(), items_, w);
  Rng rng(7);
  for (int i = 0; i < 5'000; ++i) {
    txn::TxnSpec spec = driver.MakeSpec(rng);
    EXPECT_GE(spec.ops.front().amount, 2);
    EXPECT_LE(spec.ops.front().amount, 9);
  }
}

TEST_F(WorkloadTest, SiteSkewConcentratesDecrementsOnly) {
  WorkloadOptions w;
  w.p_decrement = 0.5;
  w.p_increment = 0.5;
  w.p_read = 0;
  w.site_zipf_theta = 1.5;
  w.increment_site_zipf_theta = 0.0;
  WorkloadDriver driver(cluster_.get(), items_, w);
  Rng rng(11);
  int dec_site0 = 0, decs = 0, inc_site0 = 0, incs = 0;
  for (int i = 0; i < 20'000; ++i) {
    txn::TxnSpec spec = driver.MakeSpec(rng);
    SiteId at = driver.PickSite(rng, spec);
    if (spec.ops.front().kind == txn::TxnOp::Kind::kDecrement) {
      ++decs;
      dec_site0 += at == SiteId(0);
    } else {
      ++incs;
      inc_site0 += at == SiteId(0);
    }
  }
  EXPECT_GT(double(dec_site0) / decs, 0.5);   // heavily skewed
  EXPECT_NEAR(double(inc_site0) / incs, 0.25, 0.03);  // uniform
}

TEST_F(WorkloadTest, RunProducesDecisionsAndThroughput) {
  WorkloadOptions w;
  w.arrivals_per_sec = 200;
  w.p_read = 0;
  w.seed = 13;
  WorkloadDriver driver(cluster_.get(), items_, w);
  WorkloadResults r = driver.Run(5'000'000, 1'000'000);
  EXPECT_NEAR(double(r.submitted), 1000.0, 150.0);  // Poisson(200/s * 5s)
  EXPECT_EQ(r.decided(), r.submitted);
  EXPECT_GT(r.commit_rate(), 0.95);
  EXPECT_GT(r.throughput_per_sec(5'000'000), 150.0);
}

TEST_F(WorkloadTest, HooksSeeEveryCommitAndDecision) {
  WorkloadOptions w;
  w.arrivals_per_sec = 100;
  w.p_read = 0;
  w.seed = 17;
  WorkloadDriver driver(cluster_.get(), items_, w);
  uint64_t commits = 0, decisions = 0;
  driver.set_on_commit([&](TxnId, const txn::TxnSpec&, const txn::TxnResult&) {
    ++commits;
  });
  driver.set_on_decision(
      [&](SiteId, const txn::TxnSpec&, const txn::TxnResult&) {
        ++decisions;
      });
  WorkloadResults r = driver.Run(3'000'000);
  EXPECT_EQ(commits, r.committed());
  EXPECT_EQ(decisions, r.decided());
}

TEST_F(WorkloadTest, DeterministicAcrossRuns) {
  auto run_once = [this]() {
    system::ClusterOptions opts;
    opts.num_sites = 4;
    opts.seed = 3;
    system::Cluster cluster(&catalog_, opts);
    cluster.BootstrapEven();
    WorkloadOptions w;
    w.arrivals_per_sec = 150;
    w.seed = 23;
    WorkloadDriver driver(&cluster, items_, w);
    WorkloadResults r = driver.Run(3'000'000);
    return std::make_pair(r.submitted, r.committed());
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a, b) << "same seeds must reproduce the identical run";
}

enum class Kind { kDvp, kTwoPcWriteAll, kTwoPcQuorum, kPrimaryCopy };

std::unique_ptr<world::SimWorld> BuildBooted(Kind kind,
                                             const core::Catalog* catalog) {
  constexpr uint32_t kSites = 4;
  constexpr uint64_t kSeed = 3;
  if (kind == Kind::kDvp) {
    system::ClusterOptions opts;
    opts.num_sites = kSites;
    opts.seed = kSeed;
    auto cluster = std::make_unique<system::Cluster>(catalog, opts);
    cluster->BootstrapEven();
    return cluster;
  }
  if (kind == Kind::kPrimaryCopy) {
    baseline::PrimaryCopyOptions opts;
    opts.num_sites = kSites;
    opts.seed = kSeed;
    auto cluster =
        std::make_unique<baseline::PrimaryCopyCluster>(catalog, opts);
    cluster->Bootstrap();
    return cluster;
  }
  baseline::TwoPcOptions opts;
  opts.num_sites = kSites;
  opts.seed = kSeed;
  opts.policy = kind == Kind::kTwoPcQuorum
                    ? baseline::ReplicaPolicy::kQuorum
                    : baseline::ReplicaPolicy::kWriteAll;
  auto cluster = std::make_unique<baseline::TwoPcCluster>(catalog, opts);
  cluster->Bootstrap();
  return cluster;
}

/// One short window with a {0,1}|{2,3} split in its middle, driven and
/// partitioned through the SimWorld interface alone.
WorkloadResults RunWindow(world::SimWorld* world,
                          const std::vector<ItemId>& items) {
  world->kernel().ScheduleAt(500'000, [world]() {
    (void)world->Partition({{SiteId(0), SiteId(1)}, {SiteId(2), SiteId(3)}});
  });
  world->kernel().ScheduleAt(1'000'000, [world]() { world->Heal(); });
  WorkloadOptions w;
  w.arrivals_per_sec = 200;
  w.seed = 29;
  WorkloadDriver driver(world, items, w);
  return driver.Run(1'500'000);
}

TEST_F(WorkloadTest, DriverRunsDvpAndEveryBaselineThroughOneWorld) {
  for (Kind kind : {Kind::kDvp, Kind::kTwoPcWriteAll,
                        Kind::kTwoPcQuorum, Kind::kPrimaryCopy}) {
    SCOPED_TRACE(static_cast<int>(kind));
    std::unique_ptr<world::SimWorld> first = BuildBooted(kind, &catalog_);
    WorkloadResults a = RunWindow(first.get(), items_);
    std::unique_ptr<world::SimWorld> second = BuildBooted(kind, &catalog_);
    WorkloadResults b = RunWindow(second.get(), items_);

    EXPECT_GT(a.submitted, 100u);
    EXPECT_EQ(a.rejected_down, 0u);
    EXPECT_EQ(a.decided(), a.submitted) << "every submission decides";
    EXPECT_GT(a.committed(), 0u);

    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.outcomes, b.outcomes);
    EXPECT_EQ(a.commit_latency_us.Median(), b.commit_latency_us.Median());
    EXPECT_EQ(a.decision_latency_us.Median(), b.decision_latency_us.Median());
  }
}

TEST(TablePrinterTest, AlignsColumnsAndFormatsCells) {
  TablePrinter table({"name", "value"});
  table.AddRow("x", 1.234567);
  table.AddRow(std::string("longer-name"), uint64_t{42});
  std::ostringstream os;
  table.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("| name        | value |"), std::string::npos) << out;
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  // Four lines: header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

}  // namespace
}  // namespace dvp::workload
