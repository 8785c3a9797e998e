// E2 — Availability under network partition (paper §3, §8).
//
// Claim: during a partition, every DvP group keeps committing against its
// local quotas; quorum consensus serves only the majority group; primary
// copy serves only the group containing the primary; write-all serves no
// one. We run 60s with a partition over [20s, 40s] and report commit rates
// inside the partition window, per group.
#include "baseline/primary_copy.h"
#include "baseline/twopc.h"
#include "bench/bench_common.h"

namespace dvp::bench {
namespace {

constexpr SimTime kRun = 60'000'000;
constexpr SimTime kSplitStart = 20'000'000;
constexpr SimTime kSplitEnd = 40'000'000;

struct GroupStats {
  uint64_t committed = 0;
  uint64_t decided = 0;
};

struct Probe {
  world::SimWorld* world = nullptr;
  // Group index during the window: sites below `split` -> group 0, the
  // rest -> group 1.
  uint32_t split = 2;
  GroupStats in_window[2];
  uint64_t outside_committed = 0;
  uint64_t outside_decided = 0;

  void Record(SiteId at, const txn::TxnResult& r) {
    SimTime now = world->Now();
    bool inside = now >= kSplitStart && now <= kSplitEnd;
    if (!inside) {
      ++outside_decided;
      if (r.committed()) ++outside_committed;
      return;
    }
    int group = at.value() < split ? 0 : 1;
    ++in_window[group].decided;
    if (r.committed()) ++in_window[group].committed;
  }
};

workload::WorkloadOptions Mix(uint64_t seed) {
  workload::WorkloadOptions w;
  w.arrivals_per_sec = 120;
  w.p_decrement = 0.5;
  w.p_increment = 0.5;
  w.p_read = 0;
  w.seed = seed;
  return w;
}

void Report(workload::TablePrinter& table, std::string_view system,
            const Probe& probe) {
  auto rate = [](const GroupStats& g) {
    return g.decided == 0
               ? 0.0
               : 100.0 * double(g.committed) / double(g.decided);
  };
  double outside = probe.outside_decided == 0
                       ? 0.0
                       : 100.0 * double(probe.outside_committed) /
                             double(probe.outside_decided);
  table.AddRow(std::string(system), rate(probe.in_window[0]),
               rate(probe.in_window[1]), outside);
}

/// Splits sites {0..split-1} | {split..3} over [kSplitStart, kSplitEnd],
/// drives the mix through the window and reports the per-group commit rates.
void RunOne(workload::TablePrinter& table, std::string_view system,
            world::SimWorld* world, const std::vector<ItemId>& items,
            uint32_t split = 2) {
  std::vector<std::vector<SiteId>> groups(2);
  for (uint32_t s = 0; s < world->num_sites(); ++s) {
    groups[s < split ? 0 : 1].push_back(SiteId(s));
  }
  world->kernel().ScheduleAt(kSplitStart, [world, groups]() {
    (void)world->Partition(groups);
  });
  world->kernel().ScheduleAt(kSplitEnd, [world]() { world->Heal(); });
  workload::WorkloadDriver driver(world, items, Mix(21));
  Probe probe{world, split, {}, 0, 0};
  driver.set_on_decision([&probe](SiteId at, const txn::TxnSpec&,
                                  const txn::TxnResult& r) {
    probe.Record(at, r);
  });
  (void)driver.Run(kRun);
  Report(table, system, probe);
}

void Main() {
  PrintHeader("E2",
              "availability during a {0,1}|{2,3} partition (20s..40s): "
              "commit %% per group inside the window");
  workload::TablePrinter table({"system", "group{0,1} commit %",
                                "group{2,3} commit %",
                                "outside window commit %"});

  {  // DvP
    std::vector<ItemId> items;
    core::Catalog catalog = MakeCountCatalog(4, 4000, &items);
    system::ClusterOptions opts;
    opts.num_sites = 4;
    opts.seed = 31;
    system::Cluster cluster(&catalog, opts);
    cluster.BootstrapEven();
    RunOne(table, "DvP", &cluster, items);
  }
  {  // 2PC write-all
    std::vector<ItemId> items;
    core::Catalog catalog = MakeCountCatalog(4, 4000, &items);
    baseline::TwoPcOptions opts;
    opts.num_sites = 4;
    opts.seed = 31;
    opts.policy = baseline::ReplicaPolicy::kWriteAll;
    baseline::TwoPcCluster cluster(&catalog, opts);
    cluster.Bootstrap();
    RunOne(table, "2PC write-all", &cluster, items);
  }
  {  // 2PC quorum: split 3|1 so one side has a majority.
    std::vector<ItemId> items;
    core::Catalog catalog = MakeCountCatalog(4, 4000, &items);
    baseline::TwoPcOptions opts;
    opts.num_sites = 4;
    opts.seed = 31;
    opts.policy = baseline::ReplicaPolicy::kQuorum;
    baseline::TwoPcCluster cluster(&catalog, opts);
    cluster.Bootstrap();
    // Group 0 = sites 0..2 (majority), group 1 = site 3 (minority).
    RunOne(table, "2PC quorum (3|1 split)", &cluster, items, /*split=*/3);
  }
  {  // Primary copy
    std::vector<ItemId> items;
    core::Catalog catalog = MakeCountCatalog(4, 4000, &items);
    baseline::PrimaryCopyOptions opts;
    opts.num_sites = 4;
    opts.seed = 31;
    baseline::PrimaryCopyCluster cluster(&catalog, opts);
    cluster.Bootstrap();
    RunOne(table, "PrimaryCopy", &cluster, items);
  }

  table.Print();
  std::cout << "\nDvP: both groups keep committing on their quotas. "
               "Write-all: nobody commits. Quorum: only the majority side. "
               "Primary copy: only the group holding each primary (items are "
               "striped, so each group reaches half its primaries).\n";
}

}  // namespace
}  // namespace dvp::bench

int main() { dvp::bench::Main(); }
