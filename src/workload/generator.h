// Open-loop workload generation: Poisson arrivals of a reserve/cancel/read
// mix against any world::SimWorld (DvP or a baseline), with Zipf skew over
// items and over sites, collecting per-outcome counts and latency
// histograms. This is the engine behind every experiment's load.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/types.h"
#include "txn/txn.h"
#include "world/sim_world.h"

namespace dvp::workload {

struct WorkloadOptions {
  /// Cluster-wide mean arrival rate, transactions per simulated second.
  double arrivals_per_sec = 200;
  /// Operation mix (normalised internally).
  double p_decrement = 0.70;  ///< reserve / withdraw / allocate
  double p_increment = 0.25;  ///< cancel / deposit / restock
  double p_read = 0.05;       ///< full read of the item value (drain)
  /// Stamped snapshot read of the item value (ReadMode::kSnapshot): no value
  /// moves, no locks. At 0 (the default) the mix draw thresholds are
  /// unchanged, so existing seeds keep their exact RNG stream.
  double p_snapshot = 0.0;
  /// Multi-item atomic sets (0 = none, the seed mix). A transfer moves the
  /// drawn amount between two Zipf-drawn distinct items; an order decrements
  /// stock and books the same quantity as revenue. Both need >= 2 items in
  /// the catalog — with fewer they are excluded from the mix. The extra RNG
  /// draws (second item) happen only when a multi-item class is actually
  /// drawn, so runs with these knobs at 0 keep the seed's exact RNG stream.
  double p_transfer = 0.0;
  double p_order = 0.0;
  /// Amount drawn uniformly from [amount_min, amount_max].
  core::Value amount_min = 1;
  core::Value amount_max = 5;
  /// Item popularity skew (0 = uniform; 0.99 = classic hot-spot).
  double item_zipf_theta = 0.0;
  /// Site-of-submission skew (0 = uniform; higher concentrates demand at
  /// low-numbered sites, stressing redistribution).
  double site_zipf_theta = 0.0;
  /// When >= 0, increments use this site skew instead (e.g. decrements
  /// concentrated at one site while cancellations arrive everywhere — the
  /// sustained-imbalance pattern that keeps value flowing as Vm).
  double increment_site_zipf_theta = -1.0;
  uint64_t seed = 1234;
};

/// Aggregated outcome of one workload run.
struct WorkloadResults {
  uint64_t submitted = 0;
  uint64_t rejected_down = 0;  ///< Submit refused (site down)
  std::map<txn::TxnOutcome, uint64_t> outcomes;
  Histogram commit_latency_us;
  Histogram abort_latency_us;
  Histogram decision_latency_us;  ///< all decisions (the non-blocking bound)
  Histogram gather_rounds;

  uint64_t committed() const {
    auto it = outcomes.find(txn::TxnOutcome::kCommitted);
    return it == outcomes.end() ? 0 : it->second;
  }
  uint64_t decided() const {
    uint64_t n = 0;
    for (const auto& [k, v] : outcomes) {
      (void)k;
      n += v;
    }
    return n;
  }
  double commit_rate() const {
    return submitted == 0 ? 0.0
                          : static_cast<double>(committed()) /
                                static_cast<double>(submitted);
  }
  double throughput_per_sec(SimTime duration_us) const {
    return duration_us == 0 ? 0.0
                            : static_cast<double>(committed()) * 1e6 /
                                  static_cast<double>(duration_us);
  }
};

/// Drives Poisson arrivals against `world` for `duration_us` of virtual
/// time, then keeps running `drain_us` longer so in-flight transactions
/// reach their decisions.
class WorkloadDriver {
 public:
  WorkloadDriver(world::SimWorld* world, const std::vector<ItemId>& items,
                 WorkloadOptions options);

  /// Optional per-commit hook (the serializability checker taps in here).
  void set_on_commit(
      std::function<void(TxnId, const txn::TxnSpec&, const txn::TxnResult&)>
          hook) {
    on_commit_ = std::move(hook);
  }

  /// Optional per-decision hook (availability probes tag results by group;
  /// the spec lets callers classify reads vs writes).
  void set_on_decision(std::function<void(SiteId, const txn::TxnSpec&,
                                          const txn::TxnResult&)>
                           hook) {
    on_decision_ = std::move(hook);
  }

  /// Runs the workload; returns aggregated results.
  WorkloadResults Run(SimTime duration_us, SimTime drain_us = 2'000'000);

  /// Builds one transaction from the mix (exposed for tests).
  txn::TxnSpec MakeSpec(Rng& rng);

  /// Picks the submission site for a spec built by MakeSpec.
  SiteId PickSite(Rng& rng, const txn::TxnSpec& spec);

 private:
  void ScheduleNextArrival(SimTime horizon_end);
  void SubmitOne();

  world::SimWorld* world_;
  std::vector<ItemId> items_;
  WorkloadOptions options_;
  Rng rng_;
  ZipfGenerator item_zipf_;
  ZipfGenerator site_zipf_;
  ZipfGenerator increment_site_zipf_;
  WorkloadResults results_;
  std::function<void(TxnId, const txn::TxnSpec&, const txn::TxnResult&)>
      on_commit_;
  std::function<void(SiteId, const txn::TxnSpec&, const txn::TxnResult&)>
      on_decision_;
};

}  // namespace dvp::workload
