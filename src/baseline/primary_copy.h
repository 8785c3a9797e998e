// Traditional baseline: primary-copy. Each item lives at a designated
// primary site; every transaction on it is forwarded there and executed as a
// local, single-site transaction. Non-blocking (the primary decides alone)
// but availability collapses to "can you reach the primary": a partition
// makes the item unusable for every other group, and a primary crash makes
// it unusable for everyone (no election protocol — §2.2's "a primary copy
// site fails" caveat). It runs on world::SimWorld, the substrate DvP runs
// on, so measured differences are protocol, not harness.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "common/types.h"
#include "dvpcore/catalog.h"
#include "txn/txn.h"
#include "world/sim_world.h"

namespace dvp::baseline {

struct PrimaryCopyOptions {
  uint32_t num_sites = 4;
  uint64_t seed = 42;
  net::LinkParams link;
  /// Origin-side patience for the primary's reply.
  SimTime request_timeout_us = 300'000;
};

class PrimaryCopyCluster final : public world::SimWorld {
 public:
  PrimaryCopyCluster(const core::Catalog* catalog, PrimaryCopyOptions options);
  ~PrimaryCopyCluster();

  /// Installs initial values at each item's primary.
  void Bootstrap();

  /// Primary of an item: round-robin by id.
  SiteId PrimaryOf(ItemId item) const {
    return SiteId(item.value() % options_.num_sites);
  }

  /// Submits at `at`; ops are forwarded to the primary. All items of one
  /// transaction must share a primary (cross-primary transactions would need
  /// 2PC, which is the other baseline).
  StatusOr<TxnId> Submit(SiteId at, const txn::TxnSpec& spec,
                         txn::TxnCallback cb) override;

  void CrashSite(SiteId s);
  void RecoverSite(SiteId s);

  core::Value PrimaryValue(ItemId item) const;
  const Histogram& decision_latency() const { return decision_latency_; }

 private:
  struct SiteState;

  CounterSet SiteCounters() const override;

  const core::Catalog* catalog_;
  PrimaryCopyOptions options_;
  std::vector<std::unique_ptr<SiteState>> sites_;
  Histogram decision_latency_;
};

}  // namespace dvp::baseline
