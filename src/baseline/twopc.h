// Traditional baseline: fully replicated data items updated by distributed
// transactions under strict two-phase locking and two-phase commit — the
// system §§1–2 of the paper argue cannot be made non-blocking.
//
// Two replica-control policies:
//   * kWriteAll — every site must grant and prepare (read-one/write-all);
//   * kQuorum   — a majority (or configured w > n/2) must grant; values are
//                 versioned and the coordinator reads the max version among
//                 the grants (Gifford-style quorum consensus).
//
// Blocking semantics modelled faithfully:
//   * A participant that voted YES (forced its prepare record) is in the
//     uncertainty window: it may not abort, release locks, or serve other
//     transactions on those items until it learns the decision — if the
//     network partitions right then, it sits there polling, and the blocked
//     time is measured.
//   * The coordinator itself never blocks (it may always abort before
//     deciding), which is precisely why participants can be stranded.
//
// Recovery is *dependent*: a recovering participant that finds a prepare
// record without a decision must re-acquire the locks and interrogate the
// coordinator — the remote messages DvP recovery never needs (E6).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cc/lock_manager.h"
#include "common/histogram.h"
#include "common/status.h"
#include "common/types.h"
#include "dvpcore/catalog.h"
#include "txn/txn.h"
#include "world/sim_world.h"

namespace dvp::baseline {

enum class ReplicaPolicy { kWriteAll, kQuorum };

struct TwoPcOptions {
  uint32_t num_sites = 4;
  uint64_t seed = 42;
  net::LinkParams link;
  ReplicaPolicy policy = ReplicaPolicy::kWriteAll;
  /// Quorum size; 0 means majority (n/2 + 1). Ignored for kWriteAll.
  uint32_t quorum = 0;
  /// Coordinator patience for grants and votes before unilaterally aborting.
  SimTime coordinator_timeout_us = 300'000;
  /// Blocked-participant poll interval for the decision.
  SimTime decision_retry_us = 100'000;
};

/// A full replicated-data 2PC cluster on world::SimWorld, the substrate DvP
/// runs on (kernel, network fault model, stable logs), so measured
/// differences are protocol, not harness.
class TwoPcCluster final : public world::SimWorld {
 public:
  TwoPcCluster(const core::Catalog* catalog, TwoPcOptions options);
  ~TwoPcCluster();

  TwoPcCluster(const TwoPcCluster&) = delete;
  TwoPcCluster& operator=(const TwoPcCluster&) = delete;

  /// Installs the initial value of every item at every replica.
  void Bootstrap();

  /// Submits a transaction with `at` as coordinator. Reads take a quorum of
  /// exclusive locks too (single lock mode, like the DvP side).
  StatusOr<TxnId> Submit(SiteId at, const txn::TxnSpec& spec,
                         txn::TxnCallback cb) override;

  void CrashSite(SiteId s);
  /// Recovery: redo from log; in-doubt transactions re-block and interrogate
  /// their coordinators. Fires `done` with the number of remote messages the
  /// site had to send before all items became available again.
  void RecoverSite(SiteId s, std::function<void(uint64_t)> done = nullptr);

  /// Value of the replica at one site (requires the site up).
  core::Value ReplicaValue(SiteId s, ItemId item) const;
  /// Latest-version value across reachable replicas (diagnostic).
  core::Value AuthoritativeValue(ItemId item) const;

  /// True iff any participant is currently inside the uncertainty window.
  bool AnyBlockedParticipant() const;
  /// Number of participants currently blocked.
  uint32_t BlockedParticipants() const;

  /// Time participants spent inside the uncertainty window (per episode).
  const Histogram& blocked_time() const { return blocked_time_; }
  /// Commit/abort decision latency at the coordinator.
  const Histogram& decision_latency() const { return decision_latency_; }

 private:
  struct SiteState;
  friend struct SiteState;

  uint32_t QuorumSize() const;
  SiteState& state(SiteId s) { return *sites_[s.value()]; }
  CounterSet SiteCounters() const override;

  const core::Catalog* catalog_;
  TwoPcOptions options_;
  std::vector<std::unique_ptr<SiteState>> sites_;
  Histogram blocked_time_;
  Histogram decision_latency_;
};

}  // namespace dvp::baseline
