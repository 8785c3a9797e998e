// Public facade: a complete DvP system — n DvP sites on the shared simulated
// substrate (world::SimWorld: kernel, fault-modelled network, stable storage
// per site) — plus fault-injection and measurement hooks. This is the API the
// examples and benchmarks program against.
//
// Typical use (the paper's §3 airline example):
//
//   core::Catalog catalog;
//   ItemId flight_a = catalog.AddItem("flightA", core::CountDomain::Instance(), 100);
//   system::ClusterOptions opts;
//   opts.num_sites = 4;
//   system::Cluster cluster(&catalog, opts);
//   cluster.BootstrapEven();                       // 25 seats per site
//   cluster.Submit(SiteId(0), reserve_3_seats, cb);
//   cluster.RunFor(1'000'000);
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "dvpcore/catalog.h"
#include "net/link.h"
#include "sim/kernel.h"
#include "site/site.h"
#include "verify/conservation.h"
#include "world/sim_world.h"

namespace dvp::system {

struct ClusterOptions {
  uint32_t num_sites = 4;
  uint64_t seed = 42;
  net::LinkParams link;
  site::SiteOptions site;
  /// Schedule perturbation (chaos runs search interleavings with this);
  /// disabled by default — see sim::PerturbOptions.
  sim::PerturbOptions perturb;

  /// Convenience: configure for Conc2 (strict 2PL + ordered broadcast).
  /// Forces synchronous, loss-free FIFO links — Conc2's stated environment.
  ClusterOptions& UseConc2() {
    site.txn.scheme = cc::CcScheme::kConc2;
    link = net::LinkParams::Synchronous(link.base_delay_us);
    return *this;
  }
};

class Cluster final : public world::SimWorld {
 public:
  Cluster(const core::Catalog* catalog, ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // ---- Initial allocation ---------------------------------------------------

  /// Splits every item's initial total evenly across sites (SplitEven) and
  /// boots every site.
  void BootstrapEven();

  /// Boots with an explicit per-item, per-site allocation. Each vector must
  /// have num_sites entries summing to the item's initial total.
  Status Bootstrap(const std::map<ItemId, std::vector<core::Value>>& alloc);

  /// Boots with item i's FULL initial total at its home site (i mod
  /// num_sites) and nothing anywhere else. O(items) setup where an explicit
  /// Bootstrap allocation is O(items × sites) — the difference between a
  /// million-item cluster booting instantly and building 10⁸ map entries.
  /// Placement starts maximally skewed, which is exactly the regime the
  /// redistribution machinery is measured under.
  void BootstrapHomed();

  // ---- Work -----------------------------------------------------------------

  /// Submits a transaction at `at`. Fails fast if the site is down.
  StatusOr<TxnId> Submit(SiteId at, const txn::TxnSpec& spec,
                         txn::TxnCallback cb) override;

  // ---- Fault injection (Partition and Heal: SimWorld) -------------------------

  void CrashSite(SiteId s);
  void RecoverSite(SiteId s);

  // ---- Introspection ----------------------------------------------------------

  site::Site& site(SiteId s) { return *sites_[s.value()]; }
  const site::Site& site(SiteId s) const { return *sites_[s.value()]; }
  const core::Catalog& catalog() const { return *catalog_; }

  /// Durable conservation breakdown for one item.
  verify::ConservationBreakdown Audit(ItemId item) const;
  /// Checks the durable conservation invariant for all items, with one log
  /// pass per site (verify::LogLedger), so it finishes at 10⁶ items × 100
  /// sites.
  Status AuditAll() const;

  /// Checks conservation in *both* views: the durable one and the volatile
  /// one, where every up site contributes its live in-memory fragment
  /// instead of its durable rebuild. Catches cache/WAL divergence that the
  /// stable-storage audit alone cannot see.
  Status AuditAllVolatile() const;

  /// The live-value accessor the volatile audit uses (up sites only).
  verify::LiveValueFn LiveView() const;

  /// Current durable item total (fragments + in-flight).
  core::Value TotalOf(ItemId item) const { return Audit(item).total(); }

 private:
  CounterSet SiteCounters() const override;

  const core::Catalog* catalog_;
  ClusterOptions options_;
  std::vector<std::unique_ptr<site::Site>> sites_;
  bool booted_ = false;
};

/// Splits `total` into `n` shares that sum to `total` and differ by at most
/// one; the larger shares go to the low indices.
std::vector<core::Value> SplitEven(core::Value total, uint32_t n);

/// Boots every site with its SplitEven share of every item: the allocation
/// behind both facades' BootstrapEven. Each site computes only its own
/// share, so a boot costs O(items × sites) with no per-item share vector.
void BootEven(const core::Catalog& catalog,
              const std::vector<std::unique_ptr<site::Site>>& sites);

}  // namespace dvp::system
