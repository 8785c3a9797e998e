// Demand-aware fragment placement: the layer that turns the paper's Rds
// machinery (§6) into a policy that keeps value where transactions need it.
//
// Three cooperating pieces, all advisory — correctness never depends on any
// of them (a wrong hint costs extra messages or a timeout abort, exactly what
// the blind protocol already risks; every value move is an ordinary Vm):
//
//  * Surplus hints. Each site piggybacks bounded, freshness-stamped per-item
//    advertisements of its own shippable surplus and local demand pressure on
//    packets it already sends (PlacementOptions::hints_per_frame — the same
//    free-rider trick as the cumulative piggyback ack). Peers fold them into
//    a SurplusMap cache.
//  * Surplus-directed gather. TxnManager::SendRequests consults
//    RankTargets(): fresh advertised surplus ranks the targets and the
//    shortfall is split proportionally to what each can actually ship,
//    falling back to randomized fan-out when hints are stale or absent.
//    NACK/empty outcomes and observed shipments feed back into the cache so
//    it self-corrects faster than the staleness horizon.
//  * Background rebalancer. An EWMA of local shortfalls and timeout aborts
//    tracks per-item demand; surplus sites issue paced SendValue pushes
//    toward advertised demand hot spots so subsequent transactions there hit
//    the write-only/locally-satisfiable fast path with zero redistribution
//    messages.
//
// The cache and demand state is SPARSE and sized by activity, not by catalog
// width. The advert side keeps a ring of the items this site holds a share
// of — seeded from its boot rule (every item under an even split), then fed
// by a ValueStore observer and by demand bumps — so building a frame's hints
// never scans num_items, though the ring itself is O(items) after an even
// boot until drained entries retire; the cache side keys by hinted item then
// by site, so a
// million-item catalog with a few thousand hot items costs a few thousand
// entries — not sites×items — and the rebalance tick walks only items some
// peer has advertised.
//
// Everything is integer arithmetic on kernel time — no RNG streams, no
// floating point — so chaos runs stay a pure function of seed and schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "dvpcore/value_store.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"

namespace dvp::placement {

struct PlacementOptions {
  /// Advertisements piggybacked per outgoing packet; 0 keeps the placement
  /// layer entirely off the wire (seed behavior).
  uint32_t hints_per_frame = 0;
  /// A cached hint older than this never directs a gather — the requester
  /// falls back to blind fan-out rather than trust a stale view.
  SimTime hint_staleness_us = 400'000;
  /// Background rebalancer: paced Rds pushes from surplus toward demand.
  bool rebalance = false;
  SimTime rebalance_interval_us = 250'000;
  /// Demand EWMA halving period (integer halvings of elapsed/halflife).
  SimTime demand_halflife_us = 1'000'000;
  /// A cached hint untouched for this many staleness windows is evicted by
  /// the rebalance tick; bounds cache memory to recently-hinted items.
  uint32_t cache_evict_staleness_windows = 8;
};

/// Per-site placement state: the SurplusMap cache of peers' advertisements,
/// the local demand EWMA, and the rebalance tick. Volatile — a crash loses
/// it and the rebuilt site re-learns from the hint stream.
class PlacementManager {
 public:
  /// One ranked gather target: a peer with fresh advertised surplus.
  struct Target {
    SiteId site;
    core::Value surplus = 0;
  };

  PlacementManager(SiteId self, uint32_t num_sites, runtime::Runtime* rt,
                   core::ValueStore* store, obs::MetricsRegistry* metrics,
                   PlacementOptions options);
  ~PlacementManager();

  // ---- Advertiser side ----------------------------------------------------

  /// Up to hints_per_frame advertisements for a packet to `dst`: own
  /// shippable surplus + decayed demand per item, round-robin over the ring
  /// of touched items so every active item gets airtime even on narrow
  /// frames. Called by the transport at send time, so even retransmissions
  /// carry the freshest view. Cost is O(hints_per_frame + entries retired),
  /// never O(num_items).
  std::vector<net::PlacementHint> AdvertsFor(SiteId dst);

  // ---- Cache side ---------------------------------------------------------

  /// Folds a frame's piggybacked hints into the cache; a hint whose stamp is
  /// older than the cached one is dropped (reordered frames must not roll the
  /// cache backwards).
  void OnHints(SiteId src, const std::vector<net::PlacementHint>& hints);

  /// Peers with fresh positive advertised surplus for `item`, largest first
  /// (ties broken by site id for determinism). Empty = no usable hints; the
  /// caller falls back to blind fan-out.
  std::vector<Target> RankTargets(ItemId item);

  // ---- Feedback -----------------------------------------------------------

  /// A peer shipped `amount` of `item` to us: its advertised surplus shrank
  /// by at least that much, and the shipment is fresh direct evidence.
  void NoteShipped(SiteId src, ItemId item, core::Value amount);
  /// A peer answered a directed request with "nothing to ship".
  void NoteEmpty(SiteId src, ItemId item);
  /// A local transaction came up `amount` short on `item` (bumps demand).
  void NoteShortfall(ItemId item, core::Value amount);
  /// A local transaction timed out still `remaining` short — weighted double:
  /// unresolved demand is the signal the rebalancer most needs to see.
  void NoteTimeout(ItemId item, core::Value remaining);

  /// Decayed local-demand EWMA for `item` (value units).
  core::Value LocalDemand(ItemId item) const;

  // ---- Rebalancer ---------------------------------------------------------

  /// The Rds push primitive (TxnManager::SendValue); wired by the Site after
  /// the transaction manager exists.
  void set_send_value_fn(
      std::function<Status(SiteId dst, ItemId item, core::Value amount)> fn) {
    send_value_fn_ = std::move(fn);
  }

  /// Arms the rebalance tick when options().rebalance is set.
  void Start();

  const PlacementOptions& options() const { return options_; }

  // ---- Introspection (memory proxies for the scale bench) ------------------

  /// Items currently in the advert ring (boot-share or touched items, not
  /// yet retired).
  size_t advert_ring_size() const { return advert_ring_.size(); }
  /// Hinted items / total (item, site) hint entries currently cached.
  size_t cache_items() const { return cache_.size(); }
  size_t cache_entries() const { return cache_entry_count_; }
  /// High-water mark of cache_entries() — the O(active) claim, measurable.
  size_t cache_entries_peak() const { return cache_entries_peak_; }
  /// Items with live (undecayed) local demand state.
  size_t demand_entries() const { return demand_.size(); }

 private:
  struct CachedHint {
    core::Value surplus = 0;
    core::Value demand = 0;
    uint64_t stamp = 0;    ///< sender send time; monotone per (src, item)
    SimTime seen_at = -1;  ///< local receive time; -1 = never heard
  };
  /// Demand EWMA in Q8 fixed point, decayed lazily by whole halflives.
  struct Demand {
    int64_t level_q8 = 0;
    SimTime updated_at = 0;
  };
  /// Hints about one item, keyed by advertising site. Ordered so ranking and
  /// push-target scans are deterministic without a sort over sites.
  using HintRow = std::map<uint32_t, CachedHint>;

  bool Fresh(const CachedHint& h, SimTime now) const {
    return h.seen_at >= 0 && now - h.seen_at <= options_.hint_staleness_us;
  }
  void DecayInPlace(Demand& d, SimTime now) const;
  void BumpDemand(ItemId item, core::Value amount);
  /// Ensures `item` is in the advert ring (no-op when hints are off).
  void TouchAdvert(uint32_t item);
  /// Swap-erases ring slot `pos`; the cursor then points at the moved-in
  /// tail element, so callers keep scanning without skipping it.
  void RetireAdvert(size_t pos);
  /// Decays the item's demand entry; erases and returns true when no Q8 mass
  /// is left (the item can leave the advert ring).
  bool DemandGone(uint32_t item, SimTime now);
  void ArmTick();
  void Tick();
  /// One rebalance attempt for `item`; true if a push went out.
  bool TryPush(ItemId item, HintRow& row);

  SiteId self_;
  uint32_t num_sites_;
  runtime::Runtime* rt_;
  core::ValueStore* store_;
  PlacementOptions options_;

  obs::Counter* m_hint_observed_;
  obs::Counter* m_hint_hit_;
  obs::Counter* m_hint_miss_;
  obs::Counter* m_hint_stale_;
  obs::Counter* m_hint_empty_;
  obs::Counter* m_rebalance_push_;
  obs::Counter* m_rebalance_value_;

  /// Peer advertisements, cache_[item][site]; only items some peer has
  /// actually hinted (or NACKed) exist. Ordered by item so the rebalance
  /// cursor can resume deterministically across inserts and evictions.
  std::map<uint32_t, HintRow> cache_;
  size_t cache_entry_count_ = 0;
  size_t cache_entries_peak_ = 0;
  /// Local demand EWMAs, only for items with undecayed mass.
  std::map<uint32_t, Demand> demand_;

  /// Items worth advertising: the items the site's boot rule gave it a
  /// share of, everything its store has materialised since, and everything
  /// with local demand. Entries whose surplus and demand have both drained
  /// are retired lazily as the cursor passes them.
  std::vector<uint32_t> advert_ring_;
  /// Ring membership, one bit per catalog item (empty with hints off).
  std::vector<bool> advert_members_;
  size_t advert_cursor_ = 0;
  /// Item id (not index) the next rebalance tick resumes from.
  uint32_t rebalance_cursor_ = 0;

  std::function<Status(SiteId, ItemId, core::Value)> send_value_fn_;
  /// Tick lambdas capture this instead of trusting `this` to outlive them
  /// (the Site destroys its PlacementManager on crash while the kernel queue
  /// may still hold the tick event).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace dvp::placement
