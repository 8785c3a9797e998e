#include "placement/placement.h"

#include <algorithm>

namespace dvp::placement {

namespace {

/// Largest value moved by one rebalancer push; pacing bounds how fast
/// placement can churn (a misprediction is cheap to undo).
constexpr core::Value kRebalanceChunk = 16;
/// Pushes attempted per rebalance tick across all items.
constexpr uint32_t kRebalanceMaxPushes = 2;
/// Fraction of the local fragment (permille) always kept home, so a site
/// never strips itself bare chasing someone else's demand spike.
constexpr core::Value kRebalanceReservePermille = 250;
/// A peer only counts as a hot spot above this decayed demand level.
constexpr core::Value kRebalanceMinDemand = 2;

}  // namespace

PlacementManager::PlacementManager(SiteId self, uint32_t num_sites,
                                   runtime::Runtime* rt,
                                   core::ValueStore* store,
                                   obs::MetricsRegistry* metrics,
                                   PlacementOptions options)
    : self_(self),
      num_sites_(num_sites),
      rt_(rt),
      store_(store),
      options_(options),
      m_hint_observed_(obs::CounterIn(metrics, "placement.hint.observed")),
      m_hint_hit_(obs::CounterIn(metrics, "placement.hint.hit")),
      m_hint_miss_(obs::CounterIn(metrics, "placement.hint.miss")),
      m_hint_stale_(obs::CounterIn(metrics, "placement.hint.stale")),
      m_hint_empty_(obs::CounterIn(metrics, "placement.hint.empty")),
      m_rebalance_push_(obs::CounterIn(metrics, "placement.rebalance.push")),
      m_rebalance_value_(obs::CounterIn(metrics, "placement.rebalance.value")) {
  // Feed the advert ring from store writes: any item whose fragment moves
  // here may have surplus worth advertising. This is what keeps AdvertsFor
  // O(active) — the ring tracks touched items instead of scanning the
  // catalog. (Demand bumps feed the ring on their own path.)
  if (options_.hints_per_frame > 0) {
    store_->set_observer([this](ItemId item) { TouchAdvert(item.value()); });
    // Fragments materialised before this manager existed (bootstrap images,
    // recovery replay) still get airtime.
    for (const auto& [item, frag] : store_->resident_fragments()) {
      (void)frag;
      TouchAdvert(item);
    }
    std::sort(advert_ring_.begin(), advert_ring_.end());  // resident order
                                                          // is unspecified
  }
}

PlacementManager::~PlacementManager() {
  *alive_ = false;
  if (options_.hints_per_frame > 0) store_->set_observer(nullptr);
}

void PlacementManager::TouchAdvert(uint32_t item) {
  if (options_.hints_per_frame == 0) return;
  if (advert_members_.insert(item).second) advert_ring_.push_back(item);
}

void PlacementManager::RetireAdvert(size_t pos) {
  advert_members_.erase(advert_ring_[pos]);
  advert_ring_[pos] = advert_ring_.back();
  advert_ring_.pop_back();
}

bool PlacementManager::DemandGone(uint32_t item, SimTime now) {
  auto it = demand_.find(item);
  if (it == demand_.end()) return true;
  DecayInPlace(it->second, now);
  if (it->second.level_q8 <= 0) {
    demand_.erase(it);
    return true;
  }
  return false;
}

std::vector<net::PlacementHint> PlacementManager::AdvertsFor(SiteId dst) {
  (void)dst;  // advertisements describe only the sender; same for every peer
  std::vector<net::PlacementHint> out;
  if (options_.hints_per_frame == 0 || advert_ring_.empty()) return out;
  SimTime now = rt_->Now();
  uint64_t stamp = static_cast<uint64_t>(now);
  // At most one lap over the ring as it stood on entry; each step either
  // emits/keeps (cursor advances) or retires a drained entry (ring shrinks).
  size_t budget = advert_ring_.size();
  while (budget-- > 0 && out.size() < options_.hints_per_frame &&
         !advert_ring_.empty()) {
    if (advert_cursor_ >= advert_ring_.size()) advert_cursor_ = 0;
    ItemId item(advert_ring_[advert_cursor_]);
    const core::Domain& domain = store_->catalog().domain(item);
    core::Value surplus = domain.MaxShippable(store_->value(item));
    if (surplus <= 0 && DemandGone(item.value(), now)) {
      // Nothing left to say about this item; drop it from the ring. A later
      // store write or demand bump re-adds it.
      RetireAdvert(advert_cursor_);
      continue;
    }
    core::Value demand = LocalDemand(item);
    if (surplus > 0 || demand > 0) {
      out.push_back(net::PlacementHint{item, surplus, demand, stamp});
    }
    ++advert_cursor_;
  }
  return out;
}

void PlacementManager::OnHints(SiteId src,
                               const std::vector<net::PlacementHint>& hints) {
  if (src == self_ || src.value() >= num_sites_) return;
  SimTime now = rt_->Now();
  for (const net::PlacementHint& h : hints) {
    if (h.item.value() >= store_->num_items()) continue;
    HintRow& row = cache_[h.item.value()];
    auto [it, inserted] = row.try_emplace(src.value());
    CachedHint& entry = it->second;
    if (inserted) {
      ++cache_entry_count_;
      cache_entries_peak_ = std::max(cache_entries_peak_, cache_entry_count_);
    } else if (h.stamp < entry.stamp) {
      continue;  // reordered frame: older view
    }
    entry.surplus = h.surplus;
    entry.demand = h.demand;
    entry.stamp = h.stamp;
    entry.seen_at = now;
    m_hint_observed_->Inc();
  }
}

std::vector<PlacementManager::Target> PlacementManager::RankTargets(
    ItemId item) {
  std::vector<Target> out;
  if (item.value() >= store_->num_items()) return out;
  SimTime now = rt_->Now();
  auto row = cache_.find(item.value());
  if (row != cache_.end()) {
    for (const auto& [site, h] : row->second) {
      if (!Fresh(h, now)) {
        m_hint_stale_->Inc();
        continue;
      }
      if (h.surplus <= 0) continue;
      out.push_back(Target{SiteId(site), h.surplus});
    }
  }
  std::sort(out.begin(), out.end(), [](const Target& a, const Target& b) {
    if (a.surplus != b.surplus) return a.surplus > b.surplus;
    return a.site.value() < b.site.value();
  });
  (out.empty() ? m_hint_miss_ : m_hint_hit_)->Inc();
  return out;
}

void PlacementManager::NoteShipped(SiteId src, ItemId item,
                                   core::Value amount) {
  if (src == self_ || src.value() >= num_sites_ ||
      item.value() >= store_->num_items()) {
    return;
  }
  auto row = cache_.find(item.value());
  if (row == cache_.end()) return;
  auto it = row->second.find(src.value());
  if (it == row->second.end()) return;  // never advertised; nothing to correct
  it->second.surplus = std::max<core::Value>(0, it->second.surplus - amount);
  it->second.seen_at = rt_->Now();  // a shipment is fresh direct evidence
}

void PlacementManager::NoteEmpty(SiteId src, ItemId item) {
  if (src == self_ || src.value() >= num_sites_ ||
      item.value() >= store_->num_items()) {
    return;
  }
  auto [it, inserted] = cache_[item.value()].try_emplace(src.value());
  if (inserted) {
    ++cache_entry_count_;
    cache_entries_peak_ = std::max(cache_entries_peak_, cache_entry_count_);
  }
  it->second.surplus = 0;
  it->second.seen_at = rt_->Now();
  m_hint_empty_->Inc();
}

void PlacementManager::DecayInPlace(Demand& d, SimTime now) const {
  if (d.level_q8 <= 0 || options_.demand_halflife_us <= 0) return;
  int64_t halvings = (now - d.updated_at) / options_.demand_halflife_us;
  if (halvings <= 0) return;
  d.level_q8 = halvings >= 62 ? 0 : d.level_q8 >> halvings;
  d.updated_at += halvings * options_.demand_halflife_us;
}

void PlacementManager::BumpDemand(ItemId item, core::Value amount) {
  if (amount <= 0 || item.value() >= store_->num_items()) return;
  Demand& d = demand_[item.value()];
  DecayInPlace(d, rt_->Now());
  d.level_q8 += amount << 8;
  if (d.level_q8 == amount << 8) d.updated_at = rt_->Now();
  TouchAdvert(item.value());  // demand alone makes an item worth advertising
}

void PlacementManager::NoteShortfall(ItemId item, core::Value amount) {
  BumpDemand(item, amount);
}

void PlacementManager::NoteTimeout(ItemId item, core::Value remaining) {
  // Double weight: a timeout means the gather failed outright, the strongest
  // evidence that value must move here proactively.
  BumpDemand(item, remaining * 2);
}

core::Value PlacementManager::LocalDemand(ItemId item) const {
  auto it = demand_.find(item.value());
  if (it == demand_.end()) return 0;
  Demand d = it->second;
  DecayInPlace(d, rt_->Now());
  return static_cast<core::Value>(d.level_q8 >> 8);
}

void PlacementManager::Start() {
  if (!options_.rebalance || options_.rebalance_interval_us <= 0) return;
  ArmTick();
}

void PlacementManager::ArmTick() {
  // Small per-site phase offset so the fleet's ticks interleave instead of
  // all landing on the same instants (deterministic: no RNG draw).
  SimTime delay = options_.rebalance_interval_us +
                  static_cast<SimTime>(self_.value()) * 997;
  rt_->Schedule(delay, [this, alive = alive_]() {
    if (!*alive) return;
    Tick();
    ArmTick();
  });
}

void PlacementManager::Tick() {
  if (!send_value_fn_ || cache_.empty()) return;
  SimTime now = rt_->Now();
  // A hint row untouched this long is dead weight: evict rather than let the
  // cache grow monotonically with every item ever hinted.
  SimTime evict_after = options_.hint_staleness_us *
                        static_cast<SimTime>(std::max<uint32_t>(
                            1, options_.cache_evict_staleness_windows));
  uint32_t pushes = 0;
  // One lap over the ACTIVE set — cost scales with hinted items, never with
  // catalog width.
  size_t limit = cache_.size();
  auto it = cache_.lower_bound(rebalance_cursor_);
  for (size_t scanned = 0;
       scanned < limit && pushes < kRebalanceMaxPushes; ++scanned) {
    if (it == cache_.end()) it = cache_.begin();
    HintRow& row = it->second;
    for (auto h = row.begin(); h != row.end();) {
      if (now - h->second.seen_at > evict_after) {
        h = row.erase(h);
        --cache_entry_count_;
      } else {
        ++h;
      }
    }
    if (row.empty()) {
      it = cache_.erase(it);
      continue;
    }
    if (TryPush(ItemId(it->first), row)) ++pushes;
    ++it;
  }
  rebalance_cursor_ = it == cache_.end() ? 0 : it->first;
}

bool PlacementManager::TryPush(ItemId item, HintRow& row) {
  const core::Domain& domain = store_->catalog().domain(item);
  core::Value local = store_->value(item);
  core::Value shippable = domain.MaxShippable(local);
  core::Value own_demand = LocalDemand(item);
  // Never strip the fragment bare: keep the reserve slice and whatever our
  // own decayed demand suggests we are about to need.
  core::Value reserve =
      local > 0 ? local * kRebalanceReservePermille / 1000 : 0;
  core::Value avail = shippable - std::max(reserve, own_demand);
  if (avail <= 0) return false;

  // Hottest fresh peer: largest unmet demand (advertised demand beyond what
  // the peer already holds), strictly hotter than we are. The row is ordered
  // by site id and the comparison strict, so the lowest site wins ties.
  SimTime now = rt_->Now();
  CachedHint* best = nullptr;
  SiteId best_site = SiteId::Invalid();
  core::Value best_need = 0;
  for (auto& [site, h] : row) {
    if (site == self_.value()) continue;
    if (!Fresh(h, now)) continue;
    if (h.demand < kRebalanceMinDemand) continue;
    if (h.demand <= own_demand) continue;
    core::Value need = h.demand - h.surplus;
    if (need > best_need) {
      best = &h;
      best_site = SiteId(site);
      best_need = need;
    }
  }
  if (best == nullptr || best_need <= 0) return false;

  core::Value amount = std::min({avail, kRebalanceChunk, best_need});
  if (amount <= 0) return false;
  if (!send_value_fn_(best_site, item, amount).ok()) return false;
  m_rebalance_push_->Inc();
  m_rebalance_value_->Inc(static_cast<uint64_t>(amount));
  // Served: damp the cached demand so the next tick waits for the peer to
  // re-advertise instead of piling more pushes onto one stale reading.
  best->demand = std::max<core::Value>(0, best->demand - amount);
  return true;
}

}  // namespace dvp::placement
