// The volatile, site-local fragment store: one Fragment per catalog item
// holding this site's share d_i and its lock timestamp TS(d_i). It is a
// cache over the stable database image; a crash destroys it and recovery
// rebuilds it from the image plus the log suffix (§7).
//
// Storage is SPARSE: a fragment is materialised the first time it is
// installed or written, and an absent fragment reads as this site's boot
// share (BootRule): its even share of the item's initial total, the whole
// total at the item's home site, or the domain identity for a site booted
// from an explicit allocation. A boot therefore writes nothing per item, and
// the store holds only the items the site has touched since: at 10⁶ items ×
// 100+ sites a dense per-site vector is ~10⁸ fragments across the cluster.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/status.h"
#include "common/types.h"
#include "dvpcore/boot_rule.h"
#include "dvpcore/catalog.h"
#include "dvpcore/domain.h"

namespace dvp::core {

/// One site's share of one item.
struct Fragment {
  Value value = 0;
  /// Timestamp of the last transaction to have locked this fragment (§6.1).
  Timestamp ts = Timestamp::Zero();
};

class ValueStore {
 public:
  /// Binds the catalog; fragments materialise lazily (absent = boot share,
  /// the identity until set_boot_rule).
  explicit ValueStore(const Catalog* catalog) : catalog_(catalog) {}

  const Catalog& catalog() const { return *catalog_; }

  /// Sets what absent fragments read as. Call before the first write: a
  /// resident fragment keeps the value it was written with.
  void set_boot_rule(BootRule rule) { boot_ = rule; }
  const BootRule& boot_rule() const { return boot_; }
  /// What `item` reads as while no write has materialised it here.
  Value BootShare(ItemId item) const { return boot_.Share(*catalog_, item); }

  /// Installs an initial / recovered fragment state.
  void Install(ItemId item, Value value, Timestamp ts) {
    if (!InCatalog(item)) return;
    fragments_[item.value()] = Fragment{value, ts};
    if (observer_) observer_(item);
  }

  /// Fragment view, by value; an item never written here reads as its boot
  /// share with a zero timestamp, and reading it inserts nothing
  /// (only writes materialise). Out-of-catalog ids are a caller bug: debug
  /// builds assert, release builds return an inert zero fragment instead of
  /// indexing out of bounds (the old dense store did
  /// `fragments_[item.value()]` unchecked — silent UB exactly in the builds
  /// where the assert was gone).
  Fragment fragment(ItemId item) const {
    if (!InCatalog(item)) return Fragment{};
    auto it = fragments_.find(item.value());
    if (it != fragments_.end()) return it->second;
    return Fragment{BootShare(item), Timestamp::Zero()};
  }
  Value value(ItemId item) const { return fragment(item).value; }
  Timestamp ts(ItemId item) const { return fragment(item).ts; }

  /// Overwrites the fragment value (caller has verified domain validity and
  /// logged the change).
  void SetValue(ItemId item, Value value) {
    if (!InCatalog(item)) return;
    Materialize(item).value = value;
    if (observer_) observer_(item);
  }
  void SetTs(ItemId item, Timestamp ts) {
    if (!InCatalog(item)) return;
    Materialize(item).ts = ts;
  }

  /// Catalog width, NOT resident count: ids in [0, num_items) are valid.
  uint32_t num_items() const { return catalog_->num_items(); }

  /// Fragments actually materialised at this site — the store's real memory
  /// footprint, and the set a checkpoint must image (an absent fragment is
  /// its boot share, which the stable boot rule already records). Iteration
  /// order is unspecified; consumers that need determinism must sort or
  /// write into an ordered sink.
  const std::unordered_map<uint32_t, Fragment>& resident_fragments() const {
    return fragments_;
  }
  size_t resident_count() const { return fragments_.size(); }

  /// Change notification: invoked with the item after every Install/SetValue
  /// (not SetTs — timestamps don't move value). The placement layer uses it
  /// to keep its advert ring O(active items) without scanning the catalog.
  void set_observer(std::function<void(ItemId)> fn) {
    observer_ = std::move(fn);
  }

 private:
  bool InCatalog(ItemId item) const {
    bool ok = item.valid() && item.value() < catalog_->num_items();
    assert(ok && "ValueStore: out-of-catalog ItemId");
    return ok;
  }
  /// Creates the fragment at its boot share on first touch — a lock-only
  /// SetTs too, so a later checkpoint images the share and not the
  /// identity. References stay stable across inserts (node-based map).
  Fragment& Materialize(ItemId item) {
    auto [it, inserted] = fragments_.try_emplace(item.value());
    if (inserted) it->second.value = BootShare(item);
    return it->second;
  }

  const Catalog* catalog_;
  BootRule boot_;
  /// Materialised by the first write (Install, SetValue, SetTs).
  std::unordered_map<uint32_t, Fragment> fragments_;
  std::function<void(ItemId)> observer_;
};

}  // namespace dvp::core
