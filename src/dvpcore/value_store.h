// The volatile, site-local fragment store: one Fragment per catalog item
// holding this site's share d_i and its lock timestamp TS(d_i). It is a
// cache over the stable database image; a crash destroys it and recovery
// rebuilds it from the image plus the log suffix (§7).
//
// Storage is SPARSE: a fragment is materialised the first time it is
// installed or written, and an absent fragment reads as the domain identity
// (exactly the value the dense store used to pre-fill). At the scale the
// paper's performance question demands (10⁶ items × 100+ sites) a dense
// per-site vector is ~10⁸ fragments across the cluster; each site actually
// holds value for only its slice of the catalog.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/status.h"
#include "common/types.h"
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
  /// Binds the catalog; fragments materialise lazily (absent = identity).
  explicit ValueStore(const Catalog* catalog) : catalog_(catalog) {}

  const Catalog& catalog() const { return *catalog_; }

  /// Installs an initial / recovered fragment state.
  void Install(ItemId item, Value value, Timestamp ts) {
    if (!InCatalog(item)) return;
    fragments_[item.value()] = Fragment{value, ts};
    if (observer_) observer_(item);
  }

  /// Fragment view, by value; an item never written here reads as the
  /// domain identity with a zero timestamp, and reading it inserts nothing
  /// (only writes materialise). Out-of-catalog ids are a caller bug: debug
  /// builds assert, release builds return an inert zero fragment instead of
  /// indexing out of bounds (the old dense store did
  /// `fragments_[item.value()]` unchecked — silent UB exactly in the builds
  /// where the assert was gone).
  Fragment fragment(ItemId item) const {
    if (!InCatalog(item)) return Fragment{};
    auto it = fragments_.find(item.value());
    if (it != fragments_.end()) return it->second;
    return Fragment{catalog_->domain(item).Identity(), Timestamp::Zero()};
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
  /// footprint, and the set a checkpoint must image (absent = identity needs
  /// no image entry). Iteration order is unspecified; consumers that need
  /// determinism must sort or write into an ordered sink.
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
  /// Creates the fragment at its domain identity on first touch. References
  /// stay stable across inserts (node-based map).
  Fragment& Materialize(ItemId item) {
    auto [it, inserted] = fragments_.try_emplace(item.value());
    if (inserted) {
      it->second.value = catalog_->domain(item).Identity();
    }
    return it->second;
  }

  const Catalog* catalog_;
  /// Materialised by the first write (Install, SetValue, SetTs).
  std::unordered_map<uint32_t, Fragment> fragments_;
  std::function<void(ItemId)> observer_;
};

}  // namespace dvp::core
