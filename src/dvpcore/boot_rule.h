// A site's boot share: what each of its fragments holds before anything is
// written there. A boot that splits or homes every item's initial total is a
// pure function of (initial total, number of sites, site), so a site records
// that function once — in its stable storage, next to the image, because it
// is durable configuration like the catalog — instead of one fragment per
// item. Every reader of an absent fragment (the live store, recovery, the
// checkpoint, snapshot replies, the audit ledger) reads it through this rule.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "dvpcore/domain.h"

namespace dvp::core {

class Catalog;

/// Share `i` of `total` split evenly over `n` sites: the n shares sum to
/// `total`, differ by at most one, and the larger ones go to the low indices.
Value EvenShare(Value total, uint32_t n, uint32_t i);

struct BootRule {
  enum class Kind : uint8_t {
    /// No share anywhere: an unbooted site, or one booted from an explicit
    /// allocation (whose fragments are installed one by one).
    kIdentity,
    /// EvenShare(initial total, num_sites, site) of every item.
    kEven,
    /// The whole initial total of item i at site i % num_sites.
    kHomed,
  };
  Kind kind = Kind::kIdentity;
  uint32_t num_sites = 0;
  uint32_t site = 0;

  static BootRule Even(uint32_t num_sites, SiteId site) {
    return BootRule{Kind::kEven, num_sites, site.value()};
  }
  static BootRule Homed(uint32_t num_sites, SiteId site) {
    return BootRule{Kind::kHomed, num_sites, site.value()};
  }

  /// True when the boot gave this site a share of `item`, even a zero one:
  /// every item under an even split, the home items under homing.
  bool Covers(ItemId item) const {
    switch (kind) {
      case Kind::kEven:
        return true;
      case Kind::kHomed:
        return item.value() % num_sites == site;
      case Kind::kIdentity:
        break;
    }
    return false;
  }

  /// Calls fn(item) for every item below `num_items` that Covers, in id
  /// order, stepping over the items it does not (O(items covered)).
  template <typename Fn>
  void ForEachCovered(uint32_t num_items, Fn fn) const {
    if (kind == Kind::kIdentity) return;
    uint32_t step = kind == Kind::kHomed ? num_sites : 1;
    for (uint32_t i = kind == Kind::kHomed ? site : 0; i < num_items;
         i += step) {
      fn(ItemId(i));
    }
  }

  /// This site's boot share of `item`, a catalog item; the domain identity
  /// where the rule gives the site none.
  Value Share(const Catalog& catalog, ItemId item) const;
};

}  // namespace dvp::core
