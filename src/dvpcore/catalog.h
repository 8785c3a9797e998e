// System-wide item catalog: the static mapping from ItemId to name and
// domain. The catalog is replicated metadata agreed at configuration time
// (like a schema); it never changes during a run, so it lives outside the
// crash-volatile state.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "dvpcore/domain.h"

namespace dvp::core {

/// One catalog entry.
struct ItemInfo {
  std::string name;
  const Domain* domain = nullptr;
  /// The item's initial total value N = Π(initial fragments).
  Value initial_total = 0;
};

class Catalog {
 public:
  /// Registers an item; ids are dense, assigned in registration order.
  /// Aborts if `initial_total` is not a valid fragment of `domain` (a
  /// negative count or money total): no even split of it is valid either.
  ItemId AddItem(std::string name, const Domain& domain, Value initial_total);

  const ItemInfo& info(ItemId item) const { return items_[item.value()]; }
  const Domain& domain(ItemId item) const {
    return *items_[item.value()].domain;
  }
  uint32_t num_items() const { return static_cast<uint32_t>(items_.size()); }

  /// Looks up an item by name.
  StatusOr<ItemId> Find(std::string_view name) const;

  std::vector<ItemId> AllItems() const;

 private:
  std::vector<ItemInfo> items_;
};

}  // namespace dvp::core
