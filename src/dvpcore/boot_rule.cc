#include "dvpcore/boot_rule.h"

#include <cassert>

#include "dvpcore/catalog.h"

namespace dvp::core {

Value EvenShare(Value total, uint32_t n, uint32_t i) {
  assert(n > 0 && i < n);
  // Floor division, so the remainder is in [0, n) for either sign of total.
  Value share = total / n;
  Value remainder = total % n;
  if (remainder < 0) {
    --share;
    remainder += n;
  }
  return i < remainder ? share + 1 : share;
}

Value BootRule::Share(const Catalog& catalog, ItemId item) const {
  const ItemInfo& info = catalog.info(item);
  if (kind == Kind::kEven) return EvenShare(info.initial_total, num_sites, site);
  if (Covers(item)) return info.initial_total;  // homed, at the home site
  return info.domain->Identity();
}

}  // namespace dvp::core
