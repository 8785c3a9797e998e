#include "dvpcore/catalog.h"

#include <cstdio>
#include <cstdlib>

namespace dvp::core {

ItemId Catalog::AddItem(std::string name, const Domain& domain,
                        Value initial_total) {
  if (!domain.ValidFragment(initial_total)) {
    // An even split of an invalid total boots invalid fragments (a count
    // item at -9 on four sites is -2/-2/-2/-3), and the run would go on to
    // conserve a value the domain forbids. Refused in every build type.
    std::fprintf(stderr,
                 "Catalog: item %s: initial total %lld is not a valid %.*s "
                 "value\n",
                 name.c_str(), static_cast<long long>(initial_total),
                 static_cast<int>(domain.name().size()), domain.name().data());
    std::abort();
  }
  items_.push_back(ItemInfo{std::move(name), &domain, initial_total});
  return ItemId(static_cast<uint32_t>(items_.size() - 1));
}

StatusOr<ItemId> Catalog::Find(std::string_view name) const {
  for (uint32_t i = 0; i < items_.size(); ++i) {
    if (items_[i].name == name) return ItemId(i);
  }
  return Status::NotFound("no item named " + std::string(name));
}

std::vector<ItemId> Catalog::AllItems() const {
  std::vector<ItemId> out;
  out.reserve(items_.size());
  for (uint32_t i = 0; i < items_.size(); ++i) out.push_back(ItemId(i));
  return out;
}

}  // namespace dvp::core
