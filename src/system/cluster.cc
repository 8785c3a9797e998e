#include "system/cluster.h"

#include <cassert>
#include <numeric>

namespace dvp::system {

namespace {

/// Share `i` of SplitEven(total, n), without building the other n - 1.
core::Value EvenShare(core::Value total, uint32_t n, uint32_t i) {
  assert(n > 0 && i < n);
  // Floor division, so the remainder is in [0, n) for either sign of total.
  core::Value share = total / n;
  core::Value remainder = total % n;
  if (remainder < 0) {
    --share;
    remainder += n;
  }
  return i < remainder ? share + 1 : share;
}

}  // namespace

std::vector<core::Value> SplitEven(core::Value total, uint32_t n) {
  std::vector<core::Value> out(n);
  for (uint32_t i = 0; i < n; ++i) out[i] = EvenShare(total, n, i);
  return out;
}

void BootEven(const core::Catalog& catalog,
              const std::vector<std::unique_ptr<site::Site>>& sites) {
  const uint32_t n = static_cast<uint32_t>(sites.size());
  // One site's slice at a time: holding every slice at once interleaves
  // their nodes in the heap, which made a 100k-item, 3-site boot slower and
  // its peak memory higher.
  for (uint32_t s = 0; s < n; ++s) {
    std::map<ItemId, core::Value> slice;
    for (uint32_t i = 0; i < catalog.num_items(); ++i) {
      core::Value total = catalog.info(ItemId(i)).initial_total;
      slice.emplace_hint(slice.end(), ItemId(i), EvenShare(total, n, s));
    }
    sites[s]->Bootstrap(slice);
  }
}

Cluster::Cluster(const core::Catalog* catalog, ClusterOptions options)
    : world::SimWorld(options.num_sites, options.seed, options.link,
                      options.perturb),
      catalog_(catalog),
      options_(options) {
  // Bind the shared trace recorder (if any) to this cluster's virtual clock
  // so every component's events carry the simulation timestamp.
  if (options_.site.trace) options_.site.trace->Attach(&kernel());
  sites_.reserve(options_.num_sites);
  for (uint32_t s = 0; s < options_.num_sites; ++s) {
    sites_.push_back(std::make_unique<site::Site>(
        SiteId(s), &kernel(), &network(), &storage(SiteId(s)), catalog_,
        SiteRng(SiteId(s)), options_.site));
  }
}

Cluster::~Cluster() = default;

void Cluster::BootstrapEven() {
  assert(!booted_);
  if (booted_) return;  // release-build guard
  BootEven(*catalog_, sites_);
  booted_ = true;
}

void Cluster::BootstrapHomed() {
  assert(!booted_);
  if (booted_) return;  // release-build guard
  // Build each site's slice directly: no per-item num_sites-wide share
  // vectors, no cross-site validation loop. Domain validity of "everything"
  // and "nothing" is the bootstrap invariant the even split also relies on.
  for (uint32_t s = 0; s < options_.num_sites; ++s) {
    std::map<ItemId, core::Value> per_site;
    for (uint32_t i = s; i < catalog_->num_items(); i += options_.num_sites) {
      per_site[ItemId(i)] = catalog_->info(ItemId(i)).initial_total;
    }
    sites_[s]->Bootstrap(per_site);
  }
  booted_ = true;
}

Status Cluster::Bootstrap(
    const std::map<ItemId, std::vector<core::Value>>& alloc) {
  if (booted_) return Status::FailedPrecondition("cluster already booted");
  for (const auto& [item, shares] : alloc) {
    if (shares.size() != options_.num_sites) {
      return Status::InvalidArgument("allocation size != num_sites");
    }
    core::Value sum = std::accumulate(shares.begin(), shares.end(),
                                      core::Value{0});
    if (sum != catalog_->info(item).initial_total) {
      return Status::InvalidArgument(
          "allocation for " + catalog_->info(item).name +
          " does not sum to the initial total");
    }
    for (core::Value v : shares) {
      if (!catalog_->domain(item).ValidFragment(v)) {
        return Status::InvalidArgument("invalid fragment in allocation");
      }
    }
  }
  for (uint32_t s = 0; s < options_.num_sites; ++s) {
    std::map<ItemId, core::Value> per_site;
    for (const auto& [item, shares] : alloc) per_site[item] = shares[s];
    sites_[s]->Bootstrap(per_site);
  }
  booted_ = true;
  return Status::OK();
}

StatusOr<TxnId> Cluster::Submit(SiteId at, const txn::TxnSpec& spec,
                                txn::TxnCallback cb) {
  return sites_[at.value()]->Submit(spec, std::move(cb));
}

void Cluster::CrashSite(SiteId s) { sites_[s.value()]->Crash(); }

void Cluster::RecoverSite(SiteId s) { sites_[s.value()]->Recover(); }

verify::ConservationBreakdown Cluster::Audit(ItemId item) const {
  return verify::AuditItem(Storages(), *catalog_, item);
}

Status Cluster::AuditAll() const {
  return verify::AuditAll(Storages(), *catalog_);
}

verify::LiveValueFn Cluster::LiveView() const {
  return [this](SiteId s, ItemId item) -> std::optional<core::Value> {
    const site::Site& site = *sites_[s.value()];
    if (!site.IsUp()) return std::nullopt;
    return site.LocalValue(item);
  };
}

Status Cluster::AuditAllVolatile() const {
  return verify::AuditAll(Storages(), *catalog_, LiveView());
}

CounterSet Cluster::SiteCounters() const {
  CounterSet out;
  for (const auto& s : sites_) out.Merge(s->counters());
  return out;
}

}  // namespace dvp::system
