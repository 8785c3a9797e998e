#include "system/cluster.h"

#include <cassert>
#include <numeric>

namespace dvp::system {

std::vector<core::Value> SplitEven(core::Value total, uint32_t n) {
  assert(n > 0);
  std::vector<core::Value> out(n, total / n);
  core::Value remainder = total % n;
  for (uint32_t i = 0; i < remainder; ++i) ++out[i];
  return out;
}

Cluster::Cluster(const core::Catalog* catalog, ClusterOptions options)
    : catalog_(catalog), options_(options), rng_(options.seed) {
  kernel_.EnablePerturbation(options_.perturb);
  // Bind the shared trace recorder (if any) to this cluster's virtual clock
  // so every component's events carry the simulation timestamp.
  if (options_.site.trace) options_.site.trace->Attach(&kernel_);
  network_ = std::make_unique<net::Network>(&kernel_, options_.num_sites,
                                            options_.link, rng_.Fork(1));
  storages_.reserve(options_.num_sites);
  sites_.reserve(options_.num_sites);
  for (uint32_t s = 0; s < options_.num_sites; ++s) {
    storages_.push_back(std::make_unique<wal::StableStorage>(SiteId(s)));
    sites_.push_back(std::make_unique<site::Site>(
        SiteId(s), &kernel_, network_.get(), storages_.back().get(), catalog_,
        rng_.Fork(100 + s), options_.site));
  }
}

Cluster::~Cluster() = default;

void Cluster::BootstrapEven() {
  std::map<ItemId, std::vector<core::Value>> alloc;
  for (ItemId item : catalog_->AllItems()) {
    alloc[item] = SplitEven(catalog_->info(item).initial_total,
                            options_.num_sites);
  }
  Status s = Bootstrap(alloc);
  assert(s.ok());
  (void)s;
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

void Cluster::RunFor(SimTime us) { kernel_.Run(kernel_.Now() + us); }

void Cluster::RunUntilQuiescent(SimTime max_us) {
  // Unlike RunFor, the clock is left at the last executed event when the
  // queue drains before the deadline — "how long did this actually take".
  SimTime deadline = kernel_.Now() + max_us;
  while (kernel_.NextEventTime() <= deadline) {
    if (!kernel_.Step()) break;
  }
}

SimTime Cluster::Now() const { return kernel_.Now(); }

Status Cluster::Partition(const std::vector<std::vector<SiteId>>& groups) {
  return network_->partition().Split(groups);
}

void Cluster::Heal() { network_->partition().Heal(); }

void Cluster::CrashSite(SiteId s) { sites_[s.value()]->Crash(); }

void Cluster::RecoverSite(SiteId s) { sites_[s.value()]->Recover(); }

std::vector<const wal::StableStorage*> Cluster::Storages() const {
  std::vector<const wal::StableStorage*> out;
  out.reserve(storages_.size());
  for (const auto& s : storages_) out.push_back(s.get());
  return out;
}

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

CounterSet Cluster::AggregateCounters() const {
  CounterSet out;
  for (const auto& s : sites_) out.Merge(s->counters());
  const net::NetworkStats& ns = network_->stats();
  out.Inc("net.sent", ns.packets_sent);
  out.Inc("net.delivered", ns.packets_delivered);
  out.Inc("net.lost_link", ns.packets_lost_link);
  out.Inc("net.lost_partition", ns.packets_lost_partition);
  out.Inc("net.lost_down", ns.packets_lost_down);
  out.Inc("net.duplicated", ns.packets_duplicated);
  out.Inc("net.bytes_sent", ns.bytes_sent);
  out.Inc("net.bytes_delivered", ns.bytes_delivered);
  return out;
}

}  // namespace dvp::system
