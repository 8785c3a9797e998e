#include "system/real_cluster.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "system/cluster.h"
#include "verify/conservation.h"

namespace dvp::system {

RealCluster::RealCluster(const core::Catalog* catalog,
                         RealClusterOptions options)
    : catalog_(catalog), options_(options), rng_(options.seed) {
  if (options_.site.txn.scheme == cc::CcScheme::kConc2) {
    // Conc2 is sound only over a loss-free atomic ordered broadcast (§6.2);
    // UdpConduit::Broadcast is a best-effort datagram fan-out. Running it
    // anyway would lose or reorder requests without any error to show.
    std::fprintf(stderr,
                 "RealCluster: concurrency scheme Conc2 needs an atomic "
                 "ordered broadcast, which the real runtime does not have\n");
    std::abort();
  }
  real_ = std::make_unique<runtime::Real>(options_.num_sites,
                                          options_.runtime);
  storages_.reserve(options_.num_sites);
  sites_.reserve(options_.num_sites);
  for (uint32_t s = 0; s < options_.num_sites; ++s) {
    storages_.push_back(std::make_unique<wal::StableStorage>(SiteId(s)));
    sites_.push_back(std::make_unique<site::Site>(
        SiteId(s), &real_->loop(SiteId(s)), &real_->conduit(),
        storages_.back().get(), catalog_, rng_.Fork(100 + s),
        options_.site));
  }
}

RealCluster::~RealCluster() { Stop(); }

void RealCluster::BootstrapEven() {
  assert(!real_->loop(SiteId(0)).running() &&
         "bootstrap must precede Start()");
  for (uint32_t s = 0; s < options_.num_sites; ++s) {
    std::map<ItemId, core::Value> per_site;
    for (ItemId item : catalog_->AllItems()) {
      per_site[item] = SplitEven(catalog_->info(item).initial_total,
                                 options_.num_sites)[s];
    }
    sites_[s]->Bootstrap(per_site);
  }
}

void RealCluster::Start() { real_->Start(); }

void RealCluster::Stop() { real_->Stop(); }

void RealCluster::Submit(SiteId at, txn::TxnSpec spec, txn::TxnCallback cb) {
  site::Site* target = sites_[at.value()].get();
  real_->loop(at).Post(
      [target, spec = std::move(spec), cb = std::move(cb)]() mutable {
        txn::TxnCallback on_done = cb;
        StatusOr<TxnId> id = target->Submit(spec, std::move(cb));
        if (!id.ok() && on_done) {
          // Rejected at Begin (site down, invalid spec): settle the
          // submission through the same callback so drivers counting
          // completions never hang on it.
          txn::TxnResult result;
          result.outcome = txn::TxnOutcome::kAbortInvalid;
          result.status = id.status();
          on_done(result);
        }
      });
}

std::vector<const wal::StableStorage*> RealCluster::Storages() const {
  std::vector<const wal::StableStorage*> out;
  out.reserve(storages_.size());
  for (const auto& s : storages_) out.push_back(s.get());
  return out;
}

Status RealCluster::AuditAll() const {
  return verify::AuditAll(Storages(), *catalog_);
}

}  // namespace dvp::system
