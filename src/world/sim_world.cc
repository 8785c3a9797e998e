#include "world/sim_world.h"

namespace dvp::world {

SimWorld::SimWorld(uint32_t num_sites, uint64_t seed,
                   const net::LinkParams& link,
                   const sim::PerturbOptions& perturb)
    : rng_(seed) {
  kernel_.EnablePerturbation(perturb);
  network_ = std::make_unique<net::Network>(&kernel_, num_sites, link,
                                            rng_.Fork(1));
  storages_.reserve(num_sites);
  for (uint32_t s = 0; s < num_sites; ++s) {
    storages_.push_back(std::make_unique<wal::StableStorage>(SiteId(s)));
  }
}

SimWorld::~SimWorld() = default;

void SimWorld::RunFor(SimTime us) { kernel_.Run(kernel_.Now() + us); }

void SimWorld::RunUntilQuiescent(SimTime max_us) {
  // Unlike RunFor, the clock is left at the last executed event when the
  // queue drains before the deadline — "how long did this actually take".
  SimTime deadline = kernel_.Now() + max_us;
  while (kernel_.NextEventTime() <= deadline) {
    if (!kernel_.Step()) break;
  }
}

Status SimWorld::Partition(const std::vector<std::vector<SiteId>>& groups) {
  return network_->partition().Split(groups);
}

void SimWorld::Heal() { network_->partition().Heal(); }

std::vector<const wal::StableStorage*> SimWorld::Storages() const {
  std::vector<const wal::StableStorage*> out;
  out.reserve(storages_.size());
  for (const auto& s : storages_) out.push_back(s.get());
  return out;
}

CounterSet SimWorld::AggregateCounters() const {
  CounterSet out = SiteCounters();
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

}  // namespace dvp::world
