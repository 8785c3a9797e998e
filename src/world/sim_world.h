// The simulated substrate every system here runs on: one deterministic event
// kernel, one seeded Rng, one fault-modelled network and one stable storage
// per site. DvP (system::Cluster) and the traditional baselines
// (baseline::TwoPcCluster, baseline::PrimaryCopyCluster) derive from it, so
// they share the kernel, the network's fault model, the logs and the driving
// surface: measured differences between them are protocol, not harness.
// Workload drivers, partition injectors and probes take a SimWorld*.
//
// Randomness: the network draws from rng.Fork(1) and site s from
// rng.Fork(100 + s) (SiteRng), so a seed replays the same history whatever
// the system on top.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "net/network.h"
#include "sim/kernel.h"
#include "txn/txn.h"
#include "wal/stable_storage.h"

namespace dvp::world {

class SimWorld {
 public:
  virtual ~SimWorld();

  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  /// Submits a transaction at `at`; the system decides how it runs.
  virtual StatusOr<TxnId> Submit(SiteId at, const txn::TxnSpec& spec,
                                 txn::TxnCallback cb) = 0;

  /// Advances virtual time by `us`.
  void RunFor(SimTime us);
  /// Runs until the event queue drains or `max_us` elapses.
  void RunUntilQuiescent(SimTime max_us);
  SimTime Now() const { return kernel_.Now(); }

  Status Partition(const std::vector<std::vector<SiteId>>& groups);
  void Heal();

  uint32_t num_sites() const { return static_cast<uint32_t>(storages_.size()); }
  sim::Kernel& kernel() { return kernel_; }
  net::Network& network() { return *network_; }
  wal::StableStorage& storage(SiteId s) { return *storages_[s.value()]; }
  /// Every site's stable storage, for the auditors.
  std::vector<const wal::StableStorage*> Storages() const;

  /// Sum of all sites' counters plus the network's (net.*).
  CounterSet AggregateCounters() const;

 protected:
  /// Enables `perturb` before anything can be scheduled, then builds the
  /// network and the storages.
  SimWorld(uint32_t num_sites, uint64_t seed, const net::LinkParams& link,
           const sim::PerturbOptions& perturb = {});

  /// Site s's private random stream.
  Rng SiteRng(SiteId s) const { return rng_.Fork(100 + s.value()); }

  /// Every site's own counters, merged.
  virtual CounterSet SiteCounters() const = 0;

 private:
  sim::Kernel kernel_;
  Rng rng_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<wal::StableStorage>> storages_;
};

}  // namespace dvp::world
