// A complete DvP system on the real runtime: n sites, one OS thread and one
// loopback UDP socket each, stable storage per site — the same composition
// as system::Cluster with runtime::Real swapped in for the sim kernel and
// its network. The protocol sources underneath are identical; this facade
// only changes how drivers interact with them:
//
//  * Site state is owned by its loop thread once Start() runs. Submit()
//    marshals onto the target site's loop; completion callbacks fire on that
//    loop thread. Construction and Bootstrap happen before Start() on the
//    caller's thread.
//  * There is no RunFor/RunUntilQuiescent — wall-clock time passes by
//    itself. Drivers pace themselves and detect quiescence from their own
//    completion counts (see bench_realtime).
//  * Fault injection (partitions, crash/recover) is not carried over; the
//    sim remains the place where failures are searched. Real loss exists —
//    and can be injected per-datagram via Options::runtime.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "dvpcore/catalog.h"
#include "runtime/real.h"
#include "site/site.h"
#include "txn/txn.h"
#include "wal/stable_storage.h"

namespace dvp::system {

struct RealClusterOptions {
  uint32_t num_sites = 4;
  uint64_t seed = 42;
  site::SiteOptions site;
  runtime::Real::Options runtime;
};

class RealCluster {
 public:
  RealCluster(const core::Catalog* catalog, RealClusterOptions options);
  ~RealCluster();

  RealCluster(const RealCluster&) = delete;
  RealCluster& operator=(const RealCluster&) = delete;

  /// Splits every item's initial total evenly across sites and boots every
  /// site. Call before Start().
  void BootstrapEven();

  /// Starts every site's loop thread; timers armed during construction
  /// begin firing. Stop() joins them all (idempotent; the destructor calls
  /// it too). After Stop() the storages are quiescent and safe to audit.
  void Start();
  void Stop();

  /// Submits a transaction at `at` from any thread: the submission is
  /// marshalled onto that site's loop, and `cb` runs there when the
  /// transaction settles. Fire-and-forget — a rejection at Begin (site down,
  /// invalid spec) settles through `cb` with kAbortInvalid and the rejecting
  /// status, so drivers counting completions never hang on it.
  void Submit(SiteId at, txn::TxnSpec spec, txn::TxnCallback cb);

  uint32_t num_sites() const { return options_.num_sites; }
  runtime::Real& runtime() { return *real_; }
  site::Site& site(SiteId s) { return *sites_[s.value()]; }
  wal::StableStorage& storage(SiteId s) { return *storages_[s.value()]; }
  const core::Catalog& catalog() const { return *catalog_; }

  std::vector<const wal::StableStorage*> Storages() const;

  /// Durable conservation over every item (see verify::AuditAllBulk: one
  /// log pass per site, not per item). Only meaningful while the loops are
  /// stopped — the auditor replays logs the loop threads would otherwise
  /// still be appending to.
  Status AuditAll() const;

 private:
  const core::Catalog* catalog_;
  RealClusterOptions options_;
  Rng rng_;
  std::unique_ptr<runtime::Real> real_;
  std::vector<std::unique_ptr<wal::StableStorage>> storages_;
  std::vector<std::unique_ptr<site::Site>> sites_;
};

}  // namespace dvp::system
