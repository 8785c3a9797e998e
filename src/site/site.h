// One site of the DvP system: the composition of fragment store, lock table,
// Vm machinery, transaction manager, transport and stable storage, plus the
// crash/recover lifecycle. Volatile components live behind unique_ptrs and
// are destroyed wholesale on a crash; the StableStorage object is owned by
// the harness and survives, mirroring disk vs RAM.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "cc/lock_manager.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/types.h"
#include "dvpcore/catalog.h"
#include "dvpcore/value_store.h"
#include "net/conduit.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "placement/placement.h"
#include "recovery/recovery.h"
#include "runtime/runtime.h"
#include "txn/txn.h"
#include "txn/txn_manager.h"
#include "vm/vm_manager.h"
#include "wal/group_commit.h"
#include "wal/stable_storage.h"

namespace dvp::site {

struct SiteOptions {
  txn::TxnManagerOptions txn;
  net::Transport::Options transport;
  /// Demand-aware placement: surplus-hint piggyback + background rebalancer
  /// (both off by default).
  placement::PlacementOptions placement;
  /// Group-commit force policy (off by default: each commit point is forced
  /// at once).
  wal::GroupCommitOptions group_commit;
  /// Automatic checkpoint period; 0 disables (manual Checkpoint() only).
  SimTime checkpoint_interval_us = 0;
  /// Simulated redo cost per log-suffix record during recovery.
  SimTime recovery_us_per_record = 5;
  /// Optional causal trace recorder shared by every component of the site
  /// (and, via ClusterOptions.site, by the whole cluster). Null = tracing
  /// off, which costs one pointer test per would-be event.
  obs::TraceRecorder* trace = nullptr;
};

class Site {
 public:
  Site(SiteId id, runtime::Runtime* rt, net::Conduit* conduit,
       wal::StableStorage* storage, const core::Catalog* catalog, Rng rng,
       SiteOptions options);
  ~Site();

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  /// First boot. Records `rule` — what every fragment reads as until it is
  /// written — in stable storage, and installs `initial_fragments` on top of
  /// it into the stable image and the live store. An even or homed boot
  /// passes its rule and no fragments, and so writes nothing per item; an
  /// explicit allocation passes its fragments over the identity rule. Call
  /// once, before running.
  void Bootstrap(const std::map<ItemId, core::Value>& initial_fragments,
                 core::BootRule rule = {});

  /// Submits a transaction here (§5). Fails fast when the site is down.
  StatusOr<TxnId> Submit(const txn::TxnSpec& spec, txn::TxnCallback cb);

  // ---- Failure lifecycle ---------------------------------------------------

  /// Clean crash: volatile state evaporates; pending transactions report
  /// site-failure (or commit, if their commit record was already forced).
  void Crash();

  /// Begins recovery; the site comes back up after the simulated redo time
  /// and is immediately able to process local transactions — no remote
  /// communication happens at any point (§7).
  void Recover(std::function<void(const recovery::RecoveryReport&)> done =
                   nullptr);

  bool IsUp() const { return up_; }

  /// True while a Recover() is scheduled but not yet complete; a second
  /// Recover (or a Crash) must wait it out.
  bool IsRecovering() const { return recovering_; }

  /// Flushes the fragment store to the stable image and advances the
  /// checkpoint, shortening future recoveries.
  void Checkpoint();

  // ---- Redistribution conveniences (Rds transactions, §5) ------------------

  void Prefetch(ItemId item, core::Value amount);
  Status SendValue(SiteId dst, ItemId item, core::Value amount);

  // ---- Introspection --------------------------------------------------------

  SiteId id() const { return id_; }
  const core::Catalog& catalog() const { return *catalog_; }
  wal::StableStorage& storage() { return *storage_; }
  const wal::StableStorage& storage() const { return *storage_; }
  /// Legacy compatibility view of the metrics registry (dotted names, only
  /// counters that have counted). Returned by value: the registry is the
  /// store, this is a rendering.
  CounterSet counters() const { return metrics_.AsCounterSet(); }
  /// The typed registry all of this site's components register with.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Live fragment value; requires the site to be up.
  core::Value LocalValue(ItemId item) const;

  /// The value recovery would produce — authoritative even while down.
  core::Value DurableValue(ItemId item) const;

  core::ValueStore* store() { return store_.get(); }
  cc::LockManager* locks() { return locks_.get(); }
  placement::PlacementManager* placement() { return placement_.get(); }
  vm::VmManager* vm() { return vm_.get(); }
  txn::TxnManager* txns() { return txn_.get(); }
  net::Transport* transport() { return transport_.get(); }
  wal::GroupCommitLog* wal() { return wal_.get(); }
  LamportClock& clock() { return clock_; }

 private:
  /// Builds the volatile components over a store holding the durable base
  /// (boot rule and image; recovery::LoadImage), so the placement layer
  /// seeds its advert ring from what the site held before any replay.
  void BuildVolatile();
  /// Returns true when the payload was consumed (transport may ack/dedup);
  /// false defers it to a later retransmission (locked-item Vm transfers).
  bool OnEnvelope(SiteId from, net::EnvelopePtr payload);
  void ArmCheckpointTimer();

  SiteId id_;
  runtime::Runtime* rt_;
  net::Conduit* conduit_;
  wal::StableStorage* storage_;
  const core::Catalog* catalog_;
  Rng rng_;
  SiteOptions options_;
  obs::MetricsRegistry metrics_;
  LamportClock clock_;
  bool up_ = false;
  bool recovering_ = false;
  uint64_t lifecycle_generation_ = 0;  // invalidates stale timers

  // Volatile components (destroyed on crash). The group-commit scheduler is
  // volatile too: its batch buffer and pending completion callbacks die with
  // the crash, and Crash() drops the matching unforced log tail.
  std::unique_ptr<core::ValueStore> store_;
  std::unique_ptr<cc::LockManager> locks_;
  std::unique_ptr<placement::PlacementManager> placement_;
  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<wal::GroupCommitLog> wal_;
  std::unique_ptr<vm::VmManager> vm_;
  std::unique_ptr<txn::TxnManager> txn_;
};

}  // namespace dvp::site
