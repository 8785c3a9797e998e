#include "site/site.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "proto/wire.h"

namespace dvp::site {

Site::Site(SiteId id, runtime::Runtime* rt, net::Conduit* conduit,
           wal::StableStorage* storage, const core::Catalog* catalog, Rng rng,
           SiteOptions options)
    : id_(id),
      rt_(rt),
      conduit_(conduit),
      storage_(storage),
      catalog_(catalog),
      rng_(rng),
      options_(options),
      clock_(id) {
  conduit_->RegisterEndpoint(
      id_,
      [this](const net::Packet& packet) {
        if (!up_ || !transport_) return;
        transport_->OnPacket(packet);
      },
      [this]() { return up_; });
}

Site::~Site() = default;

void Site::BuildVolatile() {
  store_ = std::make_unique<core::ValueStore>(catalog_);
  recovery::LoadImage(*storage_, store_.get());
  locks_ = std::make_unique<cc::LockManager>();
  placement_ = std::make_unique<placement::PlacementManager>(
      id_, conduit_->num_sites(), rt_, store_.get(), &metrics_,
      options_.placement);
  transport_ = std::make_unique<net::Transport>(rt_, conduit_, id_,
                                                &metrics_, options_.transport,
                                                options_.trace);
  transport_->set_epoch(storage_->incarnation());
  transport_->set_deliver_fn([this](SiteId from, net::EnvelopePtr payload) {
    return OnEnvelope(from, std::move(payload));
  });
  if (options_.placement.hints_per_frame > 0) {
    transport_->set_hint_fn(
        [this](SiteId dst) { return placement_->AdvertsFor(dst); });
    transport_->set_hint_sink(
        [this](SiteId src, const std::vector<net::PlacementHint>& hints) {
          placement_->OnHints(src, hints);
        });
  }
  wal_ = std::make_unique<wal::GroupCommitLog>(rt_, storage_, &metrics_,
                                               options_.group_commit,
                                               options_.trace);
  bool stamp_on_accept = options_.txn.scheme == cc::CcScheme::kConc1;
  vm_ = std::make_unique<vm::VmManager>(
      id_, wal_.get(), store_.get(), locks_.get(), transport_.get(), &clock_,
      &metrics_, stamp_on_accept, options_.txn.accept_stamp, options_.trace);
  // The transport's cumulative ack doubles as the Vm acceptance signal: it
  // fires when the peer has consumed the transfer even if every explicit
  // VmAckMsg was lost.
  transport_->set_ack_fn(
      [this](uint64_t token) { vm_->OnTransportAck(token); });
  txn_ = std::make_unique<txn::TxnManager>(
      id_, conduit_->num_sites(), rt_, wal_.get(), store_.get(),
      locks_.get(), vm_.get(), transport_.get(), &clock_, &metrics_,
      rng_.Fork(0xff00 + lifecycle_generation_), options_.txn, options_.trace,
      placement_.get());
  // The rebalancer's pushes are ordinary Rds/Vm transfers through the
  // transaction manager — conservation holds by construction.
  placement_->set_send_value_fn(
      [this](SiteId dst, ItemId item, core::Value amount) {
        return txn_->SendValue(dst, item, amount);
      });
  placement_->Start();
}

void Site::Bootstrap(const std::map<ItemId, core::Value>& initial_fragments,
                     core::BootRule rule) {
  assert(!up_ && "Bootstrap is for first boot only");
  if (up_) return;  // release-build guard
  storage_->set_boot_rule(rule);
  BuildVolatile();
  for (const auto& [item, value] : initial_fragments) {
    assert(catalog_->domain(item).ValidFragment(value));
    storage_->WriteImage(item, value, Timestamp::Zero().packed());
    store_->Install(item, value, Timestamp::Zero());
  }
  storage_->set_checkpoint_upto(storage_->log_size());
  up_ = true;
  ArmCheckpointTimer();
}

StatusOr<TxnId> Site::Submit(const txn::TxnSpec& spec, txn::TxnCallback cb) {
  if (!up_) return Status::Unavailable("site is down");
  return txn_->Begin(spec, std::move(cb));
}

void Site::Crash() {
  if (!up_) return;
  up_ = false;
  ++lifecycle_generation_;
  metrics_.counter("site.crashes")->Inc();
  if (options_.trace) {
    options_.trace->Instant(id_, obs::Track::kSite, "site.crash");
  }
  // Pending transactions get their final verdict before the state dies.
  txn_->CrashAbortAll();
  transport_->Crash();
  txn_.reset();
  vm_.reset();
  wal_.reset();
  transport_.reset();
  placement_.reset();
  locks_.reset();
  store_.reset();
  // The batch buffer dies with the scheduler: records never covered by a
  // force were volatile, and the crash is the moment that shows.
  uint64_t dropped = storage_->DropUnforcedTail();
  if (dropped > 0) metrics_.counter("wal.dropped_unforced")->Inc(dropped);
}

void Site::Recover(
    std::function<void(const recovery::RecoveryReport&)> done) {
  assert(!up_ && !recovering_ && "Recover requires a crashed, idle site");
  if (up_ || recovering_) return;  // release-build guard: idempotent
  recovering_ = true;
  SimTime duration = recovery::RecoveryDuration(*storage_,
                                                options_.recovery_us_per_record);
  uint64_t gen = ++lifecycle_generation_;
  rt_->Schedule(duration, [this, gen, done = std::move(done)]() {
    if (gen != lifecycle_generation_) return;
    recovering_ = false;

    // BuildVolatile loads the boot rule and image; replay the forced
    // suffix on top (a crash dropped the unforced tail).
    BuildVolatile();
    recovery::RecoveryReport report;
    Status s = recovery::ReplaySuffix(*storage_, storage_->durable_size(),
                                      store_.get(), &report);
    assert(s.ok() && "log corruption during recovery");
    (void)s;
    if (report.torn_tail) {
      // The damaged suffix was never safely forced; drop it so future
      // appends (and future recoveries) see a clean log.
      storage_->Truncate(report.valid_prefix);
      metrics_.counter("recovery.torn_tail")->Inc();
    }

    // §7: stale local counters are safe; restore the watermark we have.
    clock_.Reset(report.clock_counter);

    storage_->set_incarnation(storage_->incarnation() + 1);
    // The new incarnation is the transport epoch: peers reset per-channel
    // sequencing for the reborn sender and drop its previous life's packets.
    transport_->set_epoch(storage_->incarnation());
    storage_->Append(wal::LogRecord(
        wal::RecoveryRec{storage_->incarnation(), report.clock_counter}));

    // Re-arm outstanding Vm (the log is their home; the transport merely
    // retries them).
    vm_->RestoreFromLog();

    up_ = true;
    metrics_.counter("site.recoveries")->Inc();
    if (options_.trace) {
      options_.trace->Instant(id_, obs::Track::kSite, "site.recover", 0,
                              "incarnation", storage_->incarnation());
    }
    ArmCheckpointTimer();
    if (done) done(report);
  });
}

void Site::Checkpoint() {
  if (!up_) return;
  // Force the pending batch (running its completion callbacks) before
  // imaging the store: the image must not get ahead of the durable log.
  wal_->Flush();
  // Only materialised fragments need an image entry: an absent fragment IS
  // the boot share, and recovery's store starts there (LoadImage). Sorted so
  // the imaging order (and any accounting keyed on it) is deterministic.
  std::vector<uint32_t> resident;
  resident.reserve(store_->resident_count());
  for (const auto& [item, frag] : store_->resident_fragments()) {
    (void)frag;
    resident.push_back(item);
  }
  std::sort(resident.begin(), resident.end());
  for (uint32_t i : resident) {
    const core::Fragment frag = store_->fragment(ItemId(i));
    storage_->WriteImage(ItemId(i), frag.value, frag.ts.packed());
  }
  // The marker goes in first so the watermark covers it: a checkpoint
  // leaves nothing to replay.
  storage_->Append(wal::LogRecord(wal::CheckpointRec{}));
  storage_->set_checkpoint_upto(storage_->log_size());
  metrics_.counter("site.checkpoints")->Inc();
  if (options_.trace) {
    options_.trace->Instant(id_, obs::Track::kSite, "site.checkpoint");
  }
}

void Site::ArmCheckpointTimer() {
  if (options_.checkpoint_interval_us <= 0) return;
  uint64_t gen = lifecycle_generation_;
  rt_->Schedule(options_.checkpoint_interval_us, [this, gen]() {
    if (gen != lifecycle_generation_ || !up_) return;
    Checkpoint();
    ArmCheckpointTimer();
  });
}

void Site::Prefetch(ItemId item, core::Value amount) {
  if (up_) txn_->Prefetch(item, amount);
}

Status Site::SendValue(SiteId dst, ItemId item, core::Value amount) {
  if (!up_) return Status::Unavailable("site is down");
  return txn_->SendValue(dst, item, amount);
}

core::Value Site::LocalValue(ItemId item) const {
  assert(up_);
  return store_->value(item);
}

core::Value Site::DurableValue(ItemId item) const {
  core::ValueStore scratch(catalog_);
  recovery::RecoveryReport report;
  Status s = recovery::RebuildStore(*storage_, &scratch, &report);
  assert(s.ok());
  (void)s;
  return scratch.value(item);
}

bool Site::OnEnvelope(SiteId from, net::EnvelopePtr payload) {
  if (!up_) return false;
  if (const auto* req =
          dynamic_cast<const proto::RequestMsg*>(payload.get())) {
    txn_->OnRequest(from, *req);
    return true;
  }
  if (const auto* transfer =
          dynamic_cast<const proto::VmTransferMsg*>(payload.get())) {
    vm_->ObserveClosedBelow(transfer->src, transfer->closed_below);
    if (vm_->AlreadyAccepted(transfer->vm)) {
      // An acceptance still in the unforced batch must not be acked NOR
      // consumed: the transport's cumulative ack doubles as a Vm ack, and a
      // crash here could still lose the acceptance. Refuse; the covering
      // force sends the first ack, and any later retransmission ReAcks.
      if (vm_->IsUnforcedAccept(transfer->vm)) return false;
      vm_->ReAck(*transfer);
      return true;
    }
    if (txn_->RouteVmTransfer(from, *transfer)) {
      return !vm_->IsUnforcedAccept(transfer->vm);
    }
    // False here means deferred-while-locked: refuse the packet so the
    // transport neither acks nor dedups it and a retransmission re-offers
    // the value once the lock clears (§5). Accepted-but-unforced is refused
    // for the same reason as above.
    return vm_->AcceptOrIgnore(*transfer) &&
           !vm_->IsUnforcedAccept(transfer->vm);
  }
  if (const auto* sreq =
          dynamic_cast<const proto::SnapshotReqMsg*>(payload.get())) {
    txn_->OnSnapshotReq(from, *sreq);
    return true;
  }
  if (const auto* sreply =
          dynamic_cast<const proto::SnapshotReplyMsg*>(payload.get())) {
    txn_->OnSnapshotReply(from, *sreply);
    return true;
  }
  if (const auto* ack = dynamic_cast<const proto::VmAckMsg*>(payload.get())) {
    vm_->OnAck(*ack);
    return true;
  }
  if (const auto* closure =
          dynamic_cast<const proto::VmClosureMsg*>(payload.get())) {
    vm_->ObserveClosedBelow(closure->src, closure->closed_below);
    return true;
  }
  if (const auto* nack =
          dynamic_cast<const proto::GatherNackMsg*>(payload.get())) {
    txn_->OnNack(from, *nack);
    return true;
  }
  metrics_.counter("msg.unknown")->Inc();
  return true;
}

}  // namespace dvp::site
