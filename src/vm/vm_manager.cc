#include "vm/vm_manager.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "obs/trace.h"

namespace dvp::vm {

VmManager::VmManager(SiteId self, wal::GroupCommitLog* log,
                     core::ValueStore* store, cc::LockManager* locks,
                     net::Transport* transport, LamportClock* clock,
                     obs::MetricsRegistry* metrics, bool stamp_on_accept,
                     cc::AcceptStampMode stamp_mode, obs::TraceRecorder* trace)
    : self_(self),
      log_(log),
      store_(store),
      locks_(locks),
      transport_(transport),
      clock_(clock),
      trace_(trace),
      stamp_on_accept_(stamp_on_accept),
      stamp_mode_(stamp_mode),
      m_created_(obs::CounterIn(metrics, "vm.created")),
      m_accepted_(obs::CounterIn(metrics, "vm.accepted")),
      m_duplicate_(obs::CounterIn(metrics, "vm.duplicate")),
      m_deferred_locked_(obs::CounterIn(metrics, "vm.deferred_locked")),
      m_acked_(obs::CounterIn(metrics, "vm.acked")),
      m_closure_sent_(obs::CounterIn(metrics, "vm.closure_sent")),
      m_accepted_pruned_(obs::CounterIn(metrics, "vm.accepted_pruned")) {}

VmId VmManager::NextVmId() { return MakeVmId(self_, next_vm_counter_++); }

bool VmManager::AlreadyAccepted(VmId vm) const {
  auto it = accepted_.find(VmIdSite(vm));
  if (it == accepted_.end()) return false;
  uint64_t counter = VmIdCounter(vm);
  return counter < it->second.pruned_below ||
         it->second.counters.contains(counter);
}

size_t VmManager::accepted_entries() const {
  size_t n = 0;
  for (const auto& [site, pa] : accepted_) {
    (void)site;
    n += pa.counters.size();
  }
  return n;
}

void VmManager::MarkAccepted(VmId vm) {
  PeerAccepted& pa = accepted_[VmIdSite(vm)];
  uint64_t counter = VmIdCounter(vm);
  if (counter >= pa.pruned_below) pa.counters.insert(counter);
  ++lifetime_accepts_;
  accepted_peak_ = std::max(accepted_peak_, accepted_entries());
}

void VmManager::ObserveClosedBelow(SiteId src, uint64_t closed_below) {
  if (closed_below == 0) return;
  auto it = accepted_.find(src);
  if (it == accepted_.end()) return;
  PeerAccepted& pa = it->second;
  if (closed_below <= pa.pruned_below) return;
  auto upto = pa.counters.lower_bound(closed_below);
  size_t pruned = static_cast<size_t>(std::distance(pa.counters.begin(), upto));
  pa.counters.erase(pa.counters.begin(), upto);
  pa.pruned_below = closed_below;
  if (pruned > 0) m_accepted_pruned_->Inc(pruned);
}

uint64_t VmManager::ItemClosedBelow(ItemId item) const {
  uint64_t closed = next_vm_counter_;
  for (const auto& [id, out] : outbox_) {
    if (out.item == item) closed = std::min(closed, VmIdCounter(id));
  }
  return closed;
}

uint64_t VmManager::ClosedBelowFor(SiteId dst) const {
  uint64_t closed = next_vm_counter_;
  for (const auto& [id, out] : outbox_) {
    if (out.dst == dst) closed = std::min(closed, VmIdCounter(id));
  }
  return closed;
}

VmId VmManager::CreateVm(SiteId dst, ItemId item, core::Value amount,
                         TxnId for_txn, bool is_read_reply, uint32_t round) {
  const core::Fragment frag = store_->fragment(item);
  assert(amount >= 0 && "Vm amounts are non-negative shares of the value");
  assert(store_->catalog().domain(item).ValidFragment(frag.value - amount));

  VmId id = NextVmId();
  if (trace_) {
    trace_->Instant(self_, obs::Track::kVm, "vm.born", TraceIdFor(id, for_txn),
                    "vm", id.value(), "amount",
                    static_cast<uint64_t>(amount));
  }

  // §4.2: one forced record carrying both the database action and the
  // message sequence. The Vm exists from this instant.
  wal::VmCreateRec rec;
  rec.vm = id;
  rec.dst = dst;
  rec.item = item;
  rec.amount = amount;
  rec.for_txn = for_txn;
  rec.write = wal::FragmentWrite{item, frag.value - amount, -amount,
                                 frag.ts.packed()};

  // Per-item ledger bump at the debit instant (read replies included — they
  // carry real value): keeps the snapshot identity exact at every instant.
  ItemLedger& led = ledger_[item];
  ++led.created_count;
  led.created_value += amount;

  // The Vm is born only when the creation record's covering force
  // completes, so the real message carrying it is deferred to that instant
  // (inline when group commit is disabled) — a crash before the force must
  // mean the Vm never existed, and a transfer already on the wire would
  // contradict that. The debit and outbox entry are volatile and applied
  // now.
  store_->SetValue(item, frag.value - amount);
  OutVm out{dst, item, amount, for_txn, is_read_reply, round};
  outbox_.emplace(id, out);
  // Read replies are excluded from the movement counter: every reply to a
  // reader's round is itself a Vm, so counting them would bump the count
  // each round and no read could ever terminate.
  if (!is_read_reply) ++lifetime_creates_;
  m_created_->Inc();
  log_->Append(wal::LogRecord(rec), [this, id] {
    auto it = outbox_.find(id);
    if (it != outbox_.end()) SendTransfer(id, it->second);
  });
  return id;
}

void VmManager::SendTransfer(VmId id, const OutVm& out) {
  auto msg = net::MakeEnvelope<proto::VmTransferMsg>();
  msg->vm = id;
  msg->src = self_;
  msg->item = out.item;
  msg->amount = out.amount;
  msg->for_txn = out.for_txn;
  msg->ts_packed = clock_->Next().packed();
  msg->is_read_reply = out.is_read_reply;
  msg->round = out.round;
  msg->accept_count = lifetime_accepts_;
  msg->create_count = lifetime_creates_;
  msg->closed_below = ClosedBelowFor(out.dst);
  msg->trace_id = TraceIdFor(id, out.for_txn);
  if (trace_) {
    trace_->Instant(self_, obs::Track::kVm, "vm.sent", msg->trace_id, "vm",
                    id.value(), "dst", out.dst.value());
  }
  transport_->SendReliable(out.dst, id.value(), std::move(msg));
}

void VmManager::SendAck(VmId vm, SiteId to, uint64_t trace_id) {
  auto ack = net::MakeEnvelope<proto::VmAckMsg>();
  ack->vm = vm;
  ack->from = self_;
  ack->ts_packed = clock_->Next().packed();
  ack->trace_id = trace_id;
  transport_->SendDatagram(to, std::move(ack));
}

core::Value VmManager::DoAccept(const proto::VmTransferMsg& msg,
                                bool stamp_fresh) {
  clock_->Observe(Timestamp::FromPacked(msg.ts_packed));
  if (AlreadyAccepted(msg.vm)) {
    m_duplicate_->Inc();
    if (trace_) {
      trace_->Instant(self_, obs::Track::kVm, "vm.duplicate", msg.trace_id,
                      "vm", msg.vm.value());
    }
    // No ack while the acceptance is still unforced: the covering force's
    // deferred SendAck will be the first (and only safe) one.
    if (!IsUnforcedAccept(msg.vm)) SendAck(msg.vm, msg.src, msg.trace_id);
    return 0;
  }
  const core::Fragment frag = store_->fragment(msg.item);

  // An unlocked acceptance is an implicit Rds transaction; under Conc1 it
  // stamps the fragment so that no transaction older than the value's causal
  // past can lock the merged fragment. The creation timestamp of the Vm
  // bounds that past exactly (the creating site observed the requester's
  // timestamp before sending), so max(old stamp, creation ts) is the least
  // conservative sound stamp -- fresher local timestamps would refuse more
  // requesters than necessary.
  Timestamp post_ts = frag.ts;
  if (stamp_fresh && stamp_on_accept_) {
    post_ts = stamp_mode_ == cc::AcceptStampMode::kFreshLocal
                  ? clock_->Next()
                  : std::max(frag.ts, Timestamp::FromPacked(msg.ts_packed));
  }

  // §4.2: acceptance is the forcing of the [database-actions] record.
  wal::VmAcceptRec rec;
  rec.vm = msg.vm;
  rec.src = msg.src;
  rec.item = msg.item;
  rec.amount = msg.amount;
  rec.for_txn = msg.for_txn;
  rec.write = wal::FragmentWrite{msg.item, frag.value + msg.amount,
                                 msg.amount, post_ts.packed()};

  if (trace_) {
    trace_->Instant(self_, obs::Track::kVm, "vm.accepted", msg.trace_id, "vm",
                    msg.vm.value(), "amount",
                    static_cast<uint64_t>(msg.amount));
  }

  // Ledger bump at the credit instant — the mirror of CreateVm's debit.
  ItemLedger& led = ledger_[msg.item];
  ++led.accepted_count;
  led.accepted_value += msg.amount;

  // The Vm dies only at the covering force (inline when group commit is
  // disabled), so the ack — which lets the sender close the Vm — waits for
  // it. The credit and dedup entry are volatile and applied now; until the
  // force the acceptance is tracked in unforced_accepts_ so duplicate
  // handling and the transport's consume/cum-ack logic treat the transfer
  // as still open.
  store_->SetValue(msg.item, frag.value + msg.amount);
  store_->SetTs(msg.item, post_ts);
  MarkAccepted(msg.vm);
  m_accepted_->Inc();
  unforced_accepts_.insert(msg.vm);
  VmId vm = msg.vm;
  SiteId src = msg.src;
  uint64_t tid = msg.trace_id;
  log_->Append(wal::LogRecord(rec), [this, vm, src, tid] {
    unforced_accepts_.erase(vm);
    SendAck(vm, src, tid);
  });
  return msg.amount;
}

bool VmManager::AcceptOrIgnore(const proto::VmTransferMsg& msg) {
  if (AlreadyAccepted(msg.vm)) {
    if (!IsUnforcedAccept(msg.vm)) ReAck(msg);
    return false;
  }
  if (locks_->IsLocked(msg.item)) {
    // Locked by an unrelated transaction: ignore; the transfer will be
    // retransmitted and accepted once the lock clears (§5).
    m_deferred_locked_->Inc();
    if (trace_) {
      trace_->Instant(self_, obs::Track::kVm, "vm.deferred", msg.trace_id,
                      "vm", msg.vm.value(), "item", msg.item.value());
    }
    return false;
  }
  DoAccept(msg, /*stamp_fresh=*/true);
  return true;
}

core::Value VmManager::AcceptForTxn(const proto::VmTransferMsg& msg) {
  // The lock holder's own timestamp already guards the fragment.
  return DoAccept(msg, /*stamp_fresh=*/false);
}

void VmManager::ReAck(const proto::VmTransferMsg& msg) {
  m_duplicate_->Inc();
  SendAck(msg.vm, msg.src, msg.trace_id);
}

void VmManager::FinishAcked(VmId vm) {
  auto it = outbox_.find(vm);
  if (it == outbox_.end()) return;  // duplicate ack
  SiteId dst = it->second.dst;
  if (trace_) {
    trace_->Instant(self_, obs::Track::kVm, "vm.closed",
                    TraceIdFor(vm, it->second.for_txn), "vm", vm.value());
  }
  // The acked marker is not a commit point, so it has no completion
  // callback and rides the next force: it only stops retransmission across
  // recoveries, and losing an unforced one merely re-sends a transfer the
  // receiver will ReAck as a duplicate.
  log_->Append(wal::LogRecord(wal::VmAckedRec{vm}));
  outbox_.erase(it);
  transport_->CancelReliable(vm.value());
  m_acked_->Inc();
  // Channel drained: no further transfer will carry the (now fully advanced)
  // watermark, so push it explicitly. Otherwise the recipient's dedup
  // entries for the final burst would linger until the channel's next use.
  // Sent reliably — a single lost datagram would strand them just as long —
  // but under a reserved token so it never masquerades as a Vm, and
  // cancelling any previous closure to the same peer so at most one is ever
  // in flight per channel.
  if (ClosedBelowFor(dst) == next_vm_counter_) {
    auto closure = net::MakeEnvelope<proto::VmClosureMsg>();
    closure->src = self_;
    closure->closed_below = next_vm_counter_;
    auto prev = closure_tokens_.find(dst);
    if (prev != closure_tokens_.end()) {
      transport_->CancelReliable(prev->second);
    }
    uint64_t token = kClosureTokenBase | next_closure_token_++;
    closure_tokens_[dst] = token;
    transport_->SendReliable(dst, token, std::move(closure));
    m_closure_sent_->Inc();
  }
}

void VmManager::OnAck(const proto::VmAckMsg& msg) {
  clock_->Observe(Timestamp::FromPacked(msg.ts_packed));
  FinishAcked(msg.vm);
}

void VmManager::OnTransportAck(uint64_t token) {
  if ((token & kClosureTokenBase) == kClosureTokenBase) {
    // A closure notification completed; it is not a Vm. Forget its token.
    for (auto it = closure_tokens_.begin(); it != closure_tokens_.end(); ++it) {
      if (it->second == token) {
        closure_tokens_.erase(it);
        break;
      }
    }
    return;
  }
  FinishAcked(VmId(token));
}

bool VmManager::HasOutstandingFor(ItemId item) const {
  for (const auto& [id, out] : outbox_) {
    (void)id;
    if (out.item == item) return true;
  }
  return false;
}

void VmManager::Clear() {
  outbox_.clear();
  accepted_.clear();
  unforced_accepts_.clear();
  closure_tokens_.clear();
  next_closure_token_ = 0;
  lifetime_accepts_ = 0;
  lifetime_creates_ = 0;
  accepted_peak_ = 0;
  ledger_.clear();
  next_vm_counter_ = 1;
}

void VmManager::RestoreFromLog() {
  Clear();
  Status s = log_->storage()->Scan(0, [&](Lsn, const wal::LogRecord& rec) {
    if (const auto* create = std::get_if<wal::VmCreateRec>(&rec)) {
      outbox_.emplace(create->vm,
                      OutVm{create->dst, create->item, create->amount,
                            create->for_txn, /*is_read_reply=*/false,
                            /*round=*/0});
      // The log does not record is_read_reply, so this over-counts replies.
      // Safe: a level shift only makes the reader's equality comparison fail
      // and run an extra round — never terminate early.
      ++lifetime_creates_;
      // The per-item ledger IS exact across recovery (unlike the count
      // above): the same durable records rebuild the store, so the fragment
      // identity holds again the instant the scan finishes.
      ItemLedger& cled = ledger_[create->item];
      ++cled.created_count;
      cled.created_value += create->amount;
      if (VmIdSite(create->vm) == self_) {
        next_vm_counter_ =
            std::max(next_vm_counter_, VmIdCounter(create->vm) + 1);
      }
    } else if (const auto* accept = std::get_if<wal::VmAcceptRec>(&rec)) {
      // The full accepted history is rebuilt (pruning watermarks are
      // volatile); the first transfers from each peer re-prune it.
      MarkAccepted(accept->vm);
      ItemLedger& aled = ledger_[accept->item];
      ++aled.accepted_count;
      aled.accepted_value += accept->amount;
    } else if (const auto* acked = std::get_if<wal::VmAckedRec>(&rec)) {
      outbox_.erase(acked->vm);
    }
  });
  assert(s.ok() && "vm recovery scan hit log corruption");
  (void)s;
  // The scan double-counted nothing (DoAccept logs each Vm at most once),
  // but it bumped lifetime_accepts_ via MarkAccepted — which is exactly the
  // durable lifetime count the read-termination rule needs.

  // §7: "outstanding Vm need not be sent again" by any special action — the
  // normal guaranteed-delivery machinery re-drives them. Re-arming the
  // transport is that machinery for a reborn site.
  //
  // Read-reply metadata is not reconstructed: the requesting read has long
  // since aborted (its site saw a timeout) or completed; the value itself is
  // what must not be lost, and it is not.
  for (const auto& [id, out] : outbox_) SendTransfer(id, out);
}

}  // namespace dvp::vm
