#include "txn/txn_manager.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "dvpcore/operators.h"
#include "net/backoff.h"
#include "obs/trace.h"
#include "placement/placement.h"

namespace dvp::txn {

namespace {
/// Read re-ask pacing, both modes. A remote site silently ignores a full-read
/// request while it still has outstanding Vm for the item, so the reader
/// must poll (§5's optional request retry), and a snapshot round can lose
/// requests or replies outright. Unless an open shortfall sets the pace, the
/// retry timer's k-th firing waits
/// Jittered(Interval(kReadRetryUs, kReadRetryMaxUs, k)): a capped exponential
/// backoff (net::backoff), so a healthy cluster re-asks fast while a
/// partitioned one stops hammering the wire.
constexpr SimTime kReadRetryUs = 40'000;
constexpr SimTime kReadRetryMaxUs = 320'000;
/// Early re-asks per transaction between two retry-timer firings: a kCc NACK
/// re-asks the refusing site at once, at most this often, and the timer stays
/// the fallback for whatever the bound or a lost message leaves open.
constexpr uint32_t kEarlyReasksPerRetry = 2;
/// Snapshot retry pacing: the first kSnapshotFastRounds unbalanced rounds
/// re-ask immediately (an unbalanced certificate usually closes within a
/// round-trip once the in-flight Vm land); further rounds ride the backoff
/// timer so a hot item cannot turn the reader into a poll loop.
constexpr uint32_t kSnapshotFastRounds = 2;
/// Hard bound on snapshot rounds. Past it the cut is accepted as-is: the
/// per-site ledger identity makes every complete round's sum exact, so the
/// certificate only ever gates *quiescence*, never correctness — the cap
/// trades the closed-cut guarantee for the non-blocking bound.
constexpr uint32_t kSnapshotMaxRounds = 32;
}  // namespace

std::string_view TxnOutcomeName(TxnOutcome outcome) {
  switch (outcome) {
    case TxnOutcome::kCommitted:
      return "committed";
    case TxnOutcome::kAbortLockConflict:
      return "abort.lock";
    case TxnOutcome::kAbortCcReject:
      return "abort.cc";
    case TxnOutcome::kAbortTimeout:
      return "abort.timeout";
    case TxnOutcome::kAbortSiteFailure:
      return "abort.site_failure";
    case TxnOutcome::kAbortInvalid:
      return "abort.invalid";
  }
  return "unknown";
}

TxnSpec MakeTransfer(ItemId from, ItemId to, core::Value amount) {
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(from, amount), TxnOp::Increment(to, amount)};
  spec.label = "transfer";
  spec.atomic_set = true;
  return spec;
}

TxnSpec MakeOrder(ItemId stock, ItemId revenue, core::Value qty) {
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(stock, qty), TxnOp::Increment(revenue, qty)};
  spec.label = "order";
  spec.atomic_set = true;
  return spec;
}

TxnManager::TxnManager(SiteId self, uint32_t num_sites, runtime::Runtime* rt,
                       wal::GroupCommitLog* log, core::ValueStore* store,
                       cc::LockManager* locks, vm::VmManager* vm,
                       net::Transport* transport, LamportClock* clock,
                       obs::MetricsRegistry* metrics, Rng rng,
                       TxnManagerOptions options, obs::TraceRecorder* trace,
                       placement::PlacementManager* placement)
    : self_(self),
      num_sites_(num_sites),
      rt_(rt),
      log_(log),
      store_(store),
      locks_(locks),
      vm_(vm),
      transport_(transport),
      clock_(clock),
      trace_(trace),
      placement_(placement),
      rng_(rng),
      options_(options),
      policy_(options.scheme),
      m_req_sent_(obs::CounterIn(metrics, "req.sent")),
      m_req_msgs_(obs::CounterIn(metrics, "req.msgs")),
      m_req_received_(obs::CounterIn(metrics, "req.received")),
      m_req_ignored_locked_(obs::CounterIn(metrics, "req.ignored.locked")),
      m_req_ignored_cc_(obs::CounterIn(metrics, "req.ignored.cc")),
      m_req_ignored_outstanding_(
          obs::CounterIn(metrics, "req.ignored.outstanding")),
      m_req_ignored_empty_(obs::CounterIn(metrics, "req.ignored.empty")),
      m_req_honored_(obs::CounterIn(metrics, "req.honored")),
      m_req_honored_read_(obs::CounterIn(metrics, "req.honored.read")),
      m_req_prefetch_(obs::CounterIn(metrics, "req.prefetch")),
      m_rds_send_value_(obs::CounterIn(metrics, "rds.send_value")),
      m_local_commit_(obs::CounterIn(metrics, "txn.local_commit")),
      m_gather_directed_(obs::CounterIn(metrics, "placement.gather.directed")),
      m_gather_fallback_(obs::CounterIn(metrics, "placement.gather.fallback")),
      m_surplus_nack_(obs::CounterIn(metrics, "req.surplus_nack")),
      m_nack_received_(obs::CounterIn(metrics, "req.nack_received")),
      m_reask_early_(obs::CounterIn(metrics, "req.reask_early")),
      m_multiop_committed_(obs::CounterIn(metrics, "txn.multiop.committed")),
      m_multiop_aborted_(obs::CounterIn(metrics, "txn.multiop.aborted")),
      m_multiop_return_(obs::CounterIn(metrics, "txn.multiop.return_sends")),
      m_req_multiop_(obs::CounterIn(metrics, "req.multiop")),
      m_snap_req_sent_(obs::CounterIn(metrics, "snapshot.req.sent")),
      m_snap_req_received_(obs::CounterIn(metrics, "snapshot.req.received")),
      m_snap_reply_sent_(obs::CounterIn(metrics, "snapshot.reply.sent")),
      m_snap_reply_received_(
          obs::CounterIn(metrics, "snapshot.reply.received")),
      m_snap_unbalanced_(obs::CounterIn(metrics, "snapshot.rounds.unbalanced")),
      m_snap_stale_replies_(obs::CounterIn(metrics, "snapshot.stale_replies")),
      m_snap_cut_forced_(obs::CounterIn(metrics, "snapshot.cut_forced")),
      h_rounds_(metrics ? metrics->histogram("txn.rounds") : nullptr),
      h_snap_rounds_(metrics ? metrics->histogram("txn.snapshot.rounds")
                             : nullptr),
      h_read_retry_(metrics ? metrics->histogram("txn.read.retry_rounds")
                            : nullptr) {
  for (int o = 0; o <= static_cast<int>(TxnOutcome::kAbortInvalid); ++o) {
    std::string name =
        "txn." + std::string(TxnOutcomeName(static_cast<TxnOutcome>(o)));
    m_outcome_[o] =
        metrics ? metrics->counter(name) : obs::MetricsRegistry::Nop();
  }
}

void TxnManager::NoteOutcome(TxnId id, TxnOutcome outcome) {
  m_outcome_[static_cast<int>(outcome)]->Inc();
  if (trace_) {
    trace_->End(self_, obs::Track::kTxn, "txn", id.value(), "outcome",
                static_cast<uint64_t>(outcome));
  }
}

void TxnManager::NoteCommitted(const PendingTxn& t) {
  if (t.rounds == 0) m_local_commit_->Inc();
  if (t.spec.atomic_set) m_multiop_committed_->Inc();
  if (h_rounds_) h_rounds_->Add(static_cast<double>(t.rounds));
  if (h_read_retry_ && (!t.reads.empty() || !t.snap.items.empty())) {
    h_read_retry_->Add(static_cast<double>(t.retry_attempts));
  }
  if (h_snap_rounds_ && !t.snap.items.empty()) {
    h_snap_rounds_->Add(static_cast<double>(t.snap.round));
  }
}

TxnId TxnManager::Begin(const TxnSpec& spec, TxnCallback cb) {
  Timestamp ts = clock_->Next();
  TxnId id(ts.packed());
  // The packed Lamport timestamp is globally unique — it is the transaction's
  // causal trace_id, carried by every message sent on its behalf.
  if (trace_) {
    trace_->Begin(self_, obs::Track::kTxn, "txn", id.value(), "ops",
                  spec.ops.size());
  }

  auto fail_fast = [&](TxnOutcome outcome, std::string why) {
    NoteOutcome(id, outcome);
    TxnResult r;
    r.id = id;
    r.outcome = outcome;
    r.status = Status::Aborted(std::move(why));
    r.latency_us = 0;
    if (cb) cb(r);
    return id;
  };

  // Validate: at least one op, one op per item, positive amounts.
  if (spec.ops.empty()) return fail_fast(TxnOutcome::kAbortInvalid, "no ops");
  std::vector<ItemId> items;
  for (const TxnOp& op : spec.ops) {
    if (op.item.value() >= store_->num_items()) {
      return fail_fast(TxnOutcome::kAbortInvalid, "unknown item");
    }
    bool is_read = op.kind == TxnOp::Kind::kReadFull ||
                   op.kind == TxnOp::Kind::kReadSnapshot;
    if (!is_read && op.amount <= 0) {
      return fail_fast(TxnOutcome::kAbortInvalid, "non-positive amount");
    }
    if (std::find(items.begin(), items.end(), op.item) != items.end()) {
      return fail_fast(TxnOutcome::kAbortInvalid, "duplicate item in spec");
    }
    items.push_back(op.item);
  }

  // An atomic set is one cross-item ACID unit: at least two write ops whose
  // increments and decrements cancel. Reads are excluded (a read is not a
  // transfer of value) and the zero-sum rule is what makes the cross-item
  // conservation oracle checkable per commit record.
  if (spec.atomic_set) {
    if (spec.ops.size() < 2) {
      return fail_fast(TxnOutcome::kAbortInvalid, "atomic set needs >= 2 ops");
    }
    core::Value net = 0;
    for (const TxnOp& op : spec.ops) {
      if (op.kind == TxnOp::Kind::kReadFull ||
          op.kind == TxnOp::Kind::kReadSnapshot) {
        return fail_fast(TxnOutcome::kAbortInvalid,
                         "atomic set cannot contain reads");
      }
      net += op.kind == TxnOp::Kind::kIncrement ? op.amount : -op.amount;
    }
    if (net != 0) {
      return fail_fast(TxnOutcome::kAbortInvalid, "atomic set not zero-sum");
    }
  }

  // Snapshot reads take NO locks and never stamp: the stamped cut is
  // assembled entirely from reply-time captures, so a snapshot item is
  // excluded from A(t) — it cannot conflict, cannot be refused by the
  // timestamp rule, and concurrent writers never see the read at all.
  std::vector<ItemId> lock_items;
  for (const TxnOp& op : spec.ops) {
    if (op.kind != TxnOp::Kind::kReadSnapshot) lock_items.push_back(op.item);
  }

  // §5 step 1: atomically lock every local fragment in A(t). The pessimism
  // of the scheme: any conflict aborts immediately rather than waiting.
  for (ItemId item : lock_items) {
    if (locks_->IsLocked(item)) {
      return fail_fast(TxnOutcome::kAbortLockConflict,
                       "fragment locked: item " + item.ToString());
    }
    if (!policy_.MayLock(ts, store_->ts(item))) {
      return fail_fast(TxnOutcome::kAbortCcReject,
                       "Conc1 timestamp rule: item " + item.ToString());
    }
  }
  // Multi-item sets walk the lock table in global ascending item-id order —
  // the deadlock-free total order every site agrees on. With try-locks the
  // order cannot cause a wait cycle anyway; keeping it canonical means the
  // invariant also survives any future scheme that retries instead of
  // aborting, and lets tests assert the order directly.
  bool locked = lock_items.size() > 1
                    ? locks_->TryLockAllOrdered(lock_items, id)
                    : locks_->TryLockAll(lock_items, id);
  assert(locked);
  (void)locked;
  if (policy_.StampOnLock()) {
    for (ItemId item : lock_items) store_->SetTs(item, ts);
  }

  auto t = std::make_unique<PendingTxn>();
  t->id = id;
  t->ts = ts;
  t->spec = spec;
  t->items = lock_items;
  t->cb = std::move(cb);
  t->start_time = rt_->Now();

  // §5 step 2: determine which items the local value is inadequate for.
  std::vector<proto::RequestPart> parts;
  for (const TxnOp& op : spec.ops) {
    const core::Domain& domain = store_->catalog().domain(op.item);
    switch (op.kind) {
      case TxnOp::Kind::kIncrement:
        break;  // always effective locally
      case TxnOp::Kind::kDecrement: {
        core::BoundedDecrementOp dec(op.amount);
        core::ApplyOutcome out = dec.Apply(domain, store_->value(op.item));
        if (out.insufficient()) {
          t->shortfall[op.item] = out.shortfall;
          parts.push_back({op.item, out.shortfall, false});
          // Demand signal for the rebalancer: this site wanted more of the
          // item than it held.
          if (placement_) placement_->NoteShortfall(op.item, out.shortfall);
        }
        break;
      }
      case TxnOp::Kind::kReadFull: {
        ReadState rs;
        if (num_sites_ <= 1) {
          rs.done = true;  // nothing remote to drain
        } else {
          parts.push_back({op.item, 0, true});
        }
        t->reads.emplace(op.item, rs);
        break;
      }
      case TxnOp::Kind::kReadSnapshot:
        t->snap.items.push_back(op.item);
        break;
    }
  }

  // A single-site snapshot degenerates to the local capture: the fragment
  // plus the (necessarily drained) local ledger is the whole cut.
  if (!t->snap.items.empty() && num_sites_ <= 1) {
    for (ItemId item : t->snap.items) {
      const vm::VmManager::ItemLedger& led = vm_->ledger(item);
      t->snap.totals[item] =
          store_->value(item) + led.created_value - led.accepted_value;
    }
    t->snap.done = true;
  }

  PendingTxn& ref = *t;
  pending_.emplace(id, std::move(t));

  if (parts.empty() && !ReadOpen(ref)) {
    // Write-only / locally satisfiable fast path: no redistribution phase.
    ScheduleCommit(ref);
    return id;
  }

  // §5 steps 2–3: dispatch requests and start the timeout counter.
  SendRequests(ref, parts, /*round=*/1);
  ref.rounds = 1;
  if (!ref.snap.items.empty() && !ref.snap.done) {
    SendSnapshotRound(ref, /*only_stale=*/false);
  }
  ArmRetry(ref);
  TxnId timeout_id = id;
  SimTime base_timeout = options_.timeout_us;
  if (spec.atomic_set && options_.multiop_timeout_us > 0) {
    // Abort-on-cycle-risk: a multi-op parks locks on several items while it
    // gathers; a shorter window bounds how long opposing multi-ops can
    // mutually starve before one of them backs off.
    base_timeout = std::min(base_timeout, options_.multiop_timeout_us);
  }
  SimTime timeout_us = base_timeout * timeout_skew_permille_ / 1000;
  ref.timeout = rt_->Schedule(timeout_us, [this, timeout_id]() {
    auto it = pending_.find(timeout_id);
    if (it == pending_.end()) return;
    if (placement_) {
      // The strongest demand signal: the gather failed outright while this
      // much value was still missing.
      for (const auto& [item, amount] : it->second->shortfall) {
        placement_->NoteTimeout(item, amount);
      }
    }
    Abort(*it->second, TxnOutcome::kAbortTimeout, "redistribution timeout");
  });
  return id;
}

std::vector<SiteId> TxnManager::PickTargets() {
  std::vector<SiteId> all;
  for (uint32_t s = 0; s < num_sites_; ++s) {
    if (s != self_.value()) all.push_back(SiteId(s));
  }
  uint32_t k = options_.request_fanout;
  // kFirstK keeps the deterministic order (and with k < n starves high ids —
  // test-only, see TargetPolicy); kSurplus randomizes its fallback pool.
  bool randomize = options_.targeting != TargetPolicy::kFirstK;
  if (k == 0 || k >= all.size()) {
    if (randomize && !all.empty()) {
      // Fisher-Yates with our deterministic stream.
      for (size_t i = all.size() - 1; i > 0; --i) {
        std::swap(all[i], all[rng_.NextBounded(i + 1)]);
      }
    }
    return all;
  }
  // Choose k targets (random unless first-k-by-id was asked for).
  if (randomize) {
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + rng_.NextBounded(all.size() - i);
      std::swap(all[i], all[j]);
    }
  }
  all.resize(k);
  return all;
}

std::shared_ptr<proto::RequestMsg> TxnManager::NewRequest(
    TxnId txn, Timestamp ts, uint32_t round) const {
  auto msg = net::MakeEnvelope<proto::RequestMsg>();
  msg->txn = txn;
  msg->ts_packed = ts.packed();
  msg->origin = self_;
  msg->round = round;
  msg->trace_id = txn.value();
  return msg;
}

void TxnManager::SendRequests(PendingTxn& t,
                              const std::vector<proto::RequestPart>& parts,
                              uint32_t round) {
  if (parts.empty()) return;
  m_req_sent_->Inc(parts.size());
  if (trace_) {
    trace_->Instant(self_, obs::Track::kTxn, "txn.redistribute", t.id.value(),
                    "round", round, "parts", parts.size());
  }

  auto make_msg = [&]() {
    auto msg = NewRequest(t.id, t.ts, round);
    msg->atomic_set = t.spec.atomic_set;
    return msg;
  };

  if (policy_.BroadcastRequests()) {
    // Conc2: all of a transaction's requests go out as one atomic broadcast.
    auto msg = make_msg();
    msg->parts = parts;
    m_req_msgs_->Inc(num_sites_ - 1);
    transport_->Broadcast(std::move(msg));
    return;
  }

  std::vector<SiteId> targets = PickTargets();
  bool surplus_mode =
      options_.targeting == TargetPolicy::kSurplus && placement_ != nullptr;

  // Per-destination ask lists. Blind modes give every target the same list;
  // surplus-directed mode slices each shortfall across the peers that
  // advertised they can actually cover it.
  std::map<SiteId, std::vector<proto::RequestPart>> per_dst;
  for (const proto::RequestPart& part : parts) {
    if (part.read_all) {
      // A full-read round completes only once every other site has replied
      // (HandleReadReply), so the fan-out never narrows a read.
      for (uint32_t s = 0; s < num_sites_; ++s) {
        if (s != self_.value()) per_dst[SiteId(s)].push_back(part);
      }
      continue;
    }
    if (part.amount <= 0) {
      for (SiteId dst : targets) per_dst[dst].push_back(part);
      continue;
    }

    std::vector<placement::PlacementManager::Target> ranked;
    if (surplus_mode) {
      ranked = placement_->RankTargets(part.item);
      if (options_.request_fanout > 0 &&
          ranked.size() > options_.request_fanout) {
        ranked.resize(options_.request_fanout);
      }
      // Minimal covering prefix: once the best-ranked targets' advertised
      // surplus covers the need, asking anyone further down is pure message
      // overhead (a 4-unit ask has no business reaching five sites). Each
      // retry round widens the prefix by one: a target that refused or
      // under-shipped the previous round must not stay the only one asked.
      core::Value covered = 0;
      size_t take = ranked.size();
      for (size_t i = 0; i < ranked.size(); ++i) {
        covered += ranked[i].surplus;
        if (covered >= part.amount) {
          take = i + 1;
          break;
        }
      }
      take += round - 1;
      if (take < ranked.size()) ranked.resize(take);
    }

    if (!ranked.empty()) {
      m_gather_directed_->Inc();
      core::Value need = part.amount;
      core::Value total = 0;
      for (const auto& tg : ranked) total += tg.surplus;
      std::vector<core::Value> ask(ranked.size(), 0);
      if (total <= need) {
        // Hints under-cover the shortfall: take everything advertised and
        // spread the residual blindly over the non-ranked fallback targets
        // (hints may simply be incomplete).
        for (size_t i = 0; i < ranked.size(); ++i) ask[i] = ranked[i].surplus;
        core::Value residual = need - total;
        if (residual > 0) {
          std::vector<SiteId> rest;
          for (SiteId dst : targets) {
            bool is_ranked = false;
            for (const auto& tg : ranked) {
              if (tg.site == dst) is_ranked = true;
            }
            if (!is_ranked) rest.push_back(dst);
          }
          if (rest.empty()) {
            ask[0] += residual;  // nobody left to ask; over-ask the best
          } else {
            core::Value base = residual / static_cast<core::Value>(rest.size());
            core::Value rem = residual % static_cast<core::Value>(rest.size());
            for (size_t i = 0; i < rest.size(); ++i) {
              core::Value amt = base + (static_cast<core::Value>(i) < rem);
              if (amt > 0) per_dst[rest[i]].push_back({part.item, amt, false});
            }
          }
        }
      } else {
        // Proportional to advertised surplus, exact sum, each ask capped at
        // the target's surplus (floor shares first, then the remainder one
        // target at a time in rank order — total > need guarantees it fits).
        core::Value assigned = 0;
        for (size_t i = 0; i < ranked.size(); ++i) {
          ask[i] = need * ranked[i].surplus / total;
          assigned += ask[i];
        }
        core::Value rem = need - assigned;
        for (size_t i = 0; i < ranked.size() && rem > 0; ++i) {
          core::Value add = std::min(rem, ranked[i].surplus - ask[i]);
          ask[i] += add;
          rem -= add;
        }
      }
      for (size_t i = 0; i < ranked.size(); ++i) {
        if (ask[i] > 0) {
          per_dst[ranked[i].site].push_back({part.item, ask[i], false});
        }
      }
      continue;
    }

    if (surplus_mode) m_gather_fallback_->Inc();
    if (options_.divide_shortfall && !targets.empty()) {
      // Exact split: amounts sum to the shortfall. Ceil division here used
      // to over-gather up to k-1 units per round.
      core::Value base = part.amount / static_cast<core::Value>(targets.size());
      core::Value rem = part.amount % static_cast<core::Value>(targets.size());
      for (size_t i = 0; i < targets.size(); ++i) {
        core::Value amt = base + (static_cast<core::Value>(i) < rem);
        if (amt > 0) per_dst[targets[i]].push_back({part.item, amt, false});
      }
    } else {
      for (SiteId dst : targets) per_dst[dst].push_back(part);
    }
  }

  // Send in PickTargets order (preserves the pre-placement event schedule in
  // blind modes), then any directed targets outside the fallback pool in id
  // order.
  std::vector<SiteId> order;
  for (SiteId dst : targets) {
    if (per_dst.contains(dst)) order.push_back(dst);
  }
  for (const auto& [dst, dst_parts] : per_dst) {
    (void)dst_parts;
    if (std::find(order.begin(), order.end(), dst) == order.end()) {
      order.push_back(dst);
    }
  }
  for (SiteId dst : order) {
    auto msg = make_msg();
    msg->parts = std::move(per_dst[dst]);
    msg->want_surplus_nack = surplus_mode;
    m_req_msgs_->Inc();
    transport_->SendDatagram(dst, std::move(msg));
  }
}

void TxnManager::OnRequest(SiteId from, const proto::RequestMsg& msg) {
  (void)from;
  clock_->Observe(Timestamp::FromPacked(msg.ts_packed));
  Timestamp req_ts = Timestamp::FromPacked(msg.ts_packed);
  if (msg.atomic_set) m_req_multiop_->Inc();
  // Refuses one part: a courtesy datagram carrying a clock.
  auto nack = [&](proto::GatherNackMsg::Reason reason, ItemId item,
                  Timestamp ts) {
    auto m = net::MakeEnvelope<proto::GatherNackMsg>();
    m->from = self_;
    m->reason = reason;
    m->item = item;
    m->ts_packed = ts.packed();
    m->trace_id = msg.trace_id;
    transport_->SendDatagram(msg.origin, std::move(m));
  };

  for (const proto::RequestPart& part : msg.parts) {
    m_req_received_->Inc();
    if (part.item.value() >= store_->num_items()) continue;

    // A locked fragment means some transaction (or in-progress Rds action)
    // owns it; the request is simply not honored (§5).
    if (locks_->IsLocked(part.item)) {
      m_req_ignored_locked_->Inc();
      continue;
    }
    // Conc1 gate: TS(t) must dominate TS(d_j). Equality is the same
    // transaction returning for another gather round (timestamps are
    // unique), which is always safe to honor. The refusal is answered with a
    // clock-carrying NACK so a lagging origin catches up and can retry.
    if (policy_.scheme() == cc::CcScheme::kConc1 &&
        req_ts < store_->ts(part.item)) {
      m_req_ignored_cc_->Inc();
      // Carry whichever is larger: our clock or the stamp that beat the
      // request -- the origin must exceed the *stamp* on its retry.
      nack(proto::GatherNackMsg::Reason::kCc, part.item,
           std::max(clock_->Peek(), store_->ts(part.item)));
      continue;
    }

    const core::Fragment frag = store_->fragment(part.item);
    const core::Domain& domain = store_->catalog().domain(part.item);

    if (part.read_all) {
      // §5: a read may be honored only when no Vm for the item is
      // outstanding here, so the reader provably drains the full multiset.
      if (vm_->HasOutstandingFor(part.item)) {
        m_req_ignored_outstanding_->Inc();
        continue;
      }
      if (policy_.StampOnLock()) store_->SetTs(part.item, req_ts);
      vm_->CreateVm(msg.origin, part.item, frag.value, msg.txn,
                    /*is_read_reply=*/true, msg.round);
      m_req_honored_read_->Inc();
    } else {
      core::Value ship = std::min(part.amount, domain.MaxShippable(frag.value));
      if (ship <= 0) {
        m_req_ignored_empty_->Inc();
        if (msg.want_surplus_nack) {
          // Tell the surplus-directed origin its hint was wrong so its cache
          // self-corrects now rather than when the hint ages out.
          nack(proto::GatherNackMsg::Reason::kEmpty, part.item,
               clock_->Peek());
        }
        continue;
      }
      if (policy_.StampOnLock()) store_->SetTs(part.item, req_ts);
      vm_->CreateVm(msg.origin, part.item, ship, msg.txn);
      m_req_honored_->Inc();
    }
  }
}

void TxnManager::OnNack(SiteId from, const proto::GatherNackMsg& msg) {
  clock_->Observe(Timestamp::FromPacked(msg.ts_packed));
  if (msg.reason == proto::GatherNackMsg::Reason::kCc) {
    m_nack_received_->Inc();
    // The refusal carried a clock past the refusing stamp, so a re-ask under
    // a fresh timestamp now passes the gate: send it to the refusing site at
    // once instead of idling until the retry timer. Only the transaction
    // that holds the item's lock and still misses value on it re-asks.
    TxnId owner = locks_->OwnerOf(msg.item);
    auto it = pending_.find(owner);
    if (it == pending_.end() || msg.trace_id != owner.value()) return;
    PendingTxn& t = *it->second;
    auto short_it = t.shortfall.find(msg.item);
    if (short_it == t.shortfall.end() || options_.gather_retry_us <= 0 ||
        t.commit_scheduled || t.early_reasks >= kEarlyReasksPerRetry) {
      return;
    }
    ++t.early_reasks;
    m_reask_early_->Inc();
    Restamp(t);
    ++t.rounds;
    auto req = NewRequest(t.id, t.ts, t.rounds);
    req->atomic_set = t.spec.atomic_set;
    req->want_surplus_nack =
        options_.targeting == TargetPolicy::kSurplus && placement_ != nullptr;
    req->parts = {{msg.item, short_it->second, false}};
    m_req_sent_->Inc();
    m_req_msgs_->Inc();
    transport_->SendDatagram(from, std::move(req));
    return;
  }
  m_surplus_nack_->Inc();
  if (placement_) placement_->NoteEmpty(from, msg.item);
}

bool TxnManager::RouteVmTransfer(SiteId from, const proto::VmTransferMsg& msg) {
  (void)from;
  TxnId owner = locks_->OwnerOf(msg.item);
  if (!owner.valid()) return false;
  auto it = pending_.find(owner);
  if (it == pending_.end()) return false;  // not a transaction of ours
  PendingTxn& t = *it->second;

  // The lock-holding transaction accepts the Vm itself (§5) — but only a Vm
  // that answers *its own* requests: those grants were gated by the Conc1
  // timestamp rule at the honoring site, so absorbing them preserves
  // timestamp-order serializability. Unrelated transfers stay deferred
  // ("it will eventually be sent again anyway") and are merged by the
  // unlocked Rds path after this transaction ends.
  if (msg.for_txn != t.id) return false;
  core::Value credited = vm_->AcceptForTxn(msg);
  if (t.spec.atomic_set && credited > 0 && !msg.is_read_reply) {
    // Remember where each partial gather came from: an abort must return it
    // all via ordinary Rds sends, or the abandoned value piles up here and
    // the item pair drifts from its surplus-directed placement.
    bool merged = false;
    for (AbsorbedCredit& a : t.absorbed) {
      if (a.src == msg.src && a.item == msg.item) {
        a.amount += credited;
        merged = true;
        break;
      }
    }
    if (!merged) t.absorbed.push_back({msg.src, msg.item, credited});
  }
  if (placement_ && !msg.is_read_reply) {
    // The granting site's advertised surplus shrank by at least the shipped
    // amount; correct the cache without waiting for its next hint.
    placement_->NoteShipped(msg.src, msg.item, msg.amount);
  }
  if (msg.is_read_reply && msg.for_txn == t.id) {
    HandleReadReply(t, msg);
    // HandleReadReply may have committed/aborted; don't touch `t` after
    // Reevaluate below without re-checking.
  }
  auto again = pending_.find(owner);
  if (again != pending_.end()) Reevaluate(*again->second);
  return true;
}

void TxnManager::HandleReadReply(PendingTxn& t,
                                 const proto::VmTransferMsg& msg) {
  auto it = t.reads.find(msg.item);
  if (it == t.reads.end()) return;
  ReadState& rs = it->second;
  if (rs.done || msg.round != rs.round) return;

  rs.counters[msg.src] = {msg.accept_count, msg.create_count};
  if (msg.amount > 0) rs.this_round_nonzero = true;
  if (rs.counters.size() < num_sites_ - 1) return;

  // Round complete. Terminate only after two consecutive all-zero rounds
  // with unchanged acceptance AND creation counters: no fragment held value
  // at any reply point, no site had outstanding Vm (they would have
  // refused), and no value moved in between — hence N_M = 0 and the local
  // fragment now holds Π⁻¹(d) in its entirety. The creation counters close
  // the snapshot-skew race: a Vm created, accepted and acked entirely
  // between two rounds can evade the acceptor's comparison (its second
  // reply may precede the acceptance), but never the creator's — the
  // creator cannot reply while its outbox still holds the Vm.
  //
  // The same outstanding-Vm rule must hold at the reader's OWN site: a Vm
  // for the item created here before the read began (a gather grant, or a
  // multi-op abort returning its partial gathers) holds value that is in no
  // remote fragment and no remote outbox — invisible to every probe above —
  // until it lands. A remote site would refuse our rounds in this state
  // (§5); the local outbox is checked directly, and termination waits until
  // the in-flight value surfaces in some later round's counters.
  bool all_zero = !rs.this_round_nonzero;
  if (all_zero && rs.prev_round_all_zero && rs.counters == rs.prev_counters &&
      !vm_->HasOutstandingFor(msg.item)) {
    rs.done = true;
    return;
  }
  rs.prev_counters = std::move(rs.counters);
  rs.prev_round_all_zero = all_zero;
  rs.counters.clear();
  rs.this_round_nonzero = false;
  ++rs.round;
  ++t.rounds;
  SendReadRound(t, msg.item, /*only_missing=*/false);
}

void TxnManager::SendReadRound(PendingTxn& t, ItemId item,
                               bool only_missing) {
  const ReadState& rs = t.reads.at(item);
  auto msg = NewRequest(t.id, t.ts, rs.round);
  msg->parts = {{item, 0, true}};
  m_req_sent_->Inc();
  if (policy_.BroadcastRequests()) {
    m_req_msgs_->Inc(num_sites_ - 1);
    transport_->Broadcast(std::move(msg));
    return;
  }
  for (uint32_t s = 0; s < num_sites_; ++s) {
    if (s == self_.value()) continue;
    if (only_missing && rs.counters.contains(SiteId(s))) continue;
    m_req_msgs_->Inc();
    transport_->SendDatagram(SiteId(s), msg);
  }
}

bool TxnManager::ReadOpen(const PendingTxn& t) {
  if (!t.snap.items.empty() && !t.snap.done) return true;
  for (const auto& [item, rs] : t.reads) {
    (void)item;
    if (!rs.done) return true;
  }
  return false;
}

void TxnManager::ArmRetry(PendingTxn& t) {
  bool gathering = options_.gather_retry_us > 0 && !t.shortfall.empty();
  if (!gathering && !ReadOpen(t)) return;
  SimTime delay = options_.gather_retry_us;
  if (!gathering) {
    // Capped exponential backoff with deterministic jitter instead of a
    // fixed poll: a healthy round re-asks quickly, a partitioned one stops
    // hammering the wire, and readers on different sites (or different
    // transactions on one site) spread out instead of firing in lockstep.
    uint64_t salt = (uint64_t{self_.value()} << 40) ^ (t.id.value() << 1) ^
                    t.retry_attempts;
    delay = net::backoff::Jittered(
        net::backoff::Interval(kReadRetryUs, kReadRetryMaxUs,
                               t.retry_attempts),
        kReadRetryMaxUs, salt);
  }
  TxnId id = t.id;
  t.retry = rt_->Schedule(delay, [this, id]() { OnRetry(id); });
}

void TxnManager::OnRetry(TxnId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  PendingTxn& t = *it->second;
  ++t.retry_attempts;
  t.early_reasks = 0;
  if (options_.gather_retry_us > 0 && !t.shortfall.empty()) {
    // Re-issue the still-missing asks under a fresh timestamp: whatever a
    // refusal, a lost message or the early re-ask bound left open.
    Restamp(t);
    // Re-request only what is still missing, against freshly ranked (or
    // freshly drawn) targets — the previous round's grants and NACK feedback
    // have already reshaped the ask.
    std::vector<proto::RequestPart> parts;
    for (const auto& [item, amount] : t.shortfall) {
      parts.push_back({item, amount, false});
    }
    ++t.rounds;
    SendRequests(t, parts, t.rounds);
  }
  for (auto& [item, rs] : t.reads) {
    if (!rs.done) SendReadRound(t, item, /*only_missing=*/true);
  }
  if (!t.snap.items.empty() && !t.snap.done) {
    // Only the sites whose latest reply predates the current round —
    // balanced sites' entries are already usable as-is.
    SendSnapshotRound(t, /*only_stale=*/true);
  }
  ArmRetry(t);
}

void TxnManager::Restamp(PendingTxn& t) {
  // A CC-refused round is not a death sentence: the kCc NACK bumped this
  // site's clock past the refusing fragment's stamp, so a fresh timestamp
  // passes the gate. Sound for the Conc1 gate — the local locks were granted
  // under an older ts and raising it preserves every MayLock comparison; the
  // commit record stamps fragments with the final (freshest) ts.
  t.ts = clock_->Next();
  if (policy_.StampOnLock()) {
    for (ItemId item : t.items) store_->SetTs(item, t.ts);
  }
}

void TxnManager::OnSnapshotReq(SiteId from, const proto::SnapshotReqMsg& msg) {
  (void)from;
  clock_->Observe(Timestamp::FromPacked(msg.ts_packed));
  m_snap_req_received_->Inc();

  // Capture NOW — fragment values and ledgers at one instant, so the
  // per-site identity holds exactly for this entry set. No locks checked,
  // no value moved: concurrent writers are entirely untouched.
  auto reply = net::MakeEnvelope<proto::SnapshotReplyMsg>();
  reply->txn = msg.txn;
  reply->from = self_;
  reply->round = msg.round;
  reply->ts_packed = clock_->Next().packed();
  reply->trace_id = msg.trace_id;
  for (ItemId item : msg.items) {
    if (item.value() >= store_->num_items()) continue;
    const core::Fragment frag = store_->fragment(item);
    const vm::VmManager::ItemLedger& led = vm_->ledger(item);
    proto::SnapshotEntry e;
    e.item = item;
    e.fragment = frag.value;
    e.frag_ts_packed = frag.ts.packed();
    e.created_count = led.created_count;
    e.created_value = led.created_value;
    e.accepted_count = led.accepted_count;
    e.accepted_value = led.accepted_value;
    e.closed_below = vm_->ItemClosedBelow(item);
    reply->entries.push_back(e);
  }

  // Force gate: the captured fragments may reflect commits still sitting in
  // the unforced group-commit batch. The reply leaves only at the force that
  // makes them durable — a crash before it drops the reply with the rest of
  // the volatile scheduler, so no cut ever contains a rolled-back commit.
  // With group commit off every commit is forced at once, so the reply is
  // sent immediately.
  SiteId origin = msg.origin;
  log_->OnNextForce([this, origin, reply = std::move(reply)]() mutable {
    m_snap_reply_sent_->Inc();
    transport_->SendDatagram(origin, std::move(reply));
  });
}

void TxnManager::OnSnapshotReply(SiteId from,
                                 const proto::SnapshotReplyMsg& msg) {
  (void)from;
  clock_->Observe(Timestamp::FromPacked(msg.ts_packed));
  m_snap_reply_received_->Inc();
  auto it = pending_.find(msg.txn);
  if (it == pending_.end()) return;
  PendingTxn& t = *it->second;
  if (t.snap.items.empty() || t.snap.done) return;
  if (msg.round < t.snap.round) m_snap_stale_replies_->Inc();
  SnapState::Reply& slot = t.snap.replies[msg.from];
  // Latest reply per site wins; a reordered older duplicate is dropped.
  if (msg.round < slot.round) return;
  slot.round = msg.round;
  slot.entries = msg.entries;
  TryCompleteSnapshot(t);
}

void TxnManager::TryCompleteSnapshot(PendingTxn& t) {
  SnapState& s = t.snap;
  if (s.done || s.replies.size() + 1 < num_sites_) return;

  // Assemble the cut from the latest reply per site plus a fresh local
  // capture: Σ fragments + Σ (created − accepted) ledger value. The per-site
  // identity telescopes to  N₀ + Σᵢ (commits at i before its capture) , an
  // exact total under the windowed commit-subset rule — even when the
  // in-flight term is transiently negative (an acceptance captured whose
  // creation was not double-counts a fragment; the negative channel term is
  // its exact compensation).
  bool balanced = true;
  std::map<ItemId, core::Value> totals;
  for (ItemId item : s.items) {
    const vm::VmManager::ItemLedger& led = vm_->ledger(item);
    uint64_t created_count = led.created_count;
    uint64_t accepted_count = led.accepted_count;
    int64_t created_value = led.created_value;
    int64_t accepted_value = led.accepted_value;
    core::Value fragments = store_->value(item);
    for (const auto& [site, reply] : s.replies) {
      (void)site;
      for (const proto::SnapshotEntry& e : reply.entries) {
        if (e.item != item) continue;
        fragments += e.fragment;
        created_count += e.created_count;
        accepted_count += e.accepted_count;
        created_value += e.created_value;
        accepted_value += e.accepted_value;
      }
    }
    totals[item] = fragments + (created_value - accepted_value);
    // Balance certificate: every created Vm's acceptance captured and vice
    // versa — no value visibly in flight, the cut is closed.
    if (created_count != accepted_count || created_value != accepted_value) {
      balanced = false;
    }
  }

  if (balanced || s.round >= kSnapshotMaxRounds) {
    if (!balanced) m_snap_cut_forced_->Inc();
    s.totals = std::move(totals);
    s.done = true;
    Reevaluate(t);
    return;
  }

  // Unbalanced: only advance once the current round is fully answered —
  // a straggler from this round may still close the certificate.
  for (const auto& [site, reply] : s.replies) {
    (void)site;
    if (reply.round < s.round) return;
  }
  m_snap_unbalanced_->Inc();
  ++s.round;
  ++t.rounds;
  if (s.round <= kSnapshotFastRounds) {
    // The in-flight value usually lands within a round-trip; re-ask now.
    SendSnapshotRound(t, /*only_stale=*/false);
  }
  // Beyond the fast rounds the retry timer paces the re-asks.
}

void TxnManager::SendSnapshotRound(PendingTxn& t, bool only_stale) {
  const SnapState& s = t.snap;
  for (uint32_t site = 0; site < num_sites_; ++site) {
    if (site == self_.value()) continue;
    if (only_stale) {
      auto it = s.replies.find(SiteId(site));
      if (it != s.replies.end() && it->second.round >= s.round) continue;
    }
    auto msg = net::MakeEnvelope<proto::SnapshotReqMsg>();
    msg->txn = t.id;
    msg->ts_packed = t.ts.packed();
    msg->origin = self_;
    msg->round = s.round;
    msg->items = s.items;
    msg->trace_id = t.id.value();
    m_snap_req_sent_->Inc();
    transport_->SendDatagram(SiteId(site), std::move(msg));
  }
}

void TxnManager::Reevaluate(PendingTxn& t) {
  // Re-check decrement shortfalls against the (possibly grown) fragments.
  for (auto it = t.shortfall.begin(); it != t.shortfall.end();) {
    ItemId item = it->first;
    const TxnOp* op = nullptr;
    for (const TxnOp& candidate : t.spec.ops) {
      if (candidate.item == item) op = &candidate;
    }
    assert(op && op->kind == TxnOp::Kind::kDecrement);
    const core::Domain& domain = store_->catalog().domain(item);
    core::BoundedDecrementOp dec(op->amount);
    core::ApplyOutcome out = dec.Apply(domain, store_->value(item));
    if (out.applied()) {
      it = t.shortfall.erase(it);
    } else {
      it->second = out.shortfall;
      ++it;
    }
  }
  if (!t.shortfall.empty() || ReadOpen(t)) return;
  ScheduleCommit(t);
}

void TxnManager::ScheduleCommit(PendingTxn& t) {
  if (t.commit_scheduled) return;
  t.commit_scheduled = true;
  if (trace_) {
    trace_->Instant(self_, obs::Track::kTxn, "txn.compute", t.id.value(),
                    "rounds", t.rounds);
  }
  // The gather succeeded: the timeout counter is disarmed and the remaining
  // work is purely local (§5 step 4) — by construction it cannot block.
  t.timeout.Cancel();
  t.retry.Cancel();
  if (options_.local_compute_us <= 0) {
    Commit(t);
    return;
  }
  TxnId id = t.id;
  rt_->Schedule(options_.local_compute_us, [this, id]() {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;  // site crashed meanwhile
    Commit(*it->second);
  });
}

void TxnManager::Commit(PendingTxn& t) {
  // §5 steps 4–5: compute the updates with partitionable operators and force
  // the commit record. That force *is* the commit point; there is no
  // prepared state and no possibility of blocking.
  wal::TxnCommitRec rec;
  rec.txn = t.id;
  rec.ts_packed = t.ts.packed();
  rec.atomic_set = t.spec.atomic_set;

  TxnResult result;
  result.id = t.id;
  result.outcome = TxnOutcome::kCommitted;
  result.rounds = t.rounds;

  for (const TxnOp& op : t.spec.ops) {
    const core::Fragment frag = store_->fragment(op.item);
    switch (op.kind) {
      case TxnOp::Kind::kIncrement:
        rec.writes.push_back(wal::FragmentWrite{
            op.item, frag.value + op.amount, op.amount, t.ts.packed()});
        break;
      case TxnOp::Kind::kDecrement:
        assert(store_->catalog()
                   .domain(op.item)
                   .ValidFragment(frag.value - op.amount));
        rec.writes.push_back(wal::FragmentWrite{
            op.item, frag.value - op.amount, -op.amount, t.ts.packed()});
        break;
      case TxnOp::Kind::kReadFull:
        result.read_values[op.item] = frag.value;
        break;
      case TxnOp::Kind::kReadSnapshot:
        result.read_values[op.item] = t.snap.totals.at(op.item);
        break;
    }
  }

  if (trace_) {
    trace_->Instant(self_, obs::Track::kTxn, "txn.force", t.id.value(),
                    "writes", rec.writes.size());
  }

  // The commit record's covering force is the commit point: at once when
  // group commit is disabled, at the batch force when it is enabled.
  // Completion — the client callback, the committed verdict, the latency
  // stamp — waits for it; everything volatile (store update, lock release)
  // happens now, so lock timing and therefore commit outcomes do not depend
  // on the batching policy. Releasing locks before the force is sound
  // because value never escapes this site except via a Vm transfer, and
  // transfers are themselves gated on their own, later-in-log create-record
  // force. A crash before the force drops the whole unforced tail: the
  // transaction reports site failure and its writes never existed. No
  // separate "applied" record follows: recovery redoes every commit record
  // from its absolute post-values (§7), so one forced record is the whole
  // cost of a local commit.
  TxnId id = t.id;
  for (const wal::FragmentWrite& w : rec.writes) {
    store_->SetValue(w.item, w.post_value);
    store_->SetTs(w.item, Timestamp::FromPacked(w.post_ts_packed));
  }
  locks_->ReleaseAll(id);
  // `t` may die inside the Append below (a forced record runs the
  // completion callback inline) — no member of `t` is touched after it.
  log_->Append(wal::LogRecord(rec),
               [this, id, result = std::move(result)]() mutable {
                 auto it = pending_.find(id);
                 if (it == pending_.end()) return;
                 PendingTxn& t = *it->second;
                 t.committed = true;
                 NoteOutcome(id, TxnOutcome::kCommitted);
                 NoteCommitted(t);
                 result.status = Status::OK();
                 result.latency_us = rt_->Now() - t.start_time;
                 Finish(t, std::move(result));
               });
}

void TxnManager::Abort(PendingTxn& t, TxnOutcome outcome,
                       const std::string& why) {
  // Aborting is purely local: locks drop, nothing to undo — everything that
  // happened so far was value-preserving redistribution (§5: "there is no
  // concept of rollbacks").
  locks_->ReleaseAll(t.id);
  t.timeout.Cancel();
  t.retry.Cancel();

  // A multi-op that gathered part of its item set returns every partial
  // gather to its source as an ordinary Rds send — still conservation-
  // preserving (a Vm either lands or stays live), it just undoes the
  // placement skew an abandoned gather would leave behind. The locks are
  // already dropped, so the fragment is free to ship from. Clamp to what the
  // domain lets the fragment ship right now: concurrent acceptances may have
  // been consumed by value we legitimately still hold.
  if (t.spec.atomic_set) {
    m_multiop_aborted_->Inc();
    for (const AbsorbedCredit& a : t.absorbed) {
      const core::Domain& domain = store_->catalog().domain(a.item);
      core::Value ship =
          std::min(a.amount, domain.MaxShippable(store_->value(a.item)));
      if (ship <= 0) continue;
      vm_->CreateVm(a.src, a.item, ship, TxnId::Invalid());
      m_multiop_return_->Inc();
    }
  }
  NoteOutcome(t.id, outcome);

  TxnResult result;
  result.id = t.id;
  result.outcome = outcome;
  result.status = outcome == TxnOutcome::kAbortTimeout
                      ? Status::Timeout(why)
                      : Status::Aborted(why);
  result.latency_us = rt_->Now() - t.start_time;
  result.rounds = t.rounds;
  Finish(t, std::move(result));
}

void TxnManager::Finish(PendingTxn& t, TxnResult result) {
  auto node = pending_.extract(t.id);
  assert(!node.empty());
  TxnCallback cb = std::move(node.mapped()->cb);
  if (cb) cb(result);
  // node (and the PendingTxn) dies here; `t` must not be used afterwards.
}

void TxnManager::Prefetch(ItemId item, core::Value amount) {
  if (amount <= 0 || item.value() >= store_->num_items()) return;
  Timestamp ts = clock_->Next();
  auto msg = NewRequest(TxnId(ts.packed()), ts, /*round=*/1);
  msg->parts = {{item, amount, false}};
  m_req_prefetch_->Inc();
  if (policy_.BroadcastRequests()) {
    transport_->Broadcast(std::move(msg));
  } else {
    for (SiteId dst : PickTargets()) transport_->SendDatagram(dst, msg);
  }
}

Status TxnManager::SendValue(SiteId dst, ItemId item, core::Value amount) {
  if (amount <= 0) return Status::InvalidArgument("amount must be positive");
  if (item.value() >= store_->num_items()) {
    return Status::NotFound("unknown item");
  }
  if (locks_->IsLocked(item)) {
    return Status::Conflict("item locked; redistribution refused");
  }
  const core::Domain& domain = store_->catalog().domain(item);
  if (amount > domain.MaxShippable(store_->value(item))) {
    return Status::FailedPrecondition("fragment cannot cover the amount");
  }
  vm_->CreateVm(dst, item, amount, TxnId::Invalid());
  m_rds_send_value_->Inc();
  return Status::OK();
}

void TxnManager::CrashAbortAll() {
  // Deliver a final verdict for every in-flight transaction. A transaction
  // whose commit record was already forced *did* commit — the crash merely
  // raced the reply; everything else dies with the volatile state.
  std::vector<std::unique_ptr<PendingTxn>> doomed;
  doomed.reserve(pending_.size());
  for (auto& [id, t] : pending_) {
    (void)id;
    doomed.push_back(std::move(t));
  }
  pending_.clear();
  for (auto& t : doomed) {
    t->timeout.Cancel();
    t->retry.Cancel();
    TxnResult result;
    result.id = t->id;
    if (t->committed) {
      result.outcome = TxnOutcome::kCommitted;
      result.status = Status::OK();
      NoteCommitted(*t);
    } else {
      result.outcome = TxnOutcome::kAbortSiteFailure;
      result.status = Status::Unavailable("site crashed");
      // No return sends here: the crash drops all volatile state, and the
      // absorbed value is exactly what the durable log says this site holds
      // — recovery and the conservation audit account for it in place.
      if (t->spec.atomic_set) m_multiop_aborted_->Inc();
    }
    NoteOutcome(t->id, result.outcome);
    result.latency_us = rt_->Now() - t->start_time;
    if (t->cb) t->cb(result);
  }
}

}  // namespace dvp::txn
