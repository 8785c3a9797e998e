#include "baseline/twopc.h"

#include <algorithm>
#include <cassert>

namespace dvp::baseline {

namespace {

// ---- Wire messages (internal to the baseline) ------------------------------

struct ReplicaRead {
  ItemId item;
  core::Value value = 0;
  uint64_t version = 0;
};

struct LockReqMsg final : public net::Envelope {
  TxnId txn;
  SiteId coordinator;
  std::vector<ItemId> items;
  std::string_view Tag() const override { return "2pc.LockReq"; }
};

struct LockReplyMsg final : public net::Envelope {
  TxnId txn;
  SiteId site;
  bool granted = false;
  std::vector<ReplicaRead> reads;  // when granted
  std::string_view Tag() const override { return "2pc.LockReply"; }
};

struct PrepareReqMsg final : public net::Envelope {
  TxnId txn;
  SiteId coordinator;
  std::vector<wal::FragmentWrite> writes;  // post_ts_packed carries version
  std::string_view Tag() const override { return "2pc.Prepare"; }
};

struct VoteMsg final : public net::Envelope {
  TxnId txn;
  SiteId site;
  bool yes = false;
  std::string_view Tag() const override { return "2pc.Vote"; }
};

struct DecisionMsg final : public net::Envelope {
  TxnId txn;
  bool committed = false;
  std::string_view Tag() const override { return "2pc.Decision"; }
};

struct DecisionReqMsg final : public net::Envelope {
  TxnId txn;
  SiteId from;
  SiteId coordinator;
  std::string_view Tag() const override { return "2pc.DecisionReq"; }
};

}  // namespace

// ---- Per-site state ---------------------------------------------------------

struct TwoPcCluster::SiteState {
  enum class CoordPhase { kGathering, kVoting, kDecided };

  struct Coordinator {
    txn::TxnSpec spec;
    txn::TxnCallback cb;
    SimTime start = 0;
    CoordPhase phase = CoordPhase::kGathering;
    std::map<SiteId, std::vector<ReplicaRead>> grants;
    uint32_t refusals = 0;
    std::set<SiteId> participants;  // the quorum that prepared
    std::set<SiteId> votes;
    std::vector<wal::FragmentWrite> writes;
    std::map<ItemId, core::Value> read_values;
    sim::EventHandle timer;
  };

  struct Participant {
    SiteId coordinator;
    std::vector<ItemId> items;
    std::vector<wal::FragmentWrite> writes;
    bool prepared = false;
    bool in_doubt_after_recovery = false;
    SimTime prepared_at = 0;
    sim::EventHandle timer;
  };

  struct Replica {
    core::Value value = 0;
    uint64_t version = 0;
  };

  TwoPcCluster* owner = nullptr;
  SiteId id;
  wal::StableStorage* storage = nullptr;
  bool up = false;
  uint64_t generation = 0;
  uint64_t next_txn = 1;
  CounterSet counters;

  // Volatile:
  std::vector<Replica> replicas;
  cc::LockManager locks;
  std::map<TxnId, Coordinator> coords;
  std::map<TxnId, Participant> parts;
  std::map<TxnId, bool> decisions;  // durable via DecisionRec

  // Recovery-in-progress bookkeeping.
  uint64_t recovery_messages = 0;
  uint32_t in_doubt = 0;
  std::function<void(uint64_t)> recovery_done;

  void Send(SiteId dst, net::EnvelopePtr payload) {
    net::Packet p;
    p.src = id;
    p.dst = dst;
    p.payload = std::move(payload);
    owner->network().Send(std::move(p));
  }

  void OnEnvelope(SiteId from, const net::EnvelopePtr& payload);
  void StartTxn(const txn::TxnSpec& spec, txn::TxnCallback cb, TxnId txn);
  void OnLockReq(SiteId from, const LockReqMsg& msg);
  void OnLockReply(const LockReplyMsg& msg);
  void TryPrepare(TxnId txn);
  void OnPrepareReq(SiteId from, const PrepareReqMsg& msg);
  void OnVote(const VoteMsg& msg);
  void Decide(TxnId txn, bool commit, txn::TxnOutcome outcome,
              const std::string& why);
  void OnDecision(const DecisionMsg& msg);
  void OnDecisionReq(SiteId from, const DecisionReqMsg& msg);
  void ApplyWrites(const std::vector<wal::FragmentWrite>& writes);
  void ArmParticipantPoll(TxnId txn);
  void ResolveInDoubt(TxnId txn);
  void Crash();
  void Recover(std::function<void(uint64_t)> done);
};

// ---- Cluster ---------------------------------------------------------------

TwoPcCluster::TwoPcCluster(const core::Catalog* catalog, TwoPcOptions options)
    : world::SimWorld(options.num_sites, options.seed, options.link),
      catalog_(catalog),
      options_(options) {
  for (uint32_t s = 0; s < options_.num_sites; ++s) {
    auto state = std::make_unique<SiteState>();
    state->owner = this;
    state->id = SiteId(s);
    state->storage = &storage(SiteId(s));
    sites_.push_back(std::move(state));
    SiteState* raw = sites_.back().get();
    network().RegisterEndpoint(
        SiteId(s),
        [raw](const net::Packet& packet) {
          if (raw->up && packet.payload) {
            raw->OnEnvelope(packet.src, packet.payload);
          }
        },
        [raw]() { return raw->up; });
  }
}

TwoPcCluster::~TwoPcCluster() = default;

uint32_t TwoPcCluster::QuorumSize() const {
  if (options_.policy == ReplicaPolicy::kWriteAll) return options_.num_sites;
  if (options_.quorum > 0) return options_.quorum;
  return options_.num_sites / 2 + 1;
}

void TwoPcCluster::Bootstrap() {
  for (auto& site : sites_) {
    site->replicas.assign(catalog_->num_items(), SiteState::Replica{});
    for (ItemId item : catalog_->AllItems()) {
      core::Value v = catalog_->info(item).initial_total;
      site->replicas[item.value()] = SiteState::Replica{v, 0};
      site->storage->WriteImage(item, v, 0);
    }
    site->up = true;
  }
}

StatusOr<TxnId> TwoPcCluster::Submit(SiteId at, const txn::TxnSpec& spec,
                                     txn::TxnCallback cb) {
  SiteState& s = state(at);
  if (!s.up) return Status::Unavailable("site is down");
  TxnId txn((s.next_txn++ << Timestamp::kSiteBits) | at.value());
  s.StartTxn(spec, std::move(cb), txn);
  return txn;
}

void TwoPcCluster::CrashSite(SiteId s) { state(s).Crash(); }

void TwoPcCluster::RecoverSite(SiteId s, std::function<void(uint64_t)> done) {
  state(s).Recover(std::move(done));
}

core::Value TwoPcCluster::ReplicaValue(SiteId s, ItemId item) const {
  return sites_[s.value()]->replicas[item.value()].value;
}

core::Value TwoPcCluster::AuthoritativeValue(ItemId item) const {
  core::Value best = 0;
  uint64_t best_ver = 0;
  bool any = false;
  for (const auto& s : sites_) {
    if (!s->up) continue;
    const auto& r = s->replicas[item.value()];
    if (!any || r.version > best_ver) {
      best = r.value;
      best_ver = r.version;
      any = true;
    }
  }
  return best;
}

bool TwoPcCluster::AnyBlockedParticipant() const {
  return BlockedParticipants() > 0;
}

uint32_t TwoPcCluster::BlockedParticipants() const {
  uint32_t n = 0;
  for (const auto& s : sites_) {
    for (const auto& [txn, p] : s->parts) {
      (void)txn;
      if (p.prepared) ++n;
    }
  }
  return n;
}

CounterSet TwoPcCluster::SiteCounters() const {
  CounterSet out;
  for (const auto& s : sites_) out.Merge(s->counters);
  return out;
}

// ---- SiteState behaviour ------------------------------------------------------

void TwoPcCluster::SiteState::OnEnvelope(SiteId from,
                                         const net::EnvelopePtr& payload) {
  if (const auto* m = dynamic_cast<const LockReqMsg*>(payload.get())) {
    OnLockReq(from, *m);
  } else if (const auto* m =
                 dynamic_cast<const LockReplyMsg*>(payload.get())) {
    OnLockReply(*m);
  } else if (const auto* m =
                 dynamic_cast<const PrepareReqMsg*>(payload.get())) {
    OnPrepareReq(from, *m);
  } else if (const auto* m = dynamic_cast<const VoteMsg*>(payload.get())) {
    OnVote(*m);
  } else if (const auto* m = dynamic_cast<const DecisionMsg*>(payload.get())) {
    OnDecision(*m);
  } else if (const auto* m =
                 dynamic_cast<const DecisionReqMsg*>(payload.get())) {
    OnDecisionReq(from, *m);
  }
}

void TwoPcCluster::SiteState::StartTxn(const txn::TxnSpec& spec,
                                       txn::TxnCallback cb, TxnId txn) {
  auto& coord = coords[txn];
  coord.spec = spec;
  coord.cb = std::move(cb);
  coord.start = owner->Now();
  counters.Inc("2pc.txn.started");

  std::vector<ItemId> items;
  for (const auto& op : spec.ops) items.push_back(op.item);

  auto req = std::make_shared<LockReqMsg>();
  req->txn = txn;
  req->coordinator = id;
  req->items = items;
  for (uint32_t s = 0; s < owner->options_.num_sites; ++s) {
    Send(SiteId(s), req);
  }

  uint64_t gen = generation;
  coord.timer = owner->kernel().Schedule(
      owner->options_.coordinator_timeout_us, [this, gen, txn]() {
        if (gen != generation) return;
        auto it = coords.find(txn);
        if (it == coords.end() || it->second.phase == CoordPhase::kDecided) {
          return;
        }
        Decide(txn, false, txn::TxnOutcome::kAbortTimeout,
               "coordinator timeout");
      });
}

void TwoPcCluster::SiteState::OnLockReq(SiteId from, const LockReqMsg& msg) {
  if (parts.contains(msg.txn)) return;  // duplicate
  auto reply = std::make_shared<LockReplyMsg>();
  reply->txn = msg.txn;
  reply->site = id;
  if (!locks.TryLockAll(msg.items, msg.txn)) {
    reply->granted = false;
    counters.Inc("2pc.lock.refused");
    Send(from, std::move(reply));
    return;
  }
  Participant& p = parts[msg.txn];
  p.coordinator = msg.coordinator;
  p.items = msg.items;
  reply->granted = true;
  for (ItemId item : msg.items) {
    const Replica& r = replicas[item.value()];
    reply->reads.push_back(ReplicaRead{item, r.value, r.version});
  }
  counters.Inc("2pc.lock.granted");
  Send(from, std::move(reply));

  // Pre-vote patience: a participant that granted but never got a prepare
  // may unilaterally release (it has promised nothing yet).
  uint64_t gen = generation;
  TxnId txn = msg.txn;
  p.timer = owner->kernel().Schedule(
      2 * owner->options_.coordinator_timeout_us, [this, gen, txn]() {
        if (gen != generation) return;
        auto it = parts.find(txn);
        if (it == parts.end() || it->second.prepared) return;
        locks.ReleaseAll(txn);
        parts.erase(it);
        counters.Inc("2pc.grant.expired");
      });
}

void TwoPcCluster::SiteState::OnLockReply(const LockReplyMsg& msg) {
  auto it = coords.find(msg.txn);
  if (it == coords.end() || it->second.phase != CoordPhase::kGathering) {
    // A grant that arrives after the decision (or after an abort) would
    // leave that replica locked until its grant-expiry timer; tell the
    // granter the outcome right away so the lock frees promptly.
    if (msg.granted) {
      auto known = decisions.find(msg.txn);
      bool committed = known != decisions.end() && known->second;
      auto decision = std::make_shared<DecisionMsg>();
      decision->txn = msg.txn;
      decision->committed = committed;
      Send(msg.site, std::move(decision));
    }
    return;
  }
  Coordinator& c = it->second;
  if (msg.granted) {
    c.grants[msg.site] = msg.reads;
    TryPrepare(msg.txn);
  } else {
    ++c.refusals;
    uint32_t needed = owner->QuorumSize();
    if (owner->options_.num_sites - c.refusals < needed) {
      Decide(msg.txn, false, txn::TxnOutcome::kAbortLockConflict,
             "lock refused at replica");
    }
  }
}

void TwoPcCluster::SiteState::TryPrepare(TxnId txn) {
  Coordinator& c = coords.at(txn);
  uint32_t needed = owner->QuorumSize();
  if (c.grants.size() < needed) return;

  // Latest committed value per item = max version among the quorum's reads
  // (quorums intersect, so the latest committed write is represented).
  std::map<ItemId, ReplicaRead> latest;
  for (const auto& [site, reads] : c.grants) {
    (void)site;
    for (const ReplicaRead& r : reads) {
      auto [it, inserted] = latest.try_emplace(r.item, r);
      if (!inserted && r.version > it->second.version) it->second = r;
    }
  }

  // Semantic evaluation against the whole (replicated) value.
  for (const auto& op : c.spec.ops) {
    const ReplicaRead& r = latest.at(op.item);
    switch (op.kind) {
      case txn::TxnOp::Kind::kIncrement:
        c.writes.push_back(wal::FragmentWrite{op.item, r.value + op.amount,
                                              op.amount, r.version + 1});
        break;
      case txn::TxnOp::Kind::kDecrement:
        if (r.value < op.amount) {
          Decide(txn, false, txn::TxnOutcome::kAbortTimeout,
                 "insufficient value");
          return;
        }
        c.writes.push_back(wal::FragmentWrite{op.item, r.value - op.amount,
                                              -op.amount, r.version + 1});
        break;
      case txn::TxnOp::Kind::kReadFull:
      case txn::TxnOp::Kind::kReadSnapshot:
        // The quorum's latest version is already a consistent cut: a
        // snapshot read is served as a whole-value read.
        c.read_values[op.item] = r.value;
        break;
    }
  }

  c.phase = CoordPhase::kVoting;
  for (const auto& [site, reads] : c.grants) {
    (void)reads;
    c.participants.insert(site);
  }
  auto prep = std::make_shared<PrepareReqMsg>();
  prep->txn = txn;
  prep->coordinator = id;
  prep->writes = c.writes;
  for (SiteId site : c.participants) Send(site, prep);
  counters.Inc("2pc.prepare.sent");
}

void TwoPcCluster::SiteState::OnPrepareReq(SiteId from,
                                           const PrepareReqMsg& msg) {
  auto it = parts.find(msg.txn);
  if (it == parts.end()) {
    // We never granted (or already expired the grant): refuse.
    auto vote = std::make_shared<VoteMsg>();
    vote->txn = msg.txn;
    vote->site = id;
    vote->yes = false;
    Send(from, std::move(vote));
    return;
  }
  Participant& p = it->second;
  if (!p.prepared) {
    p.writes = msg.writes;
    p.prepared = true;
    p.prepared_at = owner->Now();
    p.timer.Cancel();
    storage->Append(
        wal::LogRecord(wal::PrepareRec{msg.txn, msg.coordinator, msg.writes}));
    counters.Inc("2pc.prepared");
    ArmParticipantPoll(msg.txn);
  }
  auto vote = std::make_shared<VoteMsg>();
  vote->txn = msg.txn;
  vote->site = id;
  vote->yes = true;
  Send(from, std::move(vote));
}

void TwoPcCluster::SiteState::OnVote(const VoteMsg& msg) {
  auto it = coords.find(msg.txn);
  if (it == coords.end() || it->second.phase != CoordPhase::kVoting) return;
  Coordinator& c = it->second;
  if (!msg.yes) {
    Decide(msg.txn, false, txn::TxnOutcome::kAbortLockConflict,
           "participant voted no");
    return;
  }
  c.votes.insert(msg.site);
  if (c.votes.size() == c.participants.size()) {
    Decide(msg.txn, true, txn::TxnOutcome::kCommitted, "");
  }
}

void TwoPcCluster::SiteState::Decide(TxnId txn, bool commit,
                                     txn::TxnOutcome outcome,
                                     const std::string& why) {
  auto it = coords.find(txn);
  assert(it != coords.end());
  Coordinator& c = it->second;
  assert(c.phase != CoordPhase::kDecided);
  c.phase = CoordPhase::kDecided;
  c.timer.Cancel();

  // The decision record is the commit point.
  storage->Append(wal::LogRecord(wal::DecisionRec{txn, commit}));
  decisions[txn] = commit;
  counters.Inc(commit ? "2pc.txn.committed"
                      : std::string("2pc.txn.") +
                            std::string(txn::TxnOutcomeName(outcome)));

  txn::TxnResult result;
  result.id = txn;
  result.outcome = outcome;
  result.status = commit ? Status::OK() : Status::Aborted(why);
  result.read_values = c.read_values;
  result.latency_us = owner->Now() - c.start;
  owner->decision_latency_.Add(static_cast<double>(result.latency_us));

  auto decision = std::make_shared<DecisionMsg>();
  decision->txn = txn;
  decision->committed = commit;
  // Inform everyone who may hold state: the prepared quorum on commit, every
  // granting site on abort.
  std::set<SiteId> recipients = c.participants;
  for (const auto& [site, reads] : c.grants) {
    (void)reads;
    recipients.insert(site);
  }
  for (SiteId site : recipients) Send(site, decision);

  txn::TxnCallback cb = std::move(c.cb);
  coords.erase(it);
  if (cb) cb(result);
}

void TwoPcCluster::SiteState::ApplyWrites(
    const std::vector<wal::FragmentWrite>& writes) {
  for (const auto& w : writes) {
    Replica& r = replicas[w.item.value()];
    if (w.post_ts_packed >= r.version) {
      r.value = w.post_value;
      r.version = w.post_ts_packed;
    }
  }
}

void TwoPcCluster::SiteState::OnDecision(const DecisionMsg& msg) {
  auto it = parts.find(msg.txn);
  if (!decisions.contains(msg.txn)) {
    storage->Append(wal::LogRecord(wal::DecisionRec{msg.txn, msg.committed}));
    decisions[msg.txn] = msg.committed;
  }
  if (it == parts.end()) return;
  Participant& p = it->second;
  if (p.prepared) {
    owner->blocked_time_.Add(
        static_cast<double>(owner->Now() - p.prepared_at));
    if (p.in_doubt_after_recovery) ResolveInDoubt(msg.txn);
  }
  if (msg.committed) ApplyWrites(p.writes);
  p.timer.Cancel();
  locks.ReleaseAll(msg.txn);
  parts.erase(it);
}

void TwoPcCluster::SiteState::OnDecisionReq(SiteId from,
                                            const DecisionReqMsg& msg) {
  auto known = decisions.find(msg.txn);
  if (known != decisions.end()) {
    auto decision = std::make_shared<DecisionMsg>();
    decision->txn = msg.txn;
    decision->committed = known->second;
    Send(from, std::move(decision));
    return;
  }
  if (coords.contains(msg.txn)) return;  // still undecided: stay blocked
  // Unknown transaction: presumed abort.
  auto decision = std::make_shared<DecisionMsg>();
  decision->txn = msg.txn;
  decision->committed = false;
  Send(from, std::move(decision));
}

void TwoPcCluster::SiteState::ArmParticipantPoll(TxnId txn) {
  uint64_t gen = generation;
  auto it = parts.find(txn);
  if (it == parts.end()) return;
  it->second.timer = owner->kernel().Schedule(
      owner->options_.decision_retry_us, [this, gen, txn]() {
        if (gen != generation) return;
        auto pit = parts.find(txn);
        if (pit == parts.end() || !pit->second.prepared) return;
        auto req = std::make_shared<DecisionReqMsg>();
        req->txn = txn;
        req->from = id;
        req->coordinator = pit->second.coordinator;
        counters.Inc("2pc.blocked.poll");
        if (in_doubt > 0) ++recovery_messages;
        Send(pit->second.coordinator, std::move(req));
        ArmParticipantPoll(txn);
      });
}

void TwoPcCluster::SiteState::ResolveInDoubt(TxnId txn) {
  (void)txn;
  assert(in_doubt > 0);
  --in_doubt;
  if (in_doubt == 0 && recovery_done) {
    auto done = std::move(recovery_done);
    recovery_done = nullptr;
    done(recovery_messages);
  }
}

void TwoPcCluster::SiteState::Crash() {
  if (!up) return;
  up = false;
  ++generation;
  counters.Inc("2pc.site.crashes");
  // Coordinators die undecided; their clients see a failure.
  for (auto& [txn, c] : coords) {
    c.timer.Cancel();
    if (c.phase != CoordPhase::kDecided && c.cb) {
      txn::TxnResult result;
      result.id = txn;
      result.outcome = txn::TxnOutcome::kAbortSiteFailure;
      result.status = Status::Unavailable("coordinator crashed");
      result.latency_us = owner->Now() - c.start;
      c.cb(result);
    }
  }
  coords.clear();
  for (auto& [txn, p] : parts) {
    (void)txn;
    p.timer.Cancel();
  }
  parts.clear();
  locks.Clear();
  replicas.clear();
  decisions.clear();
  recovery_messages = 0;
  in_doubt = 0;
  recovery_done = nullptr;
}

void TwoPcCluster::SiteState::Recover(std::function<void(uint64_t)> done) {
  assert(!up);
  ++generation;
  counters.Inc("2pc.site.recoveries");
  recovery_messages = 0;

  // Rebuild replicas from the image, then redo in log order.
  replicas.assign(owner->catalog_->num_items(), Replica{});
  for (const auto& [item, entry] : storage->image()) {
    replicas[item.value()] = Replica{entry.value, entry.ts_packed};
  }
  std::map<TxnId, wal::PrepareRec> prepared;
  Status s = storage->Scan(0, [&](Lsn, const wal::LogRecord& rec) {
    if (const auto* p = std::get_if<wal::PrepareRec>(&rec)) {
      prepared[p->txn] = *p;
    } else if (const auto* d = std::get_if<wal::DecisionRec>(&rec)) {
      decisions[d->txn] = d->committed;
      if (d->committed) {
        auto it = prepared.find(d->txn);
        if (it != prepared.end()) ApplyWrites(it->second.writes);
      }
    }
  });
  assert(s.ok());
  (void)s;
  up = true;

  // In-doubt transactions: prepared here, decision unknown. The participant
  // must re-lock the items, re-enter the uncertainty window, and interrogate
  // the coordinator — recovery is *dependent* on remote communication.
  for (const auto& [txn, prep] : prepared) {
    if (decisions.contains(txn)) continue;
    Participant& p = parts[txn];
    p.coordinator = prep.coordinator;
    p.writes = prep.writes;
    for (const auto& w : prep.writes) p.items.push_back(w.item);
    bool relocked = locks.TryLockAll(p.items, txn);
    assert(relocked);
    (void)relocked;
    p.prepared = true;
    p.in_doubt_after_recovery = true;
    p.prepared_at = owner->Now();
    ++in_doubt;

    auto req = std::make_shared<DecisionReqMsg>();
    req->txn = txn;
    req->from = id;
    req->coordinator = prep.coordinator;
    ++recovery_messages;
    counters.Inc("2pc.recovery.decision_req");
    Send(prep.coordinator, req);
    ArmParticipantPoll(txn);
  }
  if (in_doubt == 0) {
    if (done) done(recovery_messages);
  } else {
    recovery_done = std::move(done);
  }
}

}  // namespace dvp::baseline
