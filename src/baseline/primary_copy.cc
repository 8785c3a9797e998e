#include "baseline/primary_copy.h"

#include <cassert>

namespace dvp::baseline {

namespace {

struct ExecReqMsg final : public net::Envelope {
  TxnId txn;
  SiteId origin;
  txn::TxnSpec spec;
  std::string_view Tag() const override { return "pc.ExecReq"; }
};

struct ExecReplyMsg final : public net::Envelope {
  TxnId txn;
  bool committed = false;
  std::string message;
  std::map<ItemId, core::Value> read_values;
  std::string_view Tag() const override { return "pc.ExecReply"; }
};

}  // namespace

struct PrimaryCopyCluster::SiteState {
  struct Waiting {
    txn::TxnCallback cb;
    SimTime start = 0;
    sim::EventHandle timer;
  };

  PrimaryCopyCluster* owner = nullptr;
  SiteId id;
  wal::StableStorage* storage = nullptr;
  bool up = false;
  uint64_t generation = 0;
  uint64_t next_txn = 1;
  CounterSet counters;
  std::map<ItemId, core::Value> values;  // only items this site is primary of
  std::map<TxnId, Waiting> waiting;

  void Send(SiteId dst, net::EnvelopePtr payload) {
    net::Packet p;
    p.src = id;
    p.dst = dst;
    p.payload = std::move(payload);
    owner->network_->Send(std::move(p));
  }

  /// Executes a transaction locally (this site is the primary).
  void ExecuteLocal(TxnId txn, const txn::TxnSpec& spec,
                    ExecReplyMsg* reply) {
    // Single-site semantics: evaluate against the sole copy atomically.
    wal::TxnCommitRec rec;
    rec.txn = txn;
    for (const auto& op : spec.ops) {
      auto it = values.find(op.item);
      if (it == values.end()) {
        reply->committed = false;
        reply->message = "not the primary of item";
        return;
      }
      switch (op.kind) {
        case txn::TxnOp::Kind::kIncrement:
          rec.writes.push_back(
              wal::FragmentWrite{op.item, it->second + op.amount, op.amount, 0});
          break;
        case txn::TxnOp::Kind::kDecrement:
          if (it->second < op.amount) {
            reply->committed = false;
            reply->message = "insufficient value";
            counters.Inc("pc.txn.insufficient");
            return;
          }
          rec.writes.push_back(wal::FragmentWrite{
              op.item, it->second - op.amount, -op.amount, 0});
          break;
        case txn::TxnOp::Kind::kReadFull:
        case txn::TxnOp::Kind::kReadSnapshot:
          // The primary holds the sole copy, so its value is already a
          // consistent cut: a snapshot read is served as a whole-value read.
          reply->read_values[op.item] = it->second;
          break;
      }
    }
    storage->Append(wal::LogRecord(rec));
    for (const auto& w : rec.writes) values[w.item] = w.post_value;
    reply->committed = true;
    counters.Inc("pc.txn.committed");
  }

  void OnEnvelope(SiteId from, const net::EnvelopePtr& payload) {
    if (const auto* req = dynamic_cast<const ExecReqMsg*>(payload.get())) {
      auto reply = std::make_shared<ExecReplyMsg>();
      reply->txn = req->txn;
      ExecuteLocal(req->txn, req->spec, reply.get());
      Send(from, std::move(reply));
      return;
    }
    if (const auto* rep = dynamic_cast<const ExecReplyMsg*>(payload.get())) {
      auto it = waiting.find(rep->txn);
      if (it == waiting.end()) return;  // duplicate or after timeout
      Waiting w = std::move(it->second);
      waiting.erase(it);
      w.timer.Cancel();
      txn::TxnResult result;
      result.id = rep->txn;
      result.outcome = rep->committed ? txn::TxnOutcome::kCommitted
                                      : txn::TxnOutcome::kAbortTimeout;
      result.status =
          rep->committed ? Status::OK() : Status::Aborted(rep->message);
      result.read_values = rep->read_values;
      result.latency_us = owner->kernel_.Now() - w.start;
      owner->decision_latency_.Add(static_cast<double>(result.latency_us));
      if (w.cb) w.cb(result);
    }
  }
};

PrimaryCopyCluster::PrimaryCopyCluster(const core::Catalog* catalog,
                                       PrimaryCopyOptions options)
    : catalog_(catalog), options_(options), rng_(options.seed) {
  network_ = std::make_unique<net::Network>(&kernel_, options_.num_sites,
                                            options_.link, rng_.Fork(1));
  for (uint32_t s = 0; s < options_.num_sites; ++s) {
    storages_.push_back(std::make_unique<wal::StableStorage>(SiteId(s)));
    auto state = std::make_unique<SiteState>();
    state->owner = this;
    state->id = SiteId(s);
    state->storage = storages_.back().get();
    sites_.push_back(std::move(state));
    SiteState* raw = sites_.back().get();
    network_->RegisterEndpoint(
        SiteId(s),
        [raw](const net::Packet& packet) {
          if (raw->up && packet.payload) {
            raw->OnEnvelope(packet.src, packet.payload);
          }
        },
        [raw]() { return raw->up; });
  }
}

PrimaryCopyCluster::~PrimaryCopyCluster() = default;

void PrimaryCopyCluster::Bootstrap() {
  for (ItemId item : catalog_->AllItems()) {
    SiteState& primary = *sites_[PrimaryOf(item).value()];
    primary.values[item] = catalog_->info(item).initial_total;
    primary.storage->WriteImage(item, catalog_->info(item).initial_total, 0);
  }
  for (auto& s : sites_) s->up = true;
}

StatusOr<TxnId> PrimaryCopyCluster::Submit(SiteId at, const txn::TxnSpec& spec,
                                           txn::TxnCallback cb) {
  SiteState& s = *sites_[at.value()];
  if (!s.up) return Status::Unavailable("site is down");
  if (spec.ops.empty()) return Status::InvalidArgument("no ops");
  SiteId primary = PrimaryOf(spec.ops.front().item);
  for (const auto& op : spec.ops) {
    if (PrimaryOf(op.item) != primary) {
      return Status::InvalidArgument(
          "cross-primary transaction needs 2PC; use TwoPcCluster");
    }
  }
  TxnId txn((s.next_txn++ << Timestamp::kSiteBits) | at.value());

  if (primary == at) {
    // We are the primary: single-site execution, immediate decision.
    ExecReplyMsg reply;
    reply.txn = txn;
    s.ExecuteLocal(txn, spec, &reply);
    txn::TxnResult result;
    result.id = txn;
    result.outcome = reply.committed ? txn::TxnOutcome::kCommitted
                                     : txn::TxnOutcome::kAbortTimeout;
    result.status =
        reply.committed ? Status::OK() : Status::Aborted(reply.message);
    result.read_values = reply.read_values;
    result.latency_us = 0;
    decision_latency_.Add(0);
    if (cb) cb(result);
    return txn;
  }

  auto req = std::make_shared<ExecReqMsg>();
  req->txn = txn;
  req->origin = at;
  req->spec = spec;
  s.Send(primary, std::move(req));

  SiteState::Waiting w;
  w.cb = std::move(cb);
  w.start = kernel_.Now();
  uint64_t gen = s.generation;
  SiteState* raw = &s;
  w.timer = kernel_.Schedule(options_.request_timeout_us, [raw, gen, txn]() {
    if (gen != raw->generation) return;
    auto it = raw->waiting.find(txn);
    if (it == raw->waiting.end()) return;
    SiteState::Waiting w = std::move(it->second);
    raw->waiting.erase(it);
    raw->counters.Inc("pc.txn.timeout");
    txn::TxnResult result;
    result.id = txn;
    result.outcome = txn::TxnOutcome::kAbortTimeout;
    result.status = Status::Timeout("primary unreachable; outcome unknown");
    result.latency_us = raw->owner->kernel_.Now() - w.start;
    if (w.cb) w.cb(result);
  });
  s.waiting.emplace(txn, std::move(w));
  return txn;
}

void PrimaryCopyCluster::RunFor(SimTime us) { kernel_.Run(kernel_.Now() + us); }
SimTime PrimaryCopyCluster::Now() const { return kernel_.Now(); }

Status PrimaryCopyCluster::Partition(
    const std::vector<std::vector<SiteId>>& groups) {
  return network_->partition().Split(groups);
}
void PrimaryCopyCluster::Heal() { network_->partition().Heal(); }

void PrimaryCopyCluster::CrashSite(SiteId s) {
  SiteState& st = *sites_[s.value()];
  if (!st.up) return;
  st.up = false;
  ++st.generation;
  for (auto& [txn, w] : st.waiting) {
    w.timer.Cancel();
    if (w.cb) {
      txn::TxnResult result;
      result.id = txn;
      result.outcome = txn::TxnOutcome::kAbortSiteFailure;
      result.status = Status::Unavailable("origin site crashed");
      w.cb(result);
    }
  }
  st.waiting.clear();
  st.values.clear();
}

void PrimaryCopyCluster::RecoverSite(SiteId s) {
  SiteState& st = *sites_[s.value()];
  assert(!st.up);
  ++st.generation;
  // Redo from image + committed records.
  for (const auto& [item, entry] : st.storage->image()) {
    st.values[item] = entry.value;
  }
  Status scan = st.storage->Scan(0, [&](Lsn, const wal::LogRecord& rec) {
    if (const auto* c = std::get_if<wal::TxnCommitRec>(&rec)) {
      for (const auto& w : c->writes) st.values[w.item] = w.post_value;
    }
  });
  assert(scan.ok());
  (void)scan;
  st.up = true;
}

core::Value PrimaryCopyCluster::PrimaryValue(ItemId item) const {
  const SiteState& st = *sites_[PrimaryOf(item).value()];
  auto it = st.values.find(item);
  return it == st.values.end() ? 0 : it->second;
}

CounterSet PrimaryCopyCluster::AggregateCounters() const {
  CounterSet out;
  for (const auto& s : sites_) out.Merge(s->counters);
  return out;
}

}  // namespace dvp::baseline
