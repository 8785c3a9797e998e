#include "net/transport.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "net/backoff.h"
#include "obs/trace.h"

namespace dvp::net {

Transport::Transport(runtime::Runtime* rt, Conduit* conduit, SiteId self,
                     obs::MetricsRegistry* metrics, Options options,
                     obs::TraceRecorder* trace)
    : rt_(rt),
      conduit_(conduit),
      self_(self),
      trace_(trace),
      options_(options),
      m_ack_piggyback_(obs::CounterIn(metrics, "transport.ack_piggyback")),
      m_ack_pure_(obs::CounterIn(metrics, "transport.ack_pure")),
      m_stale_epoch_drop_(obs::CounterIn(metrics, "transport.stale_epoch_drop")),
      m_cum_fastforward_(obs::CounterIn(metrics, "transport.cum_fastforward")),
      m_dup_drop_(obs::CounterIn(metrics, "transport.dup_drop")),
      m_window_drop_(obs::CounterIn(metrics, "transport.window_drop")),
      m_retransmit_(obs::CounterIn(metrics, "transport.retransmit")),
      m_coalesced_frames_(obs::CounterIn(metrics, "transport.coalesced_frames")),
      m_coalesced_riders_(
          obs::CounterIn(metrics, "transport.coalesced_riders")) {}

Transport::~Transport() { *alive_ = false; }

size_t Transport::dedup_entries() const {
  size_t n = 0;
  for (const auto& [peer, pi] : in_) {
    (void)peer;
    n += pi.above.size();
  }
  return n;
}

void Transport::NoteDedupSize() {
  dedup_peak_ = std::max(dedup_peak_, dedup_entries());
}

void Transport::AttachAck(Packet* p) {
  auto it = in_.find(p->dst);
  if (it == in_.end()) return;
  PeerIn& pi = it->second;
  p->has_ack = true;
  p->ack_epoch = pi.epoch;
  p->ack_cum = pi.cum;
  if (pi.ack_owed) {
    pi.ack_owed = false;  // this packet is the ack; the pure-ack timer yields
    pi.ack_timer.Cancel();
    ++piggyback_acks_;
    m_ack_piggyback_->Inc();
  }
}

void Transport::SendOnWire(Packet&& p) {
  if (hint_fn_ && options_.max_frame_hints > 0) {
    p.hints = hint_fn_(p.dst);
    if (p.hints.size() > options_.max_frame_hints) {
      p.hints.resize(options_.max_frame_hints);
    }
  }
  p.trace_id = p.payload ? p.payload->trace_id : 0;
  if (trace_) {
    trace_->Instant(self_, obs::Track::kNet, "net.send", p.trace_id, "dst",
                    p.dst.value(), "seq", p.seq.valid() ? p.seq.value() : 0);
  }
  conduit_->Send(std::move(p));
}

void Transport::Stage(SiteId dst, Reliability reliability, uint64_t seq,
                      EnvelopePtr payload) {
  staging_[dst].push_back(StagedMsg{reliability, seq, std::move(payload)});
  if (flush_armed_) return;
  flush_armed_ = true;
  uint64_t gen = generation_;
  rt_->Schedule(0, [this, gen, alive = alive_]() {
    if (!*alive || gen != generation_) return;
    flush_armed_ = false;
    FlushStaging();
  });
}

void Transport::FlushStaging() {
  std::map<SiteId, std::vector<StagedMsg>> staged = std::move(staging_);
  staging_.clear();
  for (auto& [dst, msgs] : staged) {
    for (size_t i = 0; i < msgs.size(); i += options_.max_frame_msgs) {
      size_t end = std::min(msgs.size(),
                            i + static_cast<size_t>(options_.max_frame_msgs));
      Packet p;
      p.src = self_;
      p.dst = dst;
      p.reliability = msgs[i].reliability;
      p.epoch = epoch_;
      p.seq = MsgSeq(msgs[i].seq);
      auto po = out_.find(dst);
      if (po != out_.end() && !po->second.pending.empty()) {
        p.seq_base = po->second.pending.begin()->first;
      }
      p.payload = std::move(msgs[i].payload);
      for (size_t j = i + 1; j < end; ++j) {
        p.extra.push_back(
            SubMsg{msgs[j].reliability, MsgSeq(msgs[j].seq),
                   std::move(msgs[j].payload)});
      }
      if (!p.extra.empty()) {
        ++coalesced_frames_;
        coalesced_riders_ += p.extra.size();
        m_coalesced_frames_->Inc();
        m_coalesced_riders_->Inc(p.extra.size());
      }
      AttachAck(&p);
      SendOnWire(std::move(p));
    }
  }
}

void Transport::SendPacket(SiteId dst, uint64_t seq,
                           const EnvelopePtr& payload) {
  if (options_.coalesce) {
    Stage(dst, Reliability::kReliable, seq, payload);
    return;
  }
  Packet p;
  p.src = self_;
  p.dst = dst;
  p.reliability = Reliability::kReliable;
  p.epoch = epoch_;
  p.seq = MsgSeq(seq);
  auto po = out_.find(dst);
  if (po != out_.end() && !po->second.pending.empty()) {
    p.seq_base = po->second.pending.begin()->first;
  }
  p.payload = payload;
  AttachAck(&p);
  SendOnWire(std::move(p));
}

void Transport::SendDatagram(SiteId dst, EnvelopePtr payload) {
  if (options_.coalesce) {
    Stage(dst, Reliability::kDatagram, /*seq=*/0, std::move(payload));
    return;
  }
  Packet p;
  p.src = self_;
  p.dst = dst;
  p.reliability = Reliability::kDatagram;
  p.epoch = epoch_;
  p.payload = std::move(payload);
  AttachAck(&p);
  SendOnWire(std::move(p));
}

void Transport::SendReliable(SiteId dst, uint64_t token,
                             EnvelopePtr payload) {
  if (token_index_.contains(token)) {
    // A silent overwrite here would orphan the first payload (its pending
    // entry — and with it the retransmission guarantee — would vanish).
    // Token reuse means the id space above us collapsed; refuse to run on.
    std::fprintf(stderr,
                 "Transport::SendReliable: token %llu is already a live "
                 "reliable send at site %u — caller reused an id\n",
                 static_cast<unsigned long long>(token), self_.value());
    std::abort();
  }
  PeerOut& po = out_[dst];
  uint64_t seq = po.next_seq++;
  token_index_.emplace(token, std::make_pair(dst, seq));
  po.pending.emplace(seq, PendingSend{token, payload, /*sends=*/1});
  if (po.pending.size() == 1) {
    po.next_due = rt_->Now() + JitteredInterval(dst, po);
  }
  SendPacket(dst, seq, payload);
  ArmTimer();
}

void Transport::CancelReliable(uint64_t token) {
  auto it = token_index_.find(token);
  if (it == token_index_.end()) return;
  auto [dst, seq] = it->second;
  token_index_.erase(it);
  auto po = out_.find(dst);
  if (po != out_.end()) po->second.pending.erase(seq);
}

void Transport::Broadcast(EnvelopePtr payload) {
  conduit_->Broadcast(self_, std::move(payload));
}

void Transport::ProcessAck(SiteId from, uint64_t ack_epoch, uint64_t ack_cum) {
  if (ack_epoch != epoch_) return;  // ack for a previous incarnation of us
  auto it = out_.find(from);
  if (it == out_.end()) return;
  PeerOut& po = it->second;
  // Evidence the peer is reachable again: restart the backoff schedule.
  po.backoff_exp = 0;
  std::vector<uint64_t> completed;
  while (!po.pending.empty() && po.pending.begin()->first <= ack_cum) {
    completed.push_back(po.pending.begin()->second.token);
    token_index_.erase(po.pending.begin()->second.token);
    po.pending.erase(po.pending.begin());
  }
  if (!completed.empty() && !po.pending.empty()) {
    po.next_due = rt_->Now() + JitteredInterval(from, po);
  }
  for (uint64_t token : completed) {
    if (trace_) {
      trace_->Instant(self_, obs::Track::kNet, "net.ack", 0, "peer",
                      from.value(), "token", token);
    }
    if (ack_fn_) ack_fn_(token);
  }
}

void Transport::OweAck(SiteId src) {
  PeerIn& pi = in_[src];
  if (pi.ack_owed) return;  // pure ack already armed
  pi.ack_owed = true;
  uint64_t gen = generation_;
  pi.ack_timer = rt_->Schedule(options_.ack_delay_us,
                                   [this, gen, src, alive = alive_]() {
    if (!*alive || gen != generation_) return;
    auto it = in_.find(src);
    if (it == in_.end() || !it->second.ack_owed) return;  // piggybacked since
    it->second.ack_owed = false;
    Packet p;
    p.src = self_;
    p.dst = src;
    p.reliability = Reliability::kDatagram;
    p.epoch = epoch_;
    p.has_ack = true;
    p.ack_epoch = it->second.epoch;
    p.ack_cum = it->second.cum;
    ++pure_acks_;
    m_ack_pure_->Inc();
    SendOnWire(std::move(p));
  });
}

void Transport::OnPacket(const Packet& packet) {
  // Hints first: a request riding this same frame should find the surplus
  // cache already refreshed by its own carrier.
  if (!packet.hints.empty() && hint_sink_) {
    hint_sink_(packet.src, packet.hints);
  }
  if (packet.has_ack) ProcessAck(packet.src, packet.ack_epoch, packet.ack_cum);
  if (packet.payload) {
    ProcessSub(packet.src, packet.epoch, packet.reliability,
               packet.seq.value(), packet.seq_base, packet.payload);
  }
  // Coalesced riders, in send order. Channel state (epoch, seq_base, the
  // piggyback ack above) is frame-wide; dedup and delivery are per message.
  for (const SubMsg& sub : packet.extra) {
    ProcessSub(packet.src, packet.epoch, sub.reliability, sub.seq.value(),
               packet.seq_base, sub.payload);
  }
}

void Transport::ProcessSub(SiteId src, uint64_t epoch, Reliability reliability,
                           uint64_t seq, uint64_t seq_base,
                           const EnvelopePtr& payload) {
  if (reliability != Reliability::kReliable) {
    if (deliver_fn_) deliver_fn_(src, payload);
    return;
  }

  PeerIn& pi = in_[src];
  if (epoch < pi.epoch) {
    // A packet from the sender's previous life; its numbering is void and
    // anything it carried was re-driven from the sender's log.
    m_stale_epoch_drop_->Inc();
    return;
  }
  if (epoch > pi.epoch) {
    pi = PeerIn{};  // reborn sender: fresh channel
    pi.epoch = epoch;
  }

  if (seq_base > pi.cum + 1) {
    // The sender has completed everything below seq_base (a previous
    // incarnation of us consumed it, or it was cancelled above the
    // transport) and will never retransmit it. Without the fast-forward a
    // reborn receiver's cumulative counter would stall below the gap forever
    // and no later send on this channel could ever be cum-acked.
    pi.cum = seq_base - 1;
    while (!pi.above.empty() && *pi.above.begin() <= pi.cum) {
      pi.above.erase(pi.above.begin());
    }
    while (pi.above.contains(pi.cum + 1)) {
      pi.above.erase(pi.cum + 1);
      ++pi.cum;
    }
    m_cum_fastforward_->Inc();
  }

  if (seq <= pi.cum || pi.above.contains(seq)) {
    ++dup_drops_;
    m_dup_drop_->Inc();
    if (trace_) {
      trace_->Instant(self_, obs::Track::kNet, "net.dedup",
                      payload ? payload->trace_id : 0, "src", src.value(),
                      "seq", seq);
    }
    OweAck(src);  // the sender evidently missed our ack; re-ack
    return;
  }
  if (seq > pi.cum + options_.recv_window) {
    // Beyond the receive window: recording it would unbound the dedup set.
    // Drop without acking; the sender's backoff re-offers it later.
    m_window_drop_->Inc();
    return;
  }

  bool consumed = deliver_fn_ && deliver_fn_(src, payload);
  if (!consumed) return;  // refused (e.g. locked item); retransmission re-offers

  // Note: deliver_fn_ may have re-entered us (the handler sends acks or new
  // transfers), so re-find the channel rather than trusting `pi`.
  PeerIn& pin = in_[src];
  if (epoch != pin.epoch) return;  // channel reset mid-delivery
  pin.above.insert(seq);
  while (pin.above.contains(pin.cum + 1)) {
    pin.above.erase(pin.cum + 1);
    ++pin.cum;
  }
  NoteDedupSize();
  OweAck(src);
}

void Transport::Crash() {
  out_.clear();
  in_.clear();
  token_index_.clear();
  // Staged-but-unflushed messages die with the process, exactly like packets
  // lost on the wire; reliable ones are re-driven from the log on recovery.
  staging_.clear();
  // Invalidate any armed timer: its generation check will fail. The owner
  // assigns a fresh epoch (from the stable incarnation) before reuse.
  ++generation_;
  timer_armed_ = false;
  flush_armed_ = false;
}

SimTime Transport::IntervalFor(const PeerOut& po) const {
  return backoff::Interval(options_.rto_us, options_.rto_max_us,
                           po.backoff_exp);
}

SimTime Transport::JitteredInterval(SiteId peer, const PeerOut& po) const {
  uint64_t salt = (uint64_t{self_.value()} << 40) ^
                  (uint64_t{peer.value()} << 20) ^ po.rounds;
  return backoff::Jittered(IntervalFor(po), options_.rto_max_us, salt);
}

void Transport::ArmTimer() {
  SimTime due = kSimTimeMax;
  for (const auto& [peer, po] : out_) {
    (void)peer;
    if (!po.pending.empty()) due = std::min(due, po.next_due);
  }
  if (due == kSimTimeMax) return;
  if (timer_armed_ && armed_at_ <= due) return;  // an earlier event covers it
  timer_armed_ = true;
  armed_at_ = due;
  uint64_t gen = generation_;
  rt_->ScheduleAt(std::max(due, rt_->Now()),
                      [this, gen, due, alive = alive_]() {
    if (!*alive || gen != generation_) return;
    if (!timer_armed_ || armed_at_ != due) return;  // superseded
    timer_armed_ = false;
    OnTimer();
  });
}

void Transport::OnTimer() {
  // At most this many pending payloads are retransmitted to one peer per
  // backoff round (kills retransmission storms during partitions).
  constexpr uint32_t kRetransmitBurst = 8;
  SimTime now = rt_->Now();
  for (auto& [peer, po] : out_) {
    if (po.pending.empty() || po.next_due > now) continue;
    // Retransmit the oldest unacked burst with their ORIGINAL seqs — the
    // receiver's dedup window and the Vm layer's logged filter both key on
    // them, so a retransmission must be indistinguishable from a link dup.
    uint32_t sent = 0;
    for (auto& [seq, ps] : po.pending) {
      if (sent >= kRetransmitBurst) break;
      SendPacket(peer, seq, ps.payload);
      ++ps.sends;
      ++retransmissions_;
      m_retransmit_->Inc();
      if (trace_) {
        trace_->Instant(self_, obs::Track::kNet, "net.retransmit",
                        ps.payload ? ps.payload->trace_id : 0, "dst",
                        peer.value(), "seq", seq);
      }
      ++sent;
    }
    po.backoff_exp = std::min(po.backoff_exp + 1, uint32_t{30});
    ++po.rounds;
    po.next_due = now + JitteredInterval(peer, po);
  }
  ArmTimer();
}

}  // namespace dvp::net
