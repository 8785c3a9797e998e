// Per-site transport: the window protocol the paper defers to [Tanenbaum 81]
// for Vm delivery (§4.2), in crash-aware form.
//
//  * Per-peer sequence numbers. Each (sender, receiver) channel numbers its
//    reliable packets independently; retransmissions reuse the original
//    number, so every duplicate is recognisable downstream. Only the number
//    and payload are reused: a retransmission is a new packet, stamped like
//    any other send with the current seq_base, piggybacked ack and hints.
//  * Cumulative piggybacked acks. Every outgoing packet to a peer carries
//    "all reliable seqs <= ack_cum were received and processed safely"; a
//    delayed pure ack (empty packet) covers quiet reverse channels. When the
//    sender sees the ack it stops retransmitting and notifies the layer
//    above (set_ack_fn), which is how the Vm layer learns of acceptance even
//    when the explicit VmAckMsg datagram is lost.
//  * Bounded dedup window. The receiver drops reliable packets whose seq is
//    covered by the cumulative watermark or recorded in the (bounded)
//    out-of-order set, so the layer above sees each consumed payload once
//    per sender incarnation. Exactly-once across crashes still lives in the
//    Vm layer's *logged* duplicate filter — volatile windows cannot survive
//    a crash, logged Vm identifiers can.
//  * Epochs. Packets carry the sender's stable-storage incarnation; a reborn
//    sender starts a fresh channel and stale packets from its previous life
//    are dropped.
//  * Per-peer exponential backoff with deterministic jitter and a burst cap
//    per round, so an unreachable peer costs O(log time) packets instead of
//    the fixed-RTO retransmission storm.
//  * Optional frame coalescing. With Options::coalesce on, every message
//    staged within one event tick to the same peer rides a single frame
//    (primary + Packet::extra) under one piggybacked ack — the paper's
//    observation that a real message may carry many virtual messages (§4.2)
//    applied to the transport: a group-commit force that releases a burst of
//    Vm transfers and acceptance acks costs one packet per peer, not one per
//    message.
//
// Delivery is consume-aware: the upper layer returns false to refuse a
// payload (e.g. a Vm transfer deferred because the item is locked, §5); a
// refused packet is neither acked nor recorded, so retransmission re-offers
// it until it is consumed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "common/histogram.h"
#include "common/types.h"
#include "net/conduit.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"

namespace dvp::obs {
class TraceRecorder;
}

namespace dvp::net {

class Transport {
 public:
  struct Options {
    /// Base retransmission interval for unacked reliable payloads.
    SimTime rto_us = 50'000;
    /// Backoff cap: per-peer retransmission interval never exceeds this.
    SimTime rto_max_us = 1'600'000;
    /// Delayed pure-ack fallback: how long the receiver waits for reverse
    /// traffic to piggyback on before sending an empty ack packet.
    SimTime ack_delay_us = 10'000;
    /// Receive-window width: reliable seqs further than this beyond the
    /// cumulative watermark are dropped (the sender retries later), which
    /// bounds the out-of-order dedup set per peer.
    uint64_t recv_window = 1024;
    /// Coalescing: outgoing messages stage per destination for one zero-delay
    /// event tick and ride a single frame (primary + Packet::extra), sharing
    /// one piggybacked cumulative ack. Amortises real messages when a burst
    /// targets the same peer — e.g. the Vm transfers and acceptance acks a
    /// group-commit force releases together. Off: one message per packet,
    /// byte-identical to the pre-coalescing transport.
    bool coalesce = false;
    /// Upper bound on messages per coalesced frame (primary + riders).
    uint32_t max_frame_msgs = 8;
    /// Placement-hint piggyback: up to this many per-item surplus/demand
    /// advertisements (PlacementHint) ride every outgoing packet — the same
    /// free-rider trick as the cumulative ack. 0 disables the channel. The
    /// hints themselves come from set_hint_fn (the placement layer); the
    /// transport only bounds and carries them.
    uint32_t max_frame_hints = 0;
  };

  Transport(runtime::Runtime* rt, Conduit* conduit, SiteId self,
            obs::MetricsRegistry* metrics, Options options,
            obs::TraceRecorder* trace = nullptr);
  ~Transport();

  /// Fire-and-forget send (carries a piggybacked ack when one is owed).
  void SendDatagram(SiteId dst, EnvelopePtr payload);

  /// Sends `payload` now and keeps retransmitting (same seq, exponential
  /// per-peer backoff) until the peer's cumulative ack covers it or
  /// CancelReliable(token) is called. `token` is chosen by the caller (the
  /// Vm layer passes the VmId) and MUST be unique among live reliable sends;
  /// a collision is a caller bug and aborts loudly.
  void SendReliable(SiteId dst, uint64_t token, EnvelopePtr payload);

  /// Stops retransmitting `token`. Idempotent; unknown tokens are ignored
  /// (an ack that already completed the send is the normal case).
  void CancelReliable(uint64_t token);

  /// Ordered-broadcast datagram to all other sites (Conc2's environment
  /// primitive; meaningful under synchronous link params).
  void Broadcast(EnvelopePtr payload);

  /// Wire entry: the Site routes incoming packets here. Processes piggyback
  /// acks, dedups reliable packets, and hands fresh payloads up.
  void OnPacket(const Packet& packet);

  /// Upper-layer delivery hook. Returns true when the payload was consumed
  /// (safe to ack and dedup), false to refuse it (it will be re-offered on
  /// retransmission).
  void set_deliver_fn(std::function<bool(SiteId from, EnvelopePtr)> fn) {
    deliver_fn_ = std::move(fn);
  }

  /// Invoked with the caller's token when the peer's cumulative ack covers a
  /// reliable send — the transport-level "received and processed safely"
  /// signal (the Vm layer logs the Vm's death on it).
  void set_ack_fn(std::function<void(uint64_t token)> fn) {
    ack_fn_ = std::move(fn);
  }

  /// Placement-hint source: called once per outgoing packet with the
  /// destination, returns the advertisements to piggyback (already bounded by
  /// the provider; the transport additionally truncates to max_frame_hints).
  /// Hints are gathered at send time, so even a retransmission carries the
  /// sender's freshest view.
  void set_hint_fn(std::function<std::vector<PlacementHint>(SiteId dst)> fn) {
    hint_fn_ = std::move(fn);
  }

  /// Placement-hint sink: invoked with (sender, hints) before the packet's
  /// payload is delivered, so a request arriving on the same frame already
  /// sees the refreshed surplus cache.
  void set_hint_sink(
      std::function<void(SiteId src, const std::vector<PlacementHint>&)> fn) {
    hint_sink_ = std::move(fn);
  }

  /// Sender incarnation stamped on outgoing packets; the Site sets it from
  /// the stable storage incarnation after each recovery.
  void set_epoch(uint64_t epoch) { epoch_ = epoch; }
  uint64_t epoch() const { return epoch_; }

  /// Crash: all volatile channel state evaporates. The Vm layer re-registers
  /// outstanding sends from its log during recovery (under a new epoch).
  void Crash();

  /// Number of payloads currently being retransmitted.
  size_t outstanding() const { return token_index_.size(); }

  uint64_t retransmissions() const { return retransmissions_; }
  uint64_t dup_drops() const { return dup_drops_; }
  uint64_t pure_acks() const { return pure_acks_; }
  uint64_t piggyback_acks() const { return piggyback_acks_; }
  /// Frames that actually carried more than one message, and the total
  /// rider count across them (messages saved vs one-per-packet sending).
  uint64_t coalesced_frames() const { return coalesced_frames_; }
  uint64_t coalesced_riders() const { return coalesced_riders_; }
  /// Current total out-of-order dedup entries across peers (the cumulative
  /// watermarks compress everything below them to one integer per peer).
  size_t dedup_entries() const;
  /// High-water mark of dedup_entries() over the transport's lifetime.
  size_t dedup_peak() const { return dedup_peak_; }
  SiteId self() const { return self_; }

 private:
  /// Sender half of one channel.
  struct PendingSend {
    uint64_t token = 0;
    EnvelopePtr payload;
    uint64_t sends = 1;  // original + retransmissions
  };
  struct PeerOut {
    uint64_t next_seq = 1;
    std::map<uint64_t, PendingSend> pending;  // seq -> send, oldest first
    uint32_t backoff_exp = 0;
    SimTime next_due = 0;  // earliest time the next retransmit round may fire
    uint64_t rounds = 0;   // jitter salt
  };

  /// Receiver half of one channel (per sender incarnation).
  struct PeerIn {
    uint64_t epoch = 0;
    uint64_t cum = 0;          // all reliable seqs <= cum were consumed
    std::set<uint64_t> above;  // consumed out-of-order seqs > cum
    bool ack_owed = false;     // delayed pure ack armed
    /// The armed pure-ack event; cancelled outright when the ack piggybacks
    /// on an outgoing frame first, so the kernel queue is not left churning
    /// through tombstone wakeups on busy channels.
    runtime::TimerHandle ack_timer;
  };

  /// One staged message awaiting the coalescing flush.
  struct StagedMsg {
    Reliability reliability = Reliability::kDatagram;
    uint64_t seq = 0;
    EnvelopePtr payload;
  };

  void ArmTimer();
  void OnTimer();
  /// Stamps the frame's trace_id from its primary payload, records the
  /// net.send trace event, and hands the packet to the network.
  void SendOnWire(Packet&& p);
  void SendPacket(SiteId dst, uint64_t seq, const EnvelopePtr& payload);
  void AttachAck(Packet* p);
  /// Queues one message for `dst` and arms the zero-delay flush event.
  void Stage(SiteId dst, Reliability reliability, uint64_t seq,
             EnvelopePtr payload);
  /// Drains the staging buffers into coalesced frames (one per destination
  /// per max_frame_msgs chunk), each carrying the freshest piggyback ack.
  void FlushStaging();
  /// Receiver side of one message (the frame's primary or a rider): epoch
  /// and window checks, dedup, delivery, ack scheduling.
  void ProcessSub(SiteId src, uint64_t epoch, Reliability reliability,
                  uint64_t seq, uint64_t seq_base, const EnvelopePtr& payload);
  void ProcessAck(SiteId from, uint64_t ack_epoch, uint64_t ack_cum);
  void OweAck(SiteId src);
  SimTime IntervalFor(const PeerOut& po) const;
  SimTime JitteredInterval(SiteId peer, const PeerOut& po) const;
  void NoteDedupSize();

  runtime::Runtime* rt_;
  Conduit* conduit_;
  SiteId self_;
  obs::TraceRecorder* trace_;
  Options options_;

  // Typed metric handles, resolved once at construction (obs::MetricsRegistry
  // map nodes are stable); the hot path is a pointer increment.
  obs::Counter* m_ack_piggyback_;
  obs::Counter* m_ack_pure_;
  obs::Counter* m_stale_epoch_drop_;
  obs::Counter* m_cum_fastforward_;
  obs::Counter* m_dup_drop_;
  obs::Counter* m_window_drop_;
  obs::Counter* m_retransmit_;
  obs::Counter* m_coalesced_frames_;
  obs::Counter* m_coalesced_riders_;
  std::function<bool(SiteId, EnvelopePtr)> deliver_fn_;
  std::function<void(uint64_t)> ack_fn_;
  std::function<std::vector<PlacementHint>(SiteId)> hint_fn_;
  std::function<void(SiteId, const std::vector<PlacementHint>&)> hint_sink_;

  uint64_t epoch_ = 0;
  std::map<SiteId, PeerOut> out_;
  std::map<SiteId, PeerIn> in_;
  /// token -> (dst, seq); also the collision detector.
  std::map<uint64_t, std::pair<SiteId, uint64_t>> token_index_;

  /// Per-destination messages awaiting the coalescing flush (empty when
  /// coalescing is off). Volatile: a crash drops staged messages exactly like
  /// packets lost on the wire — reliable ones are re-driven from the log.
  std::map<SiteId, std::vector<StagedMsg>> staging_;
  bool flush_armed_ = false;

  bool timer_armed_ = false;
  SimTime armed_at_ = 0;
  uint64_t generation_ = 0;  // invalidates timers across crashes
  /// Scheduled lambdas capture this flag instead of trusting `this` to
  /// outlive them: the Site destroys its Transport on crash while the
  /// kernel's queue may still hold our timer events.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  uint64_t retransmissions_ = 0;
  uint64_t dup_drops_ = 0;
  uint64_t pure_acks_ = 0;
  uint64_t piggyback_acks_ = 0;
  uint64_t coalesced_frames_ = 0;
  uint64_t coalesced_riders_ = 0;
  size_t dedup_peak_ = 0;
};

}  // namespace dvp::net
