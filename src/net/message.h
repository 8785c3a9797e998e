// Wire-level message representation. The network layer treats payloads as
// opaque Envelope subclasses defined by the layers above (requests, Vm
// transfers, 2PC votes, ...). Packets carry the transport metadata the paper
// assumes from "window protocols" [Tanenbaum 81]: per-channel sequence
// numbers, a sender epoch (advanced on crash recovery), and a piggybacked
// cumulative acknowledgement for the reverse channel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace dvp::net {

/// Price of an envelope with no byte encoding (baseline 2PC and
/// primary-copy messages, test payloads). Proto messages are priced by the
/// packet codec instead (proto::Message in proto/wire.h).
inline constexpr size_t kEnvelopeHeaderBytes = 16;

/// Base class for all application payloads carried by the network.
/// Payloads are immutable once sent (shared between duplicates).
class Envelope {
 public:
  virtual ~Envelope() = default;
  /// Short human-readable tag for tracing (e.g. "VmTransfer", "Request").
  virtual std::string_view Tag() const = 0;

  /// Serialized size of this payload. proto::Message overrides it with the
  /// length of its packet-codec blob; the default is the fixed price of a
  /// payload the codec does not know.
  virtual size_t EncodedSize() const { return kEnvelopeHeaderBytes; }

  /// Encode-once size: computed on first use and cached, the same trick
  /// GroupCommitLog::EncodeRecordTo plays for log records. Every
  /// retransmission, duplicate, and coalesced frame the envelope rides
  /// reuses the cached figure instead of encoding the message again.
  size_t WireSize() const {
    if (wire_size_ == 0) wire_size_ = EncodedSize();
    return wire_size_;
  }

  /// Causal id of the transaction (or standalone Vm) this payload serves;
  /// senders stamp it, replies echo it, and the trace recorder links the
  /// cross-site events it appears in into one chain. 0 = uncorrelated.
  uint64_t trace_id = 0;

 private:
  /// Cached EncodedSize(); safe because payloads are immutable once sent.
  mutable size_t wire_size_ = 0;
};

using EnvelopePtr = std::shared_ptr<const Envelope>;

/// Running tally of the envelope pool's behavior: how many envelopes were
/// pool-allocated versus how many times the pool had to go to the upstream
/// allocator for a fresh block. A high envelopes/upstream ratio is the
/// recycling the pool exists for.
struct EnvelopePoolStats {
  uint64_t envelopes = 0;             ///< MakeEnvelope allocations served
  uint64_t upstream_allocations = 0;  ///< pool refills from the heap
  uint64_t upstream_bytes = 0;        ///< bytes fetched from the heap
};

/// The process-lifetime pool envelopes are carved from. Messages are small,
/// identically-shaped, and churn at per-transaction rate — exactly the
/// profile a pool resource recycles well. Process lifetime (not per-site) so
/// shared_ptrs crossing sites never outlive their arena; unsynchronized is
/// fine because the simulation is single-threaded.
std::pmr::memory_resource* EnvelopePool();
/// Snapshot of the pool counters (by value: on the real runtime the counters
/// are atomics updated from every site's loop thread).
EnvelopePoolStats PoolStats();

namespace internal {
void NoteEnvelopeAllocated();
}  // namespace internal

/// Allocates an envelope (control block included, via allocate_shared) from
/// the pool. Drop-in for std::make_shared at every message construction site.
template <typename T, typename... Args>
std::shared_ptr<T> MakeEnvelope(Args&&... args) {
  internal::NoteEnvelopeAllocated();
  return std::allocate_shared<T>(std::pmr::polymorphic_allocator<T>(
                                     EnvelopePool()),
                                 std::forward<Args>(args)...);
}

/// Transport classes: reliable messages are numbered, retransmitted and
/// delivered in order exactly once per epoch; datagrams are fire-and-forget
/// (the paper notes request messages "need not have unique identifiers as
/// their delivery is not critical", §8).
enum class Reliability : uint8_t { kDatagram = 0, kReliable = 1 };

/// One additional message riding a coalesced frame (Transport::Options::
/// coalesce): the frame's primary fields describe the first message, each
/// rider carries its own transport class and sequence number. Everything else
/// — epoch, seq_base, the piggybacked ack — is channel state shared by the
/// whole frame.
struct SubMsg {
  Reliability reliability = Reliability::kDatagram;
  MsgSeq seq;  // meaningful for reliable riders
  EnvelopePtr payload;
};

/// One piggybacked fragment-placement advertisement: the sender's own view of
/// one item at send time. Rides outgoing packets the same way the cumulative
/// ack does (PlacementOptions::hints_per_frame bounds how many per frame)
/// and is purely advisory — a stale or lost hint costs extra messages, never
/// correctness.
struct PlacementHint {
  ItemId item;
  /// MaxShippable(local fragment) at send time: what the sender could grant a
  /// redistribution request right now.
  int64_t surplus = 0;
  /// The sender's local-shortfall EWMA: how much value per recent history its
  /// own transactions came up short (drives the background rebalancer).
  int64_t demand = 0;
  /// Sender virtual send time; receivers keep only the freshest per
  /// (sender, item) so reordered frames cannot roll the cache backwards.
  uint64_t stamp = 0;

  friend bool operator==(const PlacementHint& a, const PlacementHint& b) {
    return a.item == b.item && a.surplus == b.surplus &&
           a.demand == b.demand && a.stamp == b.stamp;
  }
  friend bool operator!=(const PlacementHint& a, const PlacementHint& b) {
    return !(a == b);
  }
};

/// A packet in flight. The transport builds a fresh one for every send,
/// retransmissions included, so each carries the channel state (seq_base,
/// the piggybacked ack, hints) current at that send; a serializing conduit
/// encodes every packet it is handed.
struct Packet {
  SiteId src;
  SiteId dst;
  Reliability reliability = Reliability::kDatagram;

  /// Sender incarnation; bumped by recovery so the receiver can reset
  /// per-channel sequencing state for a reborn sender.
  uint64_t epoch = 0;
  /// Per (src,dst,epoch) sequence number; meaningful for reliable packets.
  MsgSeq seq;
  /// Lowest seq still unacknowledged at the sender for this channel
  /// (TCP's snd_una). Everything below it was completed — consumed by some
  /// incarnation of the receiver or cancelled above the transport — and will
  /// never be retransmitted, so a receiver that lost its channel state (crash)
  /// fast-forwards its cumulative counter past the gap instead of stalling.
  uint64_t seq_base = 0;

  /// Piggybacked cumulative ack for the reverse channel: "all messages up to
  /// and including ack_cum in ack_epoch have been received and processed
  /// safely" (§4.2).
  uint64_t ack_epoch = 0;
  uint64_t ack_cum = 0;
  bool has_ack = false;

  EnvelopePtr payload;  // null for pure acks

  /// Causal id copied from the primary payload (0 for pure acks), so
  /// frame-level trace events correlate without downcasting the payload.
  uint64_t trace_id = 0;

  /// Coalesced riders in send order; empty unless the sender coalesces.
  std::vector<SubMsg> extra;

  /// Piggybacked placement advertisements (PlacementOptions::
  /// hints_per_frame); advisory channel state like the ack, not payload.
  std::vector<PlacementHint> hints;
};

/// Wire-size constants for the non-payload parts of a packet. These are
/// still modeled: the sim network cannot reach the packet codec, so its
/// header, ack, hint and rider-header bytes differ from a real frame's.
inline constexpr size_t kPacketHeaderBytes = 32;  ///< src,dst,class,epoch,seqs
inline constexpr size_t kAckBytes = 17;           ///< ack_epoch,ack_cum,flag
inline constexpr size_t kHintBytes = 28;          ///< item,surplus,demand,stamp
inline constexpr size_t kSubMsgHeaderBytes = 9;   ///< class,seq

/// Total bytes the sim charges for the packet: the modeled header parts plus
/// the envelopes' cached WireSize(), so a coalesced frame is costed without
/// re-encoding any sub-message and a retransmission reuses every figure from
/// the first send.
inline size_t WireBytes(const Packet& p) {
  size_t bytes = kPacketHeaderBytes;
  if (p.has_ack) bytes += kAckBytes;
  bytes += p.hints.size() * kHintBytes;
  if (p.payload) bytes += p.payload->WireSize();
  for (const SubMsg& sub : p.extra) {
    bytes += kSubMsgHeaderBytes;
    if (sub.payload) bytes += sub.payload->WireSize();
  }
  return bytes;
}

}  // namespace dvp::net
