// Wire protocol of the DvP system: the message kinds the paper's protocol
// exchanges between sites.
//
//  * RequestMsg    — "send me (part of) your d_j" for one or more items
//                    (§5 step 2). All of one transaction's requests travel
//                    in a single message so Conc2 can broadcast them together
//                    atomically (§6.2). Datagram: delivery is not critical
//                    (§8); a lost request at worst costs a timeout abort.
//  * VmTransferMsg — the real message carrying a Vm's value. Reliable:
//                    retransmitted until the recipient's acceptance ack is
//                    durably processed, so the Vm is never lost (§4.2).
//  * VmAckMsg      — recipient → sender after the acceptance record is
//                    forced: the sender stops retransmitting and logs the
//                    Vm's death. Datagram; duplicates of the transfer are
//                    re-acked, so a lost ack only delays cleanup.
//
// The rest are courtesy datagrams (the closure watermark and the gather
// NACK) and the snapshot-read pair. Every kind here has exactly one byte
// encoding, the packet codec's (packet_codec.h), and that encoding is also
// its price.
#pragma once

#include <vector>

#include "common/types.h"
#include "dvpcore/domain.h"
#include "net/message.h"

namespace dvp::proto {

/// Base of every message kind the packet codec knows. Its WireSize() is the
/// length of its EncodeEnvelopeTo blob, so the simulator charges exactly the
/// envelope bytes the UDP runtime sends. Defined in packet_codec.cc.
struct Message : public net::Envelope {
  size_t EncodedSize() const override;
};

/// One item's worth of a request. `read_all` marks a traditional full read:
/// the remote must ship its *entire* fragment and may only do so when it has
/// no outstanding Vm for the item (§5); otherwise `amount` is the shortfall
/// the origin needs.
struct RequestPart {
  ItemId item;
  core::Value amount = 0;
  bool read_all = false;
};

/// Request for data values (§5 step 2).
struct RequestMsg final : public Message {
  TxnId txn;               ///< requesting transaction
  uint64_t ts_packed = 0;  ///< TS(t), gating the grant under Conc1
  SiteId origin;           ///< site executing the transaction
  /// Full-read round number; reads iterate gather rounds until the system
  /// quiesces on the item (N_M = 0 in the paper's notation, §3).
  uint32_t round = 1;
  std::vector<RequestPart> parts;
  /// Set by surplus-directed origins: a recipient that cannot ship anything
  /// answers with a kEmpty GatherNackMsg so the origin's hint cache
  /// self-corrects.
  bool want_surplus_nack = false;
  /// The requesting transaction is a multi-item atomic set: its parts gather
  /// several items under one timestamp. Advisory today (recipients count it
  /// for observability); carried on the wire so recipients could prioritise
  /// or co-grant. Encoded as a bit of the same flags byte as
  /// want_surplus_nack, so it never changes the frame's size.
  bool atomic_set = false;

  std::string_view Tag() const override { return "Request"; }
};

/// A real message belonging to a Vm.
struct VmTransferMsg final : public Message {
  VmId vm;
  SiteId src;
  ItemId item;
  core::Value amount = 0;
  /// Transaction the value was requested for; lets the origin match replies
  /// to the waiting transaction. Invalid for spontaneous redistribution.
  TxnId for_txn;
  /// Lamport timestamp at creation; bumps the recipient's clock (§7).
  uint64_t ts_packed = 0;
  /// Sender's closed watermark for this destination: every Vm counter below
  /// this that the sender ever addressed to the recipient has been acked, and
  /// an ack proves the recipient's acceptance was forced. The recipient
  /// prunes its accepted-set below it — the piggybacked cumulative ack of
  /// §4.2 turned around to bound the *receiver's* dedup state. A transfer
  /// re-sent after a sender crash lost its unforced VmAckedRec lands below
  /// the watermark and is re-acked as a duplicate.
  uint64_t closed_below = 0;

  // ---- Full-read reply metadata (meaningful when is_read_reply) ----------
  bool is_read_reply = false;
  /// Which gather round this reply answers.
  uint32_t round = 0;
  /// The sender's lifetime count of accepted Vm at reply time. The reader
  /// terminates only after two consecutive all-zero rounds with unchanged
  /// counters — evidence that no value moved anywhere in between (the
  /// N_M = 0 condition of §3 turned into a termination-detection rule).
  uint64_t accept_count = 0;
  /// Lifetime count of Vm *created* at the source site, snapshotted with
  /// accept_count. The read-termination rule compares both: an acceptance can
  /// land after the acceptor's reply for a round, but the matching creation
  /// always precedes the creator's own next reply (the Vm must be acked
  /// before the creator's outbox clears), so the pair is race-free where the
  /// accept count alone is not.
  uint64_t create_count = 0;

  std::string_view Tag() const override { return "VmTransfer"; }
};

/// Acknowledgement that `vm` was durably accepted.
struct VmAckMsg final : public Message {
  VmId vm;
  SiteId from;
  uint64_t ts_packed = 0;

  std::string_view Tag() const override { return "VmAck"; }
};

/// Courtesy notification that the sender's channel to the recipient drained:
/// every Vm counter below `closed_below` that the sender ever addressed to
/// the recipient has been acked, so its acceptance is durable (see
/// VmTransferMsg::closed_below). Transfers piggyback the same watermark, but
/// once the last outstanding Vm is acked there is no further transfer to
/// carry it — without this datagram the recipient's dedup entries for the
/// final burst would linger until the channel's next use. Best-effort: if
/// lost, the next transfer prunes instead; the entries are volatile either
/// way.
struct VmClosureMsg final : public Message {
  SiteId src;
  uint64_t closed_below = 0;

  std::string_view Tag() const override { return "VmClosure"; }
};

/// Courtesy refusal of one part of a gather request: it tells the origin why
/// the part was not honoured. One NACK per refused part; a datagram, purely
/// advisory — losing one costs nothing the origin's retry timer does not
/// already cover. Every NACK carries a clock the origin observes.
///  * kCc    — the Conc1 timestamp rule refused the part. `ts_packed` is the
///             larger of the refuser's clock and the stamp that beat the
///             request, so the origin's Lamport counter catches up (§7's
///             "bump-up") and its re-ask carries a competitive timestamp.
///  * kEmpty — a surplus-directed part found nothing to ship (sent only when
///             RequestMsg::want_surplus_nack is set): the origin zeroes its
///             cached surplus for (from, item) instead of waiting for the
///             hint to age out.
/// A part refused because its fragment is locked gets no NACK (§5).
struct GatherNackMsg final : public Message {
  enum class Reason : uint8_t { kCc = 0, kEmpty = 1 };

  SiteId from;
  Reason reason = Reason::kCc;
  ItemId item;  ///< the refused part's item
  uint64_t ts_packed = 0;

  std::string_view Tag() const override { return "GatherNack"; }
};

/// One item's stamped entry in a snapshot reply: the replying site's resident
/// fragment plus its per-item Vm ledger at the capture instant. The four
/// counters are lifetime totals of Vm this site created / accepted for the
/// item (read-reply Vm included — they carry real value); together with the
/// fragment they satisfy, at every instant,
///   fragment == initial + accepted_value − created_value + Σ committed deltas
/// which is what lets the reader assemble an exact consistent cut from one
/// entry per site without moving any value (see DESIGN §4, snapshot reads).
struct SnapshotEntry {
  ItemId item;
  core::Value fragment = 0;     ///< resident fragment value at capture
  uint64_t frag_ts_packed = 0;  ///< fragment's Lamport stamp at capture
  uint64_t created_count = 0;   ///< Vm this site created for the item
  int64_t created_value = 0;    ///< value those Vm carried away
  uint64_t accepted_count = 0;  ///< Vm this site accepted for the item
  int64_t accepted_value = 0;   ///< value those Vm brought in
  /// Sender's per-item closed watermark: every Vm counter below this that it
  /// ever created for the item is durably dead. Staleness observability.
  uint64_t closed_below = 0;

  friend bool operator==(const SnapshotEntry&, const SnapshotEntry&) = default;
};

/// Stamped snapshot-read request (ReadMode::kSnapshot): "answer with your
/// resident fragments and per-item Vm ledgers for these items". Unlike a
/// full-read RequestMsg it moves no value, takes no remote lock, and the
/// remote's concurrent writes proceed untouched. Datagram: a lost request is
/// re-sent by the reader's bounded-backoff retry rounds.
struct SnapshotReqMsg final : public Message {
  TxnId txn;               ///< reading transaction (reply routing key)
  uint64_t ts_packed = 0;  ///< TS(t); bumps the remote clock
  SiteId origin;           ///< site executing the read
  uint32_t round = 1;      ///< snapshot round this request opens
  std::vector<ItemId> items;

  std::string_view Tag() const override { return "SnapshotReq"; }

  friend bool operator==(const SnapshotReqMsg& a, const SnapshotReqMsg& b) {
    return a.txn == b.txn && a.ts_packed == b.ts_packed &&
           a.origin == b.origin && a.round == b.round && a.items == b.items;
  }
};

/// Reply to a SnapshotReqMsg: one stamped entry per requested item, captured
/// atomically at the instant the request was handled. The reply is sent only
/// after the capturing site's next log force (Site's snapshot handler gates
/// it through GroupCommitLog::OnNextForce), so every commit the captured
/// fragments reflect is durable — a crash before the force silently drops
/// the reply instead of leaking a cut containing rolled-back commits.
struct SnapshotReplyMsg final : public Message {
  TxnId txn;                ///< echoes the request
  SiteId from;              ///< replying site
  uint32_t round = 0;       ///< round the capture answers
  uint64_t ts_packed = 0;   ///< replier's clock at capture
  std::vector<SnapshotEntry> entries;

  std::string_view Tag() const override { return "SnapshotReply"; }

  friend bool operator==(const SnapshotReplyMsg& a, const SnapshotReplyMsg& b) {
    return a.txn == b.txn && a.from == b.from && a.round == b.round &&
           a.ts_packed == b.ts_packed && a.entries == b.entries;
  }
};

}  // namespace dvp::proto
