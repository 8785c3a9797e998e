// Typed log records. The paper's protocol forces exactly two kinds of
// compound records — `[database-actions, message-sequence]` at Vm creation
// and `[database-actions]` at Vm acceptance / transaction commit — plus
// bookkeeping records (Vm acks, recovery markers).
//
// Every FragmentWrite carries the *absolute* post-state of the fragment, not
// just the delta, so that redo is idempotent as §7 requires ("the redoing
// actions must be idempotent"). The delta is retained for auditing.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "wal/encoding.h"

namespace dvp::wal {

/// One database action: fragment `item` at this site becomes `post_value`
/// with lock-timestamp `post_ts`; `delta` records the change for audits.
struct FragmentWrite {
  ItemId item;
  int64_t post_value = 0;
  int64_t delta = 0;
  uint64_t post_ts_packed = 0;

  friend bool operator==(const FragmentWrite&, const FragmentWrite&) = default;
};

/// Commit record: the single commit point of a transaction (§5 step 5).
/// Writing this record commits; a crash before it aborts with no effect.
struct TxnCommitRec {
  TxnId txn;
  uint64_t ts_packed = 0;
  std::vector<FragmentWrite> writes;
  /// The writes form one multi-item atomic set whose deltas cancel (a
  /// transfer/order). Auditors check Σ delta == 0 per such record — the
  /// transaction-scoped cross-item conservation invariant. Encoded as an
  /// optional trailing flag only when set, so every pre-existing commit
  /// record keeps its byte-identical encoding.
  bool atomic_set = false;

  friend bool operator==(const TxnCommitRec&, const TxnCommitRec&) = default;
};

/// Vm birth: `[database-actions, message-sequence]` as one record (§4.2).
/// The local fragment is reduced by `amount`, which is now in flight to
/// `dst`. The Vm exists from the instant this record is forced.
struct VmCreateRec {
  VmId vm;
  SiteId dst;
  ItemId item;
  int64_t amount = 0;
  /// The transaction (or request id) on whose behalf the Vm travels; carried
  /// inside the real messages so the recipient can match replies (§5).
  TxnId for_txn;
  FragmentWrite write;

  friend bool operator==(const VmCreateRec&, const VmCreateRec&) = default;
};

/// Vm death at the recipient: `[database-actions]` (§4.2). Forcing this
/// record is the atomic acceptance; the accepted-vm set in this log is the
/// duplicate filter that survives crashes.
struct VmAcceptRec {
  VmId vm;
  SiteId src;
  ItemId item;
  int64_t amount = 0;
  TxnId for_txn;
  FragmentWrite write;

  friend bool operator==(const VmAcceptRec&, const VmAcceptRec&) = default;
};

/// Sender learned that `vm` was accepted: retransmission stops and the Vm
/// leaves the outbox. Not a commit point — it rides the next force, and a
/// crash that loses it only re-sends a transfer the recipient re-acks.
struct VmAckedRec {
  VmId vm;
  friend bool operator==(const VmAckedRec&, const VmAckedRec&) = default;
};

/// Written at the end of each recovery: bumps the site incarnation and
/// restores the Lamport counter watermark.
struct RecoveryRec {
  uint64_t incarnation = 0;
  uint64_t clock_counter = 0;
  friend bool operator==(const RecoveryRec&, const RecoveryRec&) = default;
};

/// Checkpoint marker: the stable database image reflects the log up to and
/// including this record's LSN.
struct CheckpointRec {
  friend bool operator==(const CheckpointRec&, const CheckpointRec&) = default;
};

// ---- Records used only by the traditional (baseline) systems --------------

/// 2PC participant prepare record: the transaction's proposed writes are
/// durable and the participant has entered its uncertainty window. For
/// replicated values, FragmentWrite::post_ts_packed carries the version.
struct PrepareRec {
  TxnId txn;
  SiteId coordinator;
  std::vector<FragmentWrite> writes;
  friend bool operator==(const PrepareRec&, const PrepareRec&) = default;
};

/// 2PC decision record (coordinator commit point, and participant's durable
/// learning of the outcome).
struct DecisionRec {
  TxnId txn;
  bool committed = false;
  friend bool operator==(const DecisionRec&, const DecisionRec&) = default;
};

using LogRecord =
    std::variant<TxnCommitRec, VmCreateRec, VmAcceptRec, VmAckedRec,
                 RecoveryRec, CheckpointRec, PrepareRec, DecisionRec>;

/// Serializes a record (type byte + payload + CRC32C trailer).
std::string EncodeRecord(const LogRecord& record);

/// Appends the serialized record to *out without intermediate copies: the
/// checksum slot is reserved up front, the body is encoded in place, and the
/// CRC is patched afterwards. This is the batch-append encode path — one
/// allocation-amortized write per record instead of encode-into-temporary
/// plus copy.
void EncodeRecordTo(const LogRecord& record, std::string* out);

/// Decodes a record produced by EncodeRecord, verifying the checksum.
StatusOr<LogRecord> DecodeRecord(std::string_view data);

/// Human-readable one-liner for traces and debugging.
std::string RecordToString(const LogRecord& record);

}  // namespace dvp::wal
