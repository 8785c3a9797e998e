// Independent recovery (§7). A recovering site:
//   1. assumes no locks are held (the lock table is volatile by design);
//   2. rebuilds its fragments from the stable boot rule and database image
//      plus an idempotent redo of the log suffix (absolute post-values, log
//      order); a fragment neither holds reads as its boot share;
//   3. restores its Lamport counter from the log watermark — a stale counter
//      is only a temporary problem, repaired by Observe on the first
//      incoming message;
//   4. lets the ordinary Vm machinery re-drive outstanding Vm.
// No other site is consulted at any step: recovery is purely local.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "common/types.h"
#include "dvpcore/value_store.h"
#include "wal/stable_storage.h"

namespace dvp::recovery {

/// What a recovery pass did; feeds the E6 experiment and the crash tests.
struct RecoveryReport {
  uint64_t records_replayed = 0;  ///< log suffix length beyond the checkpoint
  uint64_t redo_writes = 0;       ///< fragment writes re-applied
  uint64_t committed_txns = 0;    ///< commit records seen in the suffix
  uint64_t vm_creates = 0;        ///< Vm births seen in the suffix
  uint64_t vm_accepts = 0;        ///< Vm deaths seen in the suffix
  uint64_t clock_counter = 0;     ///< restored Lamport watermark
  uint64_t remote_messages_needed = 0;  ///< always 0 — the headline claim
  /// Records [checkpoint, valid_prefix) decoded cleanly; valid_prefix ==
  /// log_size when the log is intact. Replay never reads past the first
  /// damaged record — a torn or corrupted tail costs the unforced suffix,
  /// never the site.
  uint64_t valid_prefix = 0;
  /// True when the log ended in an undecodable record (torn write / bit
  /// rot). The caller should Truncate() the log to valid_prefix before
  /// appending anything new.
  bool torn_tail = false;
};

/// Loads `storage`'s durable base into `store` (which must be freshly
/// constructed): the boot rule, then the checkpointed image. The store then
/// holds the state as of checkpoint_upto(), with nothing resident but the
/// image — a site booted by rule and never checkpointed loads nothing.
void LoadImage(const wal::StableStorage& storage, core::ValueStore* store);

/// Redoes the log records with LSN in [checkpoint_upto(), upto) onto a store
/// LoadImage filled, and computes the Lamport watermark. Stops at the first
/// damaged record, reported via valid_prefix / torn_tail.
Status ReplaySuffix(const wal::StableStorage& storage, uint64_t upto,
                    core::ValueStore* store, RecoveryReport* report);

/// Rebuilds `store` (which must be freshly constructed) from `storage`'s
/// boot rule, image and log suffix (LoadImage, then ReplaySuffix over the
/// forced prefix), and computes the Lamport watermark. Does not touch
/// the network. Replay stops at the last valid log prefix: a damaged record
/// ends the redo there (reported via valid_prefix / torn_tail) rather than
/// failing recovery — the records beyond it were never safely forced.
Status RebuildStore(const wal::StableStorage& storage, core::ValueStore* store,
                    RecoveryReport* report);

/// Like RebuildStore but replays only log records with LSN < `upto` — the
/// state a crash immediately after record `upto - 1` would recover to. The
/// chaos harness checks every such prefix is a sane state (the WAL-prefix
/// recoverability oracle).
Status RebuildStorePrefix(const wal::StableStorage& storage, uint64_t upto,
                          core::ValueStore* store, RecoveryReport* report);

/// Simulated duration of the redo pass: `us_per_record` per suffix record.
SimTime RecoveryDuration(const wal::StableStorage& storage,
                         SimTime us_per_record);

}  // namespace dvp::recovery
