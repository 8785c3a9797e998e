#include "recovery/recovery.h"

#include <algorithm>

namespace dvp::recovery {

namespace {

// Applies one FragmentWrite to the store; absolute post-values make this
// idempotent under arbitrary replay positions.
void Redo(const wal::FragmentWrite& w, core::ValueStore* store,
          RecoveryReport* report) {
  store->Install(w.item, w.post_value, Timestamp::FromPacked(w.post_ts_packed));
  ++report->redo_writes;
}

}  // namespace

void LoadImage(const wal::StableStorage& storage, core::ValueStore* store) {
  store->set_boot_rule(storage.boot_rule());
  for (const auto& [item, entry] : storage.image()) {
    store->Install(item, entry.value, Timestamp::FromPacked(entry.ts_packed));
  }
}

Status RebuildStore(const wal::StableStorage& storage,
                    core::ValueStore* store, RecoveryReport* report) {
  // Recovery sees the forced prefix only: records in the unforced group-
  // commit batch buffer are volatile by construction and a crash drops them.
  return RebuildStorePrefix(storage, storage.durable_size(), store, report);
}

Status RebuildStorePrefix(const wal::StableStorage& storage, uint64_t upto,
                          core::ValueStore* store, RecoveryReport* report) {
  LoadImage(storage, store);
  return ReplaySuffix(storage, upto, store, report);
}

Status ReplaySuffix(const wal::StableStorage& storage, uint64_t upto,
                    core::ValueStore* store, RecoveryReport* report) {
  uint64_t max_counter = 0;
  auto observe = [&max_counter](uint64_t ts_packed) {
    max_counter =
        std::max(max_counter, Timestamp::FromPacked(ts_packed).counter());
  };

  Status scan = storage.ScanPrefix(
      storage.checkpoint_upto(), upto,
      [&](Lsn, const wal::LogRecord& rec) {
        ++report->records_replayed;
        if (const auto* commit = std::get_if<wal::TxnCommitRec>(&rec)) {
          ++report->committed_txns;
          observe(commit->ts_packed);
          for (const auto& w : commit->writes) Redo(w, store, report);
        } else if (const auto* create = std::get_if<wal::VmCreateRec>(&rec)) {
          ++report->vm_creates;
          observe(create->write.post_ts_packed);
          Redo(create->write, store, report);
        } else if (const auto* accept = std::get_if<wal::VmAcceptRec>(&rec)) {
          ++report->vm_accepts;
          observe(accept->write.post_ts_packed);
          Redo(accept->write, store, report);
        } else if (const auto* recov = std::get_if<wal::RecoveryRec>(&rec)) {
          max_counter = std::max(max_counter, recov->clock_counter);
        }
      },
      &report->valid_prefix);
  if (!scan.ok()) return scan;
  report->torn_tail = report->valid_prefix < std::min(upto, storage.log_size());

  // The image's timestamps also bound the clock (commits before the
  // checkpoint are only in the image).
  for (const auto& [item, entry] : storage.image()) {
    (void)item;
    observe(entry.ts_packed);
  }

  report->clock_counter = max_counter;
  report->remote_messages_needed = 0;  // by construction
  return Status::OK();
}

SimTime RecoveryDuration(const wal::StableStorage& storage,
                         SimTime us_per_record) {
  uint64_t suffix = storage.durable_size() - storage.checkpoint_upto();
  return static_cast<SimTime>(suffix) * us_per_record;
}

}  // namespace dvp::recovery
