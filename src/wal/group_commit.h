// Group-commit force scheduler: appends from concurrent transactions at a
// site accumulate in StableStorage's volatile batch buffer and are forced as
// ONE multi-record group. The policy is the classic one (Gray & Lamport's
// log-force batching): force when the batch reaches K records or B bytes, or
// when a T-µs sim-time timer expires — whichever comes first.
//
// Append is the one durability rule. A record appended with an on_durable
// callback is forced before the callback runs: at once when group commit is
// disabled (the default; the callback runs inline), at the K/B/T force when
// it is enabled. This is how the TxnManager defers commit completion and the
// VmManager defers transfer sends and acceptance acks to the force that
// makes them real. A record appended without a callback is not a commit
// point and rides the next force in both modes.
//
// Lifetime: the scheduler is part of the site's VOLATILE state (it dies with
// a crash, its pending callbacks with it); the StableStorage it wraps is the
// disk and survives. The crash path (Site::Crash) drops the unforced tail,
// so a crash mid-batch loses exactly the records whose callbacks never ran.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "wal/stable_storage.h"

namespace dvp::obs {
class TraceRecorder;
}

namespace dvp::wal {

struct GroupCommitOptions {
  /// Off by default: every Append with a callback forces synchronously and
  /// runs the callback inline.
  bool enabled = false;
  /// Force when the batch holds this many records (K).
  uint32_t max_records = 8;
  /// ... or this many encoded bytes (B).
  uint64_t max_bytes = 1 << 16;
  /// ... or this much sim-time after the batch's oldest append (T).
  SimTime max_delay_us = 1000;
};

class GroupCommitLog {
 public:
  GroupCommitLog(runtime::Runtime* rt, StableStorage* storage,
                 obs::MetricsRegistry* metrics, GroupCommitOptions options,
                 obs::TraceRecorder* trace = nullptr)
      : rt_(rt),
        storage_(storage),
        trace_(trace),
        options_(options),
        m_group_forces_(obs::CounterIn(metrics, "wal.group_forces")),
        m_group_records_(obs::CounterIn(metrics, "wal.group_records")),
        alive_(std::make_shared<bool>(true)) {}
  ~GroupCommitLog() { *alive_ = false; }
  GroupCommitLog(const GroupCommitLog&) = delete;
  GroupCommitLog& operator=(const GroupCommitLog&) = delete;

  /// Appends `record`; `on_durable` (optional) runs once the record is
  /// covered by a force. Disabled: a record with a callback is forced at
  /// once and the callback runs inline. Enabled: buffered append; the
  /// callback runs at the K/B/T-policy force. Without a callback the record
  /// is buffered in both modes and rides the next force.
  Lsn Append(const LogRecord& record,
             std::function<void()> on_durable = nullptr);

  /// Forces the batch now and runs every pending callback whose record the
  /// force covered. Also runs callbacks that an interleaved synchronous
  /// StableStorage::Append already made durable. No-op when nothing pends.
  void Flush();

  /// Runs `fn` once the log's current unforced tail is durable — immediately
  /// when nothing pends, otherwise at the next covering force. Disabled, it
  /// also runs immediately: every commit point is already forced, and the
  /// only unforced records are Vm ack markers, which no captured fragment or
  /// ledger depends on. Unlike Append's on_durable this writes no record: it
  /// is for actions that must not outrun durability of state they *observed*
  /// (the snapshot reply gate — a captured cut may reflect buffered commits,
  /// so the reply waits for the force that makes them real; a crash before
  /// it drops the callback with the rest of the volatile scheduler).
  void OnNextForce(std::function<void()> fn);

  bool enabled() const { return options_.enabled; }
  const GroupCommitOptions& options() const { return options_; }
  StableStorage* storage() const { return storage_; }

  /// Callbacks waiting for a covering force (test/debug visibility).
  size_t pending_callbacks() const { return callbacks_.size(); }

 private:
  void ArmTimer();

  runtime::Runtime* rt_;
  StableStorage* storage_;
  obs::TraceRecorder* trace_;
  GroupCommitOptions options_;
  obs::Counter* m_group_forces_;
  obs::Counter* m_group_records_;
  std::vector<std::function<void()>> callbacks_;
  bool timer_armed_ = false;
  std::shared_ptr<bool> alive_;
};

}  // namespace dvp::wal
