#include "wal/group_commit.h"

#include <utility>

#include "obs/trace.h"

namespace dvp::wal {

Lsn GroupCommitLog::Append(const LogRecord& record,
                           std::function<void()> on_durable) {
  if (!options_.enabled && on_durable) {
    Lsn lsn = storage_->Append(record);
    if (trace_) {
      trace_->Instant(storage_->site(), obs::Track::kWal, "wal.append", 0,
                      "lsn", lsn.value());
      trace_->Instant(storage_->site(), obs::Track::kWal, "wal.force", 0,
                      "records", storage_->last_group_records());
    }
    on_durable();
    return lsn;
  }
  Lsn lsn = storage_->AppendBuffered(record);
  if (trace_) {
    trace_->Instant(storage_->site(), obs::Track::kWal, "wal.append", 0,
                    "lsn", lsn.value());
  }
  if (!options_.enabled) return lsn;  // no callback: rides the next force
  if (on_durable) callbacks_.push_back(std::move(on_durable));
  if (storage_->unforced_records() >= options_.max_records ||
      storage_->unforced_bytes() >= options_.max_bytes) {
    Flush();
  } else {
    ArmTimer();
  }
  return lsn;
}

void GroupCommitLog::Flush() {
  if (storage_->unforced_records() == 0 && callbacks_.empty()) return;
  uint64_t n = storage_->ForceTail();
  if (n > 0) {
    m_group_forces_->Inc();
    m_group_records_->Inc(n);
    if (trace_) {
      trace_->Instant(storage_->site(), obs::Track::kWal, "wal.force", 0,
                      "records", n);
    }
  }
  // A synchronous StableStorage::Append interleaved with the batch forces
  // the whole tail, so by here every pending callback's record is durable —
  // run them all. Move first: a callback may re-enter Append and start a
  // fresh batch.
  std::vector<std::function<void()>> ready = std::move(callbacks_);
  callbacks_.clear();
  for (auto& cb : ready) cb();
}

void GroupCommitLog::OnNextForce(std::function<void()> fn) {
  if (!options_.enabled || storage_->unforced_records() == 0) {
    fn();
    return;
  }
  callbacks_.push_back(std::move(fn));
  ArmTimer();
}

void GroupCommitLog::ArmTimer() {
  if (timer_armed_) return;
  timer_armed_ = true;
  rt_->Schedule(options_.max_delay_us, [this, alive = alive_] {
    if (!*alive) return;
    timer_armed_ = false;
    if (storage_->unforced_records() > 0 || !callbacks_.empty()) Flush();
  });
}

}  // namespace dvp::wal
