// The one timer queue behind both runtime backends. sim::Kernel wraps it
// with a virtual clock; runtime::EventLoop wraps it with a mutex, a steady
// clock and a poll() step. The queue owns everything the two have in
// common: the entry, its total order, cancellation tombstones and their
// compaction. It owns no clock and no lock — a caller decides what "due"
// means by the `until` it passes, and serialises its own access.
//
// Order: (when, tie, seq) ascending. `seq` is assigned at Push and unique,
// so the order is total and heap layout never decides which entry pops
// next — compaction may rebuild the heap without moving one event. `tie`
// defaults to `seq` (equal deadlines pop in push order); the sim's
// perturbation passes a random tie instead to shuffle them.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "runtime/runtime.h"

namespace dvp::runtime {

class TimerQueue {
 public:
  struct Entry {
    SimTime when = 0;
    uint64_t tie = 0;  ///< seq, or a caller-chosen key for equal deadlines
    uint64_t seq = 0;  ///< unique; final tie-break keeps the order total
    std::function<void()> fn;
    std::shared_ptr<TimerState> state;
  };

  TimerQueue() : tombstones_(std::make_shared<std::atomic<int64_t>>(0)) {}
  TimerQueue(const TimerQueue&) = delete;
  TimerQueue& operator=(const TimerQueue&) = delete;

  /// Enqueues `fn` at `when`, ordered among equal deadlines by `tie`
  /// (default: push order), then compacts if tombstones outnumber live
  /// entries.
  TimerHandle Push(SimTime when, std::function<void()> fn,
                   std::optional<uint64_t> tie = std::nullopt);

  /// Moves the next live entry into `out` if its deadline is <= `until`,
  /// discarding cancelled entries on the way. Returns false, leaving a live
  /// entry (or nothing) on top, when none is due.
  bool PopDue(SimTime until, Entry* out);

  /// Deadline of the next live entry, or kSimTimeMax when none is queued.
  /// Discards cancelled entries at the top as a side effect.
  SimTime NextTime();

  /// Deadline at the top of the heap, cancelled or not (kSimTimeMax when
  /// empty): a lower bound on NextTime() that leaves the heap untouched.
  SimTime TopTime() const {
    return heap_.empty() ? kSimTimeMax : heap_.front().when;
  }

  /// Entries not cancelled: a rig that arms and cancels many timers sees
  /// its true backlog, not the tombstones awaiting compaction. (A racing
  /// Cancel/Retire pair can dip the tally below 0 for an instant.)
  size_t Live() const {
    int64_t dead = tombstones_->load(std::memory_order_relaxed);
    return heap_.size() - static_cast<size_t>(std::clamp<int64_t>(
                              dead, 0, static_cast<int64_t>(heap_.size())));
  }

  /// Entries including tombstones.
  size_t Queued() const { return heap_.size(); }

 private:
  /// Removes the heap top and retires its cancellation state.
  Entry PopTop();

  /// Rebuilds the heap without its tombstones once they outnumber live
  /// entries, so arm-and-cancel churn cannot grow the queue without bound.
  /// Amortised O(1) per push: each O(n) pass drops at least half.
  void MaybeCompact();

  std::vector<Entry> heap_;  // min-heap under (when, tie, seq)
  uint64_t next_seq_ = 0;
  /// Cancelled-but-queued entries, shared with every TimerState.
  std::shared_ptr<std::atomic<int64_t>> tombstones_;
};

}  // namespace dvp::runtime
