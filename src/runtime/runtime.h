// The runtime seam: the clock-and-timer interface every protocol layer
// (site/, txn/, vm/, placement/, net/transport, wal/group_commit) programs
// against, so the identical protocol sources compile against either backend:
// sim::Kernel (sim/kernel.h; virtual time, deterministic, the correctness
// oracle) or runtime::EventLoop (runtime/real.h; one OS thread per site, a
// steady clock). This header owns the contract and the cancellation handle;
// both backends keep their timers in runtime::TimerQueue
// (runtime/timer_queue.h) and add only a clock.
//
// Contract both backends honour (runtime_conformance_test pins it):
//  * Now() is monotone non-decreasing, in microseconds.
//  * ScheduleAt(when, fn) runs fn at the earliest instant the backend's
//    clock reaches `when`; two timers never run concurrently on one runtime
//    (per-site single-threadedness is what keeps protocol state lock-free).
//  * Timers with equal deadlines run in schedule order (only the sim's
//    opt-in perturbation shuffles them).
//  * TimerHandle::Cancel() is idempotent, safe after the timer fired, safe
//    from a timer callback, and safe from any thread — the flag is atomic
//    and the shared state outlives both the runtime and the handle.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "common/types.h"

namespace dvp::runtime {

/// Shared cancellation state of one scheduled timer: one reference in the
/// queue entry, others in handles. `tally` (optional) is the owner's count
/// of cancelled-but-queued entries (tombstones), shared so a handle that
/// outlives its runtime still cancels into live memory. Cancel and Retire
/// (the entry leaving its queue) set bits of one atomic word, so when they
/// race on two threads whichever lands first decides, and the tombstone is
/// counted exactly as often as it is uncounted.
struct TimerState {
  static constexpr uint8_t kCancelled = 1;
  static constexpr uint8_t kRetired = 2;

  std::atomic<uint8_t> flags{0};
  std::shared_ptr<std::atomic<int64_t>> tally;

  bool cancelled() const {
    return flags.load(std::memory_order_acquire) & kCancelled;
  }

  /// Counts a tombstone on the first cancel of a still-queued entry.
  void Cancel() {
    uint8_t old = flags.fetch_or(kCancelled, std::memory_order_acq_rel);
    if (!(old & (kCancelled | kRetired)) && tally) {
      tally->fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Owner-side, as the entry leaves the queue: uncounts its tombstone.
  void Retire() {
    uint8_t old = flags.fetch_or(kRetired, std::memory_order_acq_rel);
    if ((old & kCancelled) && tally) {
      tally->fetch_sub(1, std::memory_order_relaxed);
    }
  }
};

/// Handle to a scheduled timer; allows cancellation (transaction timeout
/// counters disarmed when all replies arrive, pure-ack timers superseded by
/// piggybacks, ...). Copyable; all copies share one cancellation flag.
class TimerHandle {
 public:
  TimerHandle() = default;
  explicit TimerHandle(std::shared_ptr<TimerState> state)
      : state_(std::move(state)) {}

  /// Cancels the timer if it has not fired yet. Idempotent; callable from
  /// any thread and harmless after the timer fired.
  void Cancel() {
    if (state_) state_->Cancel();
  }

  bool valid() const { return state_ != nullptr; }
  bool cancelled() const { return state_ && state_->cancelled(); }

 private:
  std::shared_ptr<TimerState> state_;
};

/// The seam itself: a clock and cancellable timers, and nothing more —
/// transport endpoints live behind net::Conduit, stable storage behind
/// wal::StableStorage.
class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Current time in microseconds: virtual on the sim kernel, monotonic
  /// steady-clock on the real loop.
  virtual SimTime Now() const = 0;

  /// Schedules `fn` to run at absolute time `when` (>= Now()).
  virtual TimerHandle ScheduleAt(SimTime when, std::function<void()> fn) = 0;

  /// Schedules `fn` to run `delay` microseconds from now.
  TimerHandle Schedule(SimTime delay, std::function<void()> fn) {
    return ScheduleAt(Now() + delay, std::move(fn));
  }
};

}  // namespace dvp::runtime
