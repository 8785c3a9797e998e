// Deterministic discrete-event simulation kernel: the sim backend of the
// runtime seam (runtime/runtime.h). Every component schedules callbacks on
// one virtual clock, and a run is a pure function of its seed and schedule,
// which makes the kernel the correctness oracle: only it replays a run
// bit-for-bit. Timers live in runtime::TimerQueue, the queue the real event
// loop uses too; the kernel owns the virtual clock, the perturbation draws,
// the executed-event count and the post-event hook.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "common/rng.h"
#include "common/types.h"
#include "runtime/runtime.h"
#include "runtime/timer_queue.h"

namespace dvp::sim {

/// Opt-in schedule perturbation: the chaos harness searches interleavings,
/// not just fault timings, by shuffling same-timestamp events and adding
/// bounded random delay to every event. Both draws happen at ScheduleAt from
/// a dedicated seeded stream, so a perturbed run is still a pure function of
/// (seed, schedule). Disabled (the default), ties run FIFO.
struct PerturbOptions {
  uint64_t seed = 0;
  /// Randomise execution order among events with equal timestamps.
  bool shuffle_ties = false;
  /// Uniform extra delay in [0, max_jitter_us] added to every event's time.
  SimTime max_jitter_us = 0;

  bool enabled() const { return shuffle_ties || max_jitter_us > 0; }
};

/// Handle to a scheduled event: the seam's TimerHandle.
using EventHandle = runtime::TimerHandle;

/// The timer queue + virtual clock.
class Kernel final : public runtime::Runtime {
 public:
  Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Current virtual time (microseconds).
  SimTime Now() const override { return now_; }

  /// Schedules `fn` to run at absolute virtual time `when` (>= Now()).
  EventHandle ScheduleAt(SimTime when, std::function<void()> fn) override;

  /// Runs events until the queue drains or virtual time would exceed
  /// `until`. Returns the number of events executed.
  uint64_t Run(SimTime until = kSimTimeMax);

  /// Executes exactly one event if any is pending. Returns false when idle.
  bool Step();

  /// True when no live events remain.
  bool Idle() const { return PendingEvents() == 0; }

  /// Virtual time of the next live event, or kSimTimeMax when drained.
  SimTime NextEventTime() { return queue_.NextTime(); }

  /// Live (not cancelled) pending events, and all queue entries including
  /// cancelled tombstones — see runtime::TimerQueue.
  size_t PendingEvents() const { return queue_.Live(); }
  size_t QueueEntries() const { return queue_.Queued(); }

  /// Total events executed since construction.
  uint64_t events_executed() const { return events_executed_; }

  /// Optional hook invoked after every executed event; used by the
  /// conservation auditor in tests to check invariants at each step.
  void set_post_event_hook(std::function<void()> hook) {
    post_event_hook_ = std::move(hook);
  }

  /// Enables schedule perturbation. Call before any events are scheduled;
  /// affects every subsequent ScheduleAt.
  void EnablePerturbation(const PerturbOptions& opts) {
    perturb_ = opts;
    if (opts.enabled()) perturb_rng_.emplace(opts.seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  }

 private:
  void Execute(runtime::TimerQueue::Entry& ev);

  SimTime now_ = 0;
  uint64_t events_executed_ = 0;
  runtime::TimerQueue queue_;
  std::function<void()> post_event_hook_;
  PerturbOptions perturb_;
  std::optional<Rng> perturb_rng_;
};

}  // namespace dvp::sim
