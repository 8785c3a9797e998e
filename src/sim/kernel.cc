#include "sim/kernel.h"

#include <cassert>
#include <utility>

namespace dvp::sim {

EventHandle Kernel::ScheduleAt(SimTime when, std::function<void()> fn) {
  assert(when >= now_ && "cannot schedule in the past");
  std::optional<uint64_t> tie;
  if (perturb_rng_) {
    if (perturb_.max_jitter_us > 0) {
      when += static_cast<SimTime>(perturb_rng_->NextBounded(
          static_cast<uint64_t>(perturb_.max_jitter_us) + 1));
    }
    if (perturb_.shuffle_ties) tie = perturb_rng_->NextU64();
  }
  return queue_.Push(when, std::move(fn), tie);
}

void Kernel::Execute(runtime::TimerQueue::Entry& ev) {
  now_ = ev.when;
  ev.fn();
  ++events_executed_;
  if (post_event_hook_) post_event_hook_();
}

bool Kernel::Step() {
  runtime::TimerQueue::Entry ev;
  if (!queue_.PopDue(kSimTimeMax, &ev)) return false;
  Execute(ev);
  return true;
}

uint64_t Kernel::Run(SimTime until) {
  uint64_t executed = 0;
  runtime::TimerQueue::Entry ev;
  while (queue_.PopDue(until, &ev)) {
    Execute(ev);
    ++executed;
  }
  if (now_ < until && until != kSimTimeMax) now_ = until;
  return executed;
}

}  // namespace dvp::sim
