#include "runtime/timer_queue.h"

#include <algorithm>
#include <utility>

namespace dvp::runtime {

namespace {

/// Below this many entries a compaction pass costs more than the garbage.
constexpr size_t kCompactionFloor = 64;

/// Heap comparator ("a pops later than b") for std::*_heap's max-heap.
struct Later {
  bool operator()(const TimerQueue::Entry& a,
                  const TimerQueue::Entry& b) const {
    if (a.when != b.when) return a.when > b.when;
    if (a.tie != b.tie) return a.tie > b.tie;
    return a.seq > b.seq;
  }
};

}  // namespace

TimerHandle TimerQueue::Push(SimTime when, std::function<void()> fn,
                             std::optional<uint64_t> tie) {
  uint64_t seq = next_seq_++;
  auto state = std::make_shared<TimerState>();
  state->tally = tombstones_;
  heap_.push_back(Entry{when, tie.value_or(seq), seq, std::move(fn), state});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  MaybeCompact();
  return TimerHandle(std::move(state));
}

TimerQueue::Entry TimerQueue::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  e.state->Retire();
  return e;
}

void TimerQueue::MaybeCompact() {
  int64_t dead = tombstones_->load(std::memory_order_relaxed);
  if (heap_.size() < kCompactionFloor ||
      dead <= static_cast<int64_t>(heap_.size() / 2)) {
    return;
  }
  auto live_end = std::remove_if(heap_.begin(), heap_.end(), [](Entry& e) {
    if (!e.state->cancelled()) return false;
    e.state->Retire();
    return true;
  });
  heap_.erase(live_end, heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

bool TimerQueue::PopDue(SimTime until, Entry* out) {
  if (NextTime() > until || heap_.empty()) return false;
  *out = PopTop();
  return true;
}

SimTime TimerQueue::NextTime() {
  while (!heap_.empty() && heap_.front().state->cancelled()) PopTop();
  return TopTime();
}

}  // namespace dvp::runtime
