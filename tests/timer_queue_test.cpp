// Unit tests for runtime::TimerQueue, the timer queue under both runtime
// backends: its (when, tie, seq) order, tombstone accounting and
// compaction. The kernel and the event loop add only a clock on top, so
// these rules are tested here once.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "runtime/timer_queue.h"

namespace dvp::runtime {
namespace {

/// Pops every live entry (any deadline), runs it, and returns how many ran.
int Drain(TimerQueue& q) {
  int ran = 0;
  TimerQueue::Entry e;
  while (q.PopDue(kSimTimeMax, &e)) {
    e.fn();
    ++ran;
  }
  return ran;
}

TEST(TimerQueueTest, PopsByDeadlineThenTieThenPushOrder) {
  TimerQueue q;
  std::vector<int> order;
  auto rec = [&order](int i) { return [&order, i] { order.push_back(i); }; };
  q.Push(20, rec(4));
  q.Push(10, rec(2), /*tie=*/7);
  q.Push(10, rec(0));            // tie = seq 2
  q.Push(10, rec(3), /*tie=*/7);  // same tie: push order decides
  q.Push(10, rec(1), /*tie=*/5);
  EXPECT_EQ(Drain(q), 5);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TimerQueueTest, NextTimeSkipsCancelledEntries) {
  TimerQueue q;
  TimerHandle early = q.Push(5, [] { FAIL(); });
  q.Push(10, [] {});
  EXPECT_EQ(q.TopTime(), 5);
  early.Cancel();
  EXPECT_EQ(q.TopTime(), 5);  // still queued: a lower bound only
  EXPECT_EQ(q.NextTime(), 10);
  EXPECT_EQ(q.Queued(), 1u);  // NextTime discarded the tombstone
  EXPECT_EQ(Drain(q), 1);
  EXPECT_EQ(q.NextTime(), kSimTimeMax);
}

// A rig that arms and cancels an ack timer per packet must read its true
// backlog, not the tombstones still queued.
TEST(TimerQueueTest, LiveExcludesCancelledTombstones) {
  TimerQueue q;
  TimerHandle cancelled = q.Push(5, [] { FAIL(); });
  q.Push(10, [] {});
  cancelled.Cancel();
  EXPECT_EQ(q.Live(), 1u);    // live only
  EXPECT_EQ(q.Queued(), 2u);  // tombstone still queued
  EXPECT_EQ(Drain(q), 1);
  EXPECT_EQ(q.Live(), 0u);
  EXPECT_EQ(q.Queued(), 0u);
}

TEST(TimerQueueTest, CompactionDropsTombstonesWithoutReorderingLiveEvents) {
  TimerQueue q;
  std::vector<int> order;
  // Interleave live entries with a large majority of cancelled ones so the
  // tombstone count crosses the half-queue compaction threshold.
  std::vector<TimerHandle> doomed;
  for (int i = 0; i < 64; ++i) {
    q.Push(1000 + i, [&order, i] { order.push_back(i); });
    for (int j = 0; j < 4; ++j) {
      doomed.push_back(q.Push(100 + i, [] { FAIL(); }));
    }
  }
  ASSERT_EQ(q.Queued(), 64u + 256u);
  for (TimerHandle& h : doomed) h.Cancel();
  EXPECT_EQ(q.Live(), 64u);
  // The next push trips compaction: tombstones (256) > queue/2.
  q.Push(2000, [&order] { order.push_back(64); });
  EXPECT_EQ(q.Queued(), 65u);  // garbage gone
  EXPECT_EQ(q.Live(), 65u);
  EXPECT_EQ(Drain(q), 65);
  ASSERT_EQ(order.size(), 65u);
  for (int i = 0; i < 65; ++i) EXPECT_EQ(order[i], i);
}

TEST(TimerQueueTest, CancelAfterCompactionIsHarmless) {
  TimerQueue q;
  std::vector<TimerHandle> doomed;
  for (int i = 0; i < 128; ++i) {
    doomed.push_back(q.Push(i, [] { FAIL(); }));
  }
  for (TimerHandle& h : doomed) h.Cancel();
  q.Push(500, [] {});  // trips compaction, retires tombstones
  EXPECT_EQ(q.Queued(), 1u);
  // Double-cancel and cancel-after-retire must not corrupt the tally.
  for (TimerHandle& h : doomed) h.Cancel();
  EXPECT_EQ(q.Live(), 1u);
  EXPECT_EQ(Drain(q), 1);
  EXPECT_EQ(q.Live(), 0u);
}

// Handles cancelled on one thread while the owner pops (and so retires)
// their entries on another, as on the real loop: whichever transition lands
// first, the tombstone is counted and uncounted the same number of times. A
// drifted tally would show as a wrong live count once only tombstones
// remain.
TEST(TimerQueueTest, CrossThreadCancelsKeepTheTallyBalanced) {
  TimerQueue q;
  for (int round = 0; round < 200; ++round) {
    std::vector<TimerHandle> handles;
    for (int i = 0; i < 32; ++i) handles.push_back(q.Push(i, [] {}));
    std::atomic<bool> started{false};
    std::thread canceller([&] {
      started.store(true, std::memory_order_release);
      for (TimerHandle& h : handles) h.Cancel();
    });
    while (!started.load(std::memory_order_acquire)) {
    }
    TimerQueue::Entry e;
    while (q.PopDue(kSimTimeMax, &e)) {
    }
    canceller.join();
    ASSERT_EQ(q.Queued(), 0u);
  }
  // Only tombstones queued: the live count must read exactly zero.
  std::vector<TimerHandle> doomed;
  for (int i = 0; i < 80; ++i) doomed.push_back(q.Push(i, [] {}));
  for (TimerHandle& h : doomed) h.Cancel();
  EXPECT_EQ(q.Live(), 0u);
  EXPECT_EQ(q.NextTime(), kSimTimeMax);
}

}  // namespace
}  // namespace dvp::runtime
