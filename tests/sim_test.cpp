// Unit tests for the discrete-event kernel: virtual time, ordering through
// the seam, cancellation, hooks, perturbation.
#include <gtest/gtest.h>

#include <vector>

#include "sim/kernel.h"

namespace dvp::sim {
namespace {

TEST(KernelTest, StartsAtTimeZeroIdle) {
  Kernel kernel;
  EXPECT_EQ(kernel.Now(), 0);
  EXPECT_TRUE(kernel.Idle());
  EXPECT_FALSE(kernel.Step());
}

TEST(KernelTest, RunsEventsInTimeOrder) {
  Kernel kernel;
  std::vector<int> order;
  kernel.Schedule(30, [&]() { order.push_back(3); });
  kernel.Schedule(10, [&]() { order.push_back(1); });
  kernel.Schedule(20, [&]() { order.push_back(2); });
  kernel.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(kernel.Now(), 30);
}

TEST(KernelTest, EqualTimesRunFifo) {
  Kernel kernel;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    kernel.Schedule(5, [&order, i]() { order.push_back(i); });
  }
  kernel.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(KernelTest, EventsMayScheduleMoreEvents) {
  Kernel kernel;
  int fired = 0;
  std::function<void()> chain = [&]() {
    ++fired;
    if (fired < 5) kernel.Schedule(10, chain);
  };
  kernel.Schedule(10, chain);
  kernel.Run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(kernel.Now(), 50);
}

TEST(KernelTest, RunUntilStopsAtHorizon) {
  Kernel kernel;
  int fired = 0;
  kernel.Schedule(10, [&]() { ++fired; });
  kernel.Schedule(100, [&]() { ++fired; });
  uint64_t executed = kernel.Run(50);
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(kernel.Now(), 50);  // clock advances to the horizon
  kernel.Run(200);
  EXPECT_EQ(fired, 2);
}

TEST(KernelTest, CancelPreventsExecution) {
  Kernel kernel;
  bool fired = false;
  EventHandle handle = kernel.Schedule(10, [&]() { fired = true; });
  EXPECT_TRUE(handle.valid());
  handle.Cancel();
  EXPECT_TRUE(handle.cancelled());
  kernel.Run();
  EXPECT_FALSE(fired);
}

TEST(KernelTest, CancelAfterFireIsHarmless) {
  Kernel kernel;
  bool fired = false;
  EventHandle handle = kernel.Schedule(10, [&]() { fired = true; });
  kernel.Run();
  EXPECT_TRUE(fired);
  handle.Cancel();  // no crash, no effect
}

TEST(KernelTest, CancelledEventsDoNotAdvanceClockOnRun) {
  Kernel kernel;
  EventHandle h = kernel.Schedule(100, []() {});
  bool fired = false;
  kernel.Schedule(10, [&]() { fired = true; });
  h.Cancel();
  kernel.Run(kSimTimeMax);
  EXPECT_TRUE(fired);
  EXPECT_EQ(kernel.Now(), 10);
}

TEST(KernelTest, StepExecutesExactlyOne) {
  Kernel kernel;
  int fired = 0;
  kernel.Schedule(1, [&]() { ++fired; });
  kernel.Schedule(2, [&]() { ++fired; });
  EXPECT_TRUE(kernel.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(kernel.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(kernel.Step());
}

TEST(KernelTest, PostEventHookRunsAfterEachEvent) {
  Kernel kernel;
  int hooks = 0;
  kernel.set_post_event_hook([&]() { ++hooks; });
  kernel.Schedule(1, []() {});
  kernel.Schedule(2, []() {});
  kernel.Run();
  EXPECT_EQ(hooks, 2);
}

TEST(KernelTest, EventsExecutedCounts) {
  Kernel kernel;
  for (int i = 0; i < 7; ++i) kernel.Schedule(i, []() {});
  kernel.Run();
  EXPECT_EQ(kernel.events_executed(), 7u);
}

TEST(KernelTest, PendingEventsReflectsQueue) {
  Kernel kernel;
  kernel.Schedule(1, []() {});
  kernel.Schedule(2, []() {});
  EXPECT_EQ(kernel.PendingEvents(), 2u);
  kernel.Run();
  EXPECT_EQ(kernel.PendingEvents(), 0u);
}

TEST(KernelTest, ScheduleAtAbsoluteTime) {
  Kernel kernel;
  SimTime seen = -1;
  kernel.ScheduleAt(123, [&]() { seen = kernel.Now(); });
  kernel.Run();
  EXPECT_EQ(seen, 123);
}

// What the kernel adds on top of the shared queue (whose tombstone and
// compaction rules runtime/timer_queue_test pins): the perturbation draws.
TEST(KernelTest, ShuffledTiesKeepDeadlineOrderAndReplayPerSeed) {
  auto run = [](uint64_t seed) {
    Kernel kernel;
    PerturbOptions p;
    p.seed = seed;
    p.shuffle_ties = true;
    kernel.EnablePerturbation(p);
    std::vector<int> order;
    for (int i = 0; i < 32; ++i) {
      kernel.ScheduleAt(10 + (i / 8) * 10,
                        [&order, i]() { order.push_back(i); });
    }
    kernel.Run();
    return order;
  };
  std::vector<int> order = run(1);
  ASSERT_EQ(order.size(), 32u);
  EXPECT_EQ(order, run(1));  // a pure function of the seed
  std::vector<int> fifo(32);
  for (int i = 0; i < 32; ++i) fifo[i] = i;
  EXPECT_NE(order, fifo);  // ties were shuffled...
  for (size_t j = 1; j < order.size(); ++j) {
    EXPECT_LE(order[j - 1] / 8, order[j] / 8);  // ...deadlines never cross
  }
}

TEST(KernelTest, JitterDelaysEachEventWithinItsBound) {
  Kernel kernel;
  PerturbOptions p;
  p.seed = 7;
  p.max_jitter_us = 5;
  kernel.EnablePerturbation(p);
  std::vector<SimTime> fired_at;
  for (int i = 0; i < 50; ++i) {
    kernel.ScheduleAt(100, [&]() { fired_at.push_back(kernel.Now()); });
  }
  kernel.Run();
  ASSERT_EQ(fired_at.size(), 50u);
  for (SimTime t : fired_at) {
    EXPECT_GE(t, 100);
    EXPECT_LE(t, 105);
  }
  for (size_t j = 1; j < fired_at.size(); ++j) {
    EXPECT_LE(fired_at[j - 1], fired_at[j]);  // virtual time never runs back
  }
  EXPECT_LT(fired_at.front(), fired_at.back());  // the draws spread them
}

}  // namespace
}  // namespace dvp::sim
