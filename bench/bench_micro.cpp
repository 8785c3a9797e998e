// Substrate micro-benchmarks (google-benchmark): the costs that set the
// simulator's capacity — event scheduling, the timer queue both backends
// share, the real event loop's cross-thread hand-off, WAL record
// encode/decode+CRC, PRNG draws, Zipf sampling, and lock-table operations.
#include <benchmark/benchmark.h>

#include <vector>

#include "cc/lock_manager.h"
#include "common/rng.h"
#include "runtime/real.h"
#include "runtime/timer_queue.h"
#include "sim/kernel.h"
#include "wal/record.h"

namespace dvp {
namespace {

void BM_KernelScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Kernel kernel;
    uint64_t sum = 0;
    for (int i = 0; i < 1024; ++i) {
      kernel.Schedule(i, [&sum, i]() { sum += uint64_t(i); });
    }
    kernel.Run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_KernelScheduleRun);

// The ack-timer pattern: arm a batch, cancel half before they fire (acks
// that piggybacked), drain the rest. Items are armed timers.
void BM_TimerQueueArmCancel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<runtime::TimerHandle> handles;
  handles.reserve(n);
  for (auto _ : state) {
    runtime::TimerQueue queue;
    uint64_t sum = 0;
    handles.clear();
    for (int i = 0; i < n; ++i) {
      handles.push_back(queue.Push(i, [&sum, i]() { sum += uint64_t(i); }));
    }
    for (int i = 0; i < n; i += 2) handles[i].Cancel();
    runtime::TimerQueue::Entry e;
    while (queue.PopDue(kSimTimeMax, &e)) e.fn();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TimerQueueArmCancel)->Arg(1024);

// One cross-thread hand-off on the real backend: Post onto a site's loop,
// wake it, run an empty function there, and wait for it to finish.
void BM_EventLoopPostRoundTrip(benchmark::State& state) {
  runtime::Real real(1);
  real.Start();
  for (auto _ : state) {
    real.RunOn(SiteId(0), [] {});
  }
  real.Stop();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventLoopPostRoundTrip)->UseRealTime();

void BM_WalEncodeDecodeCommit(benchmark::State& state) {
  wal::TxnCommitRec rec;
  rec.txn = TxnId(123456);
  rec.ts_packed = 987654;
  for (int i = 0; i < 4; ++i) {
    rec.writes.push_back(
        wal::FragmentWrite{ItemId(uint32_t(i)), 1000 + i, -3, 42});
  }
  for (auto _ : state) {
    std::string encoded = wal::EncodeRecord(wal::LogRecord(rec));
    auto decoded = wal::DecodeRecord(encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalEncodeDecodeCommit);

void BM_Crc32c(benchmark::State& state) {
  std::string data(size_t(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal::Crc32c(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096);

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextU64());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNextU64);

void BM_ZipfNext(benchmark::State& state) {
  Rng rng(42);
  ZipfGenerator zipf(1000, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfNext);

void BM_LockTryLockAll(benchmark::State& state) {
  cc::LockManager locks;
  std::vector<ItemId> items;
  for (uint32_t i = 0; i < 8; ++i) items.push_back(ItemId(i));
  uint64_t owner = 1;
  for (auto _ : state) {
    TxnId txn(owner++);
    benchmark::DoNotOptimize(locks.TryLockAll(items, txn));
    locks.ReleaseAll(txn);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_LockTryLockAll);

}  // namespace
}  // namespace dvp

BENCHMARK_MAIN();
