// The group-commit force scheduler: appends accumulate in the volatile batch
// buffer and one force covers them all — triggered by the record bound, the
// byte bound or the timer, whichever first. Completion callbacks run only
// once their record is durable; a crash drops exactly the unforced suffix.
#include <gtest/gtest.h>

#include "common/histogram.h"
#include "obs/metrics.h"
#include "sim/kernel.h"
#include "wal/group_commit.h"
#include "wal/record.h"
#include "wal/stable_storage.h"

namespace dvp {
namespace {

wal::LogRecord Commit(uint64_t i) {
  wal::TxnCommitRec rec;
  rec.txn = TxnId(i);
  rec.writes = {wal::FragmentWrite{ItemId(0), int64_t(100 + i), 1, 0}};
  return wal::LogRecord(rec);
}

struct GroupCommitTest : ::testing::Test {
  wal::GroupCommitOptions Opts(uint32_t k, SimTime t,
                               uint64_t bytes = 1 << 16) {
    wal::GroupCommitOptions o;
    o.enabled = true;
    o.max_records = k;
    o.max_delay_us = t;
    o.max_bytes = bytes;
    return o;
  }

  sim::Kernel kernel;
  wal::StableStorage storage{SiteId(0)};
  obs::MetricsRegistry counters;
};

TEST_F(GroupCommitTest, DisabledModeIsForcePerAppend) {
  wal::GroupCommitLog log(&kernel, &storage, &counters,
                          wal::GroupCommitOptions{});
  int durable = 0;
  log.Append(Commit(1), [&] { ++durable; });
  log.Append(Commit(2), [&] { ++durable; });
  EXPECT_EQ(durable, 2);  // callbacks ran inline, before Append returned
  EXPECT_EQ(storage.forces(), 2u);
  EXPECT_EQ(storage.durable_size(), 2u);
  EXPECT_EQ(storage.unforced_records(), 0u);
}

// A record appended without a callback is not a commit point: it rides the
// next force even with group commit off, and a crash before that loses it.
TEST_F(GroupCommitTest, DisabledModeLetsUncallbackedRecordsRideTheNextForce) {
  wal::GroupCommitLog log(&kernel, &storage, &counters,
                          wal::GroupCommitOptions{});
  log.Append(wal::LogRecord(wal::VmAckedRec{VmId(1)}));
  EXPECT_EQ(storage.forces(), 0u);
  EXPECT_EQ(storage.unforced_records(), 1u);

  int durable = 0;
  log.Append(Commit(1), [&] { ++durable; });
  EXPECT_EQ(durable, 1);
  EXPECT_EQ(storage.forces(), 1u);  // one force covers both records
  EXPECT_EQ(storage.last_group_records(), 2u);
  EXPECT_EQ(storage.unforced_records(), 0u);

  log.Append(wal::LogRecord(wal::VmAckedRec{VmId(2)}));
  EXPECT_EQ(storage.DropUnforcedTail(), 1u);  // the crash
  EXPECT_EQ(storage.durable_size(), 2u);
}

TEST_F(GroupCommitTest, RecordBoundTriggersTheFlush) {
  wal::GroupCommitLog log(&kernel, &storage, &counters, Opts(4, 10'000));
  int durable = 0;
  for (uint64_t i = 1; i <= 3; ++i) log.Append(Commit(i), [&] { ++durable; });
  EXPECT_EQ(durable, 0);  // batch open: nothing durable, nothing completed
  EXPECT_EQ(storage.durable_size(), 0u);
  EXPECT_EQ(storage.unforced_records(), 3u);
  EXPECT_EQ(log.pending_callbacks(), 3u);

  log.Append(Commit(4), [&] { ++durable; });  // K reached: flush inline
  EXPECT_EQ(durable, 4);
  EXPECT_EQ(storage.forces(), 1u);
  EXPECT_EQ(storage.durable_size(), 4u);
  EXPECT_EQ(storage.last_group_records(), 4u);
  EXPECT_EQ(counters.Get("wal.group_forces"), 1u);
  EXPECT_EQ(counters.Get("wal.group_records"), 4u);
}

TEST_F(GroupCommitTest, TimerCoversAPartialBatch) {
  wal::GroupCommitLog log(&kernel, &storage, &counters, Opts(8, 1'000));
  int durable = 0;
  log.Append(Commit(1), [&] { ++durable; });
  log.Append(Commit(2), [&] { ++durable; });
  kernel.Run(999);
  EXPECT_EQ(durable, 0);
  kernel.Run(1'000);
  EXPECT_EQ(durable, 2);
  EXPECT_EQ(storage.forces(), 1u);
  EXPECT_EQ(storage.last_group_records(), 2u);
}

TEST_F(GroupCommitTest, ByteBoundTriggersTheFlush) {
  // max_bytes = 1: every append overflows the byte budget and forces.
  wal::GroupCommitLog log(&kernel, &storage, &counters,
                          Opts(1'000, 1'000'000, /*bytes=*/1));
  int durable = 0;
  log.Append(Commit(1), [&] { ++durable; });
  log.Append(Commit(2), [&] { ++durable; });
  EXPECT_EQ(durable, 2);
  EXPECT_EQ(storage.forces(), 2u);
}

TEST_F(GroupCommitTest, ExplicitFlushIsIdempotent) {
  wal::GroupCommitLog log(&kernel, &storage, &counters, Opts(8, 10'000));
  int durable = 0;
  log.Append(Commit(1), [&] { ++durable; });
  log.Flush();
  EXPECT_EQ(durable, 1);
  EXPECT_EQ(storage.forces(), 1u);
  log.Flush();  // nothing pending: no force, no callback re-run
  EXPECT_EQ(durable, 1);
  EXPECT_EQ(storage.forces(), 1u);
}

// The Flush durability invariant: a sync Append interleaved with an open
// batch forces the WHOLE tail (the durable log stays a prefix of append
// order), so at flush time every pending callback's record is durable.
TEST_F(GroupCommitTest, InterleavedSyncAppendForcesTheWholeTail) {
  wal::GroupCommitLog log(&kernel, &storage, &counters, Opts(8, 10'000));
  int durable = 0;
  log.Append(Commit(1), [&] { ++durable; });
  log.Append(Commit(2), [&] { ++durable; });
  storage.Append(Commit(3));  // sync append (e.g. a recovery record)
  EXPECT_EQ(storage.durable_size(), 3u);  // buffered records rode the force
  EXPECT_EQ(storage.last_group_records(), 3u);
  EXPECT_EQ(durable, 0);  // completions still wait for the scheduler
  kernel.Run(10'000);
  EXPECT_EQ(durable, 2);
  EXPECT_EQ(storage.forces(), 1u);  // the flush found nothing left to force
}

TEST_F(GroupCommitTest, CrashDropsExactlyTheUnforcedSuffix) {
  wal::GroupCommitLog log(&kernel, &storage, &counters, Opts(8, 10'000));
  log.Append(Commit(1), nullptr);
  log.Append(Commit(2), nullptr);
  log.Flush();
  log.Append(Commit(3), nullptr);
  log.Append(Commit(4), nullptr);
  EXPECT_EQ(storage.log_size(), 4u);
  EXPECT_EQ(storage.durable_size(), 2u);
  EXPECT_EQ(storage.DropUnforcedTail(), 2u);
  EXPECT_EQ(storage.log_size(), 2u);
  EXPECT_EQ(storage.durable_size(), 2u);
  EXPECT_EQ(storage.unforced_records(), 0u);
}

TEST_F(GroupCommitTest, TimerIsHarmlessAfterTheLogDies) {
  auto log = std::make_unique<wal::GroupCommitLog>(&kernel, &storage,
                                                   &counters, Opts(8, 1'000));
  log->Append(Commit(1), nullptr);
  log.reset();  // armed timer outlives the scheduler object
  kernel.Run(10'000);  // must not touch freed memory (ASan run proves it)
  EXPECT_EQ(storage.unforced_records(), 1u);  // nobody flushed it
}

}  // namespace
}  // namespace dvp
