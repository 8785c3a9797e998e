// Torn/corrupted log tails (§7's stable-storage assumption, relaxed): a
// crash can leave the final record partially written, and disks can rot a
// byte anywhere. Recovery must stop at the last valid prefix — losing only
// the unforced suffix, never the site — and truncate the damage so the log
// stays append-clean. Exercised at EVERY record boundary, byte offset and
// bit position of a representative log, then end-to-end through a Site.
#include <gtest/gtest.h>

#include "chaos/harness.h"
#include "dvpcore/catalog.h"
#include "dvpcore/domain.h"
#include "dvpcore/value_store.h"
#include "recovery/recovery.h"
#include "system/cluster.h"
#include "wal/record.h"
#include "wal/stable_storage.h"

namespace dvp {
namespace {

using core::CountDomain;

/// A log of `n` commit records: value goes 100, 101, ..., 100+n-1.
wal::StableStorage MakeLog(ItemId item, uint64_t n) {
  wal::StableStorage storage{SiteId(0)};
  storage.WriteImage(item, 100, 0);
  for (uint64_t i = 0; i < n; ++i) {
    wal::TxnCommitRec commit;
    commit.txn = TxnId(i + 1);
    commit.writes = {
        wal::FragmentWrite{item, static_cast<int64_t>(101 + i), 1, 0}};
    storage.Append(wal::LogRecord(commit));
  }
  return storage;
}

/// The value the prefix [0, upto) must rebuild to.
int64_t ExpectedValue(uint64_t upto) { return 100 + static_cast<int64_t>(upto); }

TEST(WalTornTail, TruncationAtEveryRecordBoundary) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("d", CountDomain::Instance(), 100);
  const uint64_t kRecords = 8;
  for (uint64_t keep = 0; keep <= kRecords; ++keep) {
    wal::StableStorage storage = MakeLog(item, kRecords);
    storage.Truncate(keep);
    ASSERT_EQ(storage.log_size(), keep);

    core::ValueStore store(&catalog);
    recovery::RecoveryReport report;
    ASSERT_TRUE(recovery::RebuildStore(storage, &store, &report).ok());
    EXPECT_FALSE(report.torn_tail) << "a clean truncation is not a tear";
    EXPECT_EQ(report.valid_prefix, keep);
    EXPECT_EQ(store.value(item), ExpectedValue(keep));
  }
}

TEST(WalTornTail, TornFinalRecordAtEveryByteCount) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("d", CountDomain::Instance(), 100);
  const uint64_t kRecords = 4;
  wal::StableStorage pristine = MakeLog(item, kRecords);
  size_t last_size = pristine.RecordSizeForTest(Lsn(kRecords - 1)).value();

  for (size_t keep_bytes = 0; keep_bytes < last_size; ++keep_bytes) {
    wal::StableStorage storage = pristine;
    ASSERT_TRUE(storage.TearTailForTest(keep_bytes).ok());

    core::ValueStore store(&catalog);
    recovery::RecoveryReport report;
    ASSERT_TRUE(recovery::RebuildStore(storage, &store, &report).ok())
        << "a torn tail must not fail recovery (keep=" << keep_bytes << ")";
    EXPECT_TRUE(report.torn_tail);
    EXPECT_EQ(report.valid_prefix, kRecords - 1);
    EXPECT_EQ(store.value(item), ExpectedValue(kRecords - 1))
        << "the torn record must contribute nothing";

    // The recovery protocol truncates before appending; the log is then
    // clean and appendable.
    storage.Truncate(report.valid_prefix);
    wal::TxnCommitRec next;
    next.txn = TxnId(99);
    next.writes = {wal::FragmentWrite{item, 7, 0, 0}};
    storage.Append(wal::LogRecord(next));
    core::ValueStore store2(&catalog);
    recovery::RecoveryReport report2;
    ASSERT_TRUE(recovery::RebuildStore(storage, &store2, &report2).ok());
    EXPECT_FALSE(report2.torn_tail);
    EXPECT_EQ(store2.value(item), 7);
  }
}

TEST(WalTornTail, BitFlipAtEveryRecordStopsThePrefixThere) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("d", CountDomain::Instance(), 100);
  const uint64_t kRecords = 6;
  wal::StableStorage pristine = MakeLog(item, kRecords);

  for (uint64_t lsn = 0; lsn < kRecords; ++lsn) {
    size_t size = pristine.RecordSizeForTest(Lsn(lsn)).value();
    // Every byte would be slow x records; probe first, middle, last —
    // covering the type byte, the payload and the CRC trailer.
    for (size_t off : {size_t{0}, size / 2, size - 1}) {
      wal::StableStorage storage = pristine;
      ASSERT_TRUE(storage.CorruptRecordForTest(Lsn(lsn), off).ok());

      core::ValueStore store(&catalog);
      recovery::RecoveryReport report;
      ASSERT_TRUE(recovery::RebuildStore(storage, &store, &report).ok());
      EXPECT_TRUE(report.torn_tail) << "lsn " << lsn << " off " << off;
      EXPECT_EQ(report.valid_prefix, lsn)
          << "replay must stop AT the damaged record, lsn " << lsn;
      EXPECT_EQ(store.value(item), ExpectedValue(lsn));
    }
  }
}

// End to end: a site whose log tail is torn while it is down recovers to the
// valid prefix, truncates the damage (counted), and rejoins; system-wide
// conservation holds because the lost commit record takes its fragment
// write and its committed delta away together.
TEST(WalTornTail, SiteRecoversThroughTornTail) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("d", CountDomain::Instance(), 120);
  system::ClusterOptions opts;
  opts.num_sites = 3;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();

  // Local-only commits at site 2, so its log tail is a commit record.
  for (int i = 0; i < 5; ++i) {
    txn::TxnSpec spec;
    spec.ops = {txn::TxnOp::Increment(item, 1)};
    ASSERT_TRUE(cluster.Submit(SiteId(2), spec, nullptr).ok());
    cluster.RunFor(50'000);
  }
  cluster.RunFor(500'000);
  ASSERT_TRUE(cluster.AuditAll().ok());

  cluster.CrashSite(SiteId(2));
  uint64_t before = cluster.storage(SiteId(2)).log_size();
  ASSERT_TRUE(cluster.storage(SiteId(2)).TearTailForTest(3).ok());

  recovery::RecoveryReport report;
  cluster.site(SiteId(2)).Recover(
      [&](const recovery::RecoveryReport& r) { report = r; });
  cluster.RunFor(1'000'000);

  ASSERT_TRUE(cluster.site(SiteId(2)).IsUp());
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.valid_prefix, before - 1);
  // Recover() truncated the tear away; the RecoveryRec then went on top.
  EXPECT_GE(cluster.storage(SiteId(2)).log_size(), before - 1);
  EXPECT_EQ(cluster.site(SiteId(2)).counters().Get("recovery.torn_tail"), 1u);
  EXPECT_TRUE(cluster.AuditAll().ok());
  EXPECT_TRUE(cluster.AuditAllVolatile().ok());

  // The reborn site keeps working.
  txn::TxnSpec spec;
  spec.ops = {txn::TxnOp::Increment(item, 2)};
  ASSERT_TRUE(cluster.Submit(SiteId(2), spec, nullptr).ok());
  cluster.RunFor(500'000);
  EXPECT_TRUE(cluster.AuditAll().ok());
}

// Group commit widens the gap between log_size and durable_size: a crash
// mid-group must drop the WHOLE unforced suffix, and recovery must replay
// exactly the forced prefix — never a partially-applied group.
TEST(WalTornTail, CrashMidGroupDropsTheWholeUnforcedSuffix) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("d", CountDomain::Instance(), 100);
  const uint64_t kForced = 3, kBuffered = 4;
  wal::StableStorage storage = MakeLog(item, kForced);
  for (uint64_t i = 0; i < kBuffered; ++i) {
    wal::TxnCommitRec commit;
    commit.txn = TxnId(kForced + i + 1);
    commit.writes = {wal::FragmentWrite{
        item, static_cast<int64_t>(101 + kForced + i), 1, 0}};
    storage.AppendBuffered(wal::LogRecord(commit));
  }
  ASSERT_EQ(storage.log_size(), kForced + kBuffered);
  ASSERT_EQ(storage.durable_size(), kForced);

  // Recovery reads the durable prefix — the buffered tail contributes
  // nothing even before the crash discards it.
  core::ValueStore store(&catalog);
  recovery::RecoveryReport report;
  ASSERT_TRUE(recovery::RebuildStore(storage, &store, &report).ok());
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(report.valid_prefix, kForced);
  EXPECT_EQ(store.value(item), ExpectedValue(kForced));

  // The crash path: the whole unforced suffix vanishes at once.
  EXPECT_EQ(storage.DropUnforcedTail(), kBuffered);
  EXPECT_EQ(storage.log_size(), kForced);
  EXPECT_EQ(storage.unforced_records(), 0u);
  core::ValueStore store2(&catalog);
  recovery::RecoveryReport report2;
  ASSERT_TRUE(recovery::RebuildStore(storage, &store2, &report2).ok());
  EXPECT_EQ(store2.value(item), ExpectedValue(kForced));
}

// End to end with the site running under group commit: transactions whose
// commit record is still in the batch buffer when the site crashes must be
// reported as site-failure aborts and leave no trace in the recovered
// store, while transactions whose covering force completed stay committed.
TEST(WalTornTail, SiteCrashMidBatchAbortsOnlyTheUnforcedGroup) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("d", CountDomain::Instance(), 120);
  system::ClusterOptions opts;
  opts.num_sites = 3;
  opts.site.group_commit.enabled = true;
  opts.site.group_commit.max_records = 64;       // only the timer can force
  opts.site.group_commit.max_delay_us = 100'000;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();  // 40 units at each site

  // Phase 1: commits whose timer fires. They must survive the later crash.
  std::vector<txn::TxnResult> phase1;
  for (int i = 0; i < 2; ++i) {
    txn::TxnSpec spec;
    spec.ops = {txn::TxnOp::Increment(item, 1)};
    ASSERT_TRUE(cluster
                    .Submit(SiteId(2), spec,
                            [&](const txn::TxnResult& r) {
                              phase1.push_back(r);
                            })
                    .ok());
  }
  cluster.RunFor(300'000);  // past the 100ms force timer
  ASSERT_EQ(phase1.size(), 2u);
  EXPECT_EQ(phase1[0].outcome, txn::TxnOutcome::kCommitted);
  EXPECT_EQ(phase1[1].outcome, txn::TxnOutcome::kCommitted);
  ASSERT_EQ(cluster.storage(SiteId(2)).unforced_records(), 0u);
  uint64_t durable_before = cluster.storage(SiteId(2)).durable_size();

  // Phase 2: commits that reach the batch buffer but not their force.
  std::vector<txn::TxnResult> phase2;
  for (int i = 0; i < 3; ++i) {
    txn::TxnSpec spec;
    spec.ops = {txn::TxnOp::Increment(item, 5)};
    ASSERT_TRUE(cluster
                    .Submit(SiteId(2), spec,
                            [&](const txn::TxnResult& r) {
                              phase2.push_back(r);
                            })
                    .ok());
  }
  cluster.RunFor(10'000);  // records appended; timer (100ms) has not fired
  // One record per commit (its TxnCommitRec), all buffered.
  ASSERT_EQ(cluster.storage(SiteId(2)).unforced_records(), 3u);
  EXPECT_TRUE(phase2.empty()) << "completion must wait for the force";

  cluster.CrashSite(SiteId(2));
  ASSERT_EQ(phase2.size(), 3u);
  for (const txn::TxnResult& r : phase2) {
    EXPECT_EQ(r.outcome, txn::TxnOutcome::kAbortSiteFailure);
  }
  EXPECT_EQ(cluster.site(SiteId(2)).counters().Get("wal.dropped_unforced"),
            3u);
  EXPECT_EQ(cluster.storage(SiteId(2)).log_size(), durable_before);

  cluster.RecoverSite(SiteId(2));
  cluster.RunFor(1'000'000);
  ASSERT_TRUE(cluster.site(SiteId(2)).IsUp());
  // 40 bootstrap + 2 phase-1 increments; the three unforced +5s never were.
  EXPECT_EQ(cluster.site(SiteId(2)).LocalValue(item), 42);
  EXPECT_TRUE(cluster.AuditAll().ok());
  EXPECT_TRUE(cluster.AuditAllVolatile().ok());
}

/// Two sites with 40 units each; site 0 decrements 50, so it must gather
/// the 10-unit shortfall from site 1 (the donor). Returns the outcome.
txn::TxnResult GatherFromDonor(system::Cluster& cluster, ItemId item) {
  txn::TxnResult out;
  txn::TxnSpec spec;
  spec.ops = {txn::TxnOp::Decrement(item, 50)};
  EXPECT_TRUE(cluster
                  .Submit(SiteId(0), spec,
                          [&out](const txn::TxnResult& r) { out = r; })
                  .ok());
  cluster.RunFor(500'000);
  return out;
}

// With group commit off, each commit point costs exactly one force: a local
// commit appends and forces its TxnCommitRec and nothing else. The donor's
// VmAckedRec is not a commit point; it waits, unforced, for the next force.
TEST(WalTornTail, LocalCommitForcesOnceAndTheAckMarkerRidesTheNextForce) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("d", CountDomain::Instance(), 80);
  system::ClusterOptions opts;
  opts.num_sites = 2;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();

  const wal::StableStorage& local = cluster.storage(SiteId(0));
  uint64_t forces = local.forces(), size = local.log_size();
  txn::TxnSpec inc;
  inc.ops = {txn::TxnOp::Increment(item, 1)};
  ASSERT_TRUE(cluster.Submit(SiteId(0), inc, nullptr).ok());
  cluster.RunFor(100'000);
  EXPECT_EQ(local.forces(), forces + 1);
  EXPECT_EQ(local.log_size(), size + 1);
  EXPECT_EQ(local.unforced_records(), 0u);

  ASSERT_EQ(GatherFromDonor(cluster, item).outcome,
            txn::TxnOutcome::kCommitted);
  const wal::StableStorage& donor = cluster.storage(SiteId(1));
  ASSERT_EQ(cluster.site(SiteId(1)).counters().Get("vm.acked"), 1u);
  ASSERT_EQ(donor.unforced_records(), 1u);
  auto last = donor.Read(Lsn(donor.log_size() - 1));
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(std::holds_alternative<wal::VmAckedRec>(last.value()));
  EXPECT_TRUE(cluster.AuditAll().ok());
}

// The one crash window an unforced VmAckedRec opens: the donor crashes after
// the ack arrived but before its next force. Recovery finds the Vm still in
// the outbox and re-sends it; the receiver already accepted it durably, so it
// re-acks the transfer as a duplicate and the value lands exactly once.
TEST(WalTornTail, DonorCrashBeforeAckMarkerForceReAcksTheTransfer) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("d", CountDomain::Instance(), 80);
  system::ClusterOptions opts;
  opts.num_sites = 2;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();

  ASSERT_EQ(GatherFromDonor(cluster, item).outcome,
            txn::TxnOutcome::kCommitted);
  ASSERT_EQ(cluster.storage(SiteId(1)).unforced_records(), 1u);
  const CounterSet before = cluster.site(SiteId(0)).counters();
  const uint64_t accepted = before.Get("vm.accepted");
  const uint64_t duplicates = before.Get("vm.duplicate");
  ASSERT_EQ(accepted, 1u);

  cluster.CrashSite(SiteId(1));
  EXPECT_EQ(cluster.site(SiteId(1)).counters().Get("wal.dropped_unforced"),
            1u);
  cluster.RecoverSite(SiteId(1));
  cluster.RunFor(1'000'000);
  ASSERT_TRUE(cluster.site(SiteId(1)).IsUp());

  const CounterSet receiver = cluster.site(SiteId(0)).counters();
  EXPECT_EQ(receiver.Get("vm.duplicate"), duplicates + 1);
  EXPECT_EQ(receiver.Get("vm.accepted"), accepted);
  uint64_t accept_records = 0;
  ASSERT_TRUE(cluster.storage(SiteId(0))
                  .Scan(0,
                        [&](Lsn, const wal::LogRecord& rec) {
                          accept_records +=
                              std::holds_alternative<wal::VmAcceptRec>(rec);
                        })
                  .ok());
  EXPECT_EQ(accept_records, 1u);
  // 80 - 50: the 10 gathered units count once, at site 0.
  EXPECT_EQ(cluster.site(SiteId(0)).LocalValue(item) +
                cluster.site(SiteId(1)).LocalValue(item),
            30);
  EXPECT_EQ(cluster.site(SiteId(1)).counters().Get("vm.acked"), 2u);
  EXPECT_EQ(cluster.storage(SiteId(1)).unforced_records(), 1u);
  EXPECT_TRUE(cluster.AuditAll().ok());
  EXPECT_TRUE(cluster.AuditAllVolatile().ok());
}

// Pinned chaos reproducer: crash/recover cycles timed to land inside open
// group-commit batches (records bound high, timer 2ms, crashes at odd
// offsets) with frame coalescing on. Guards the whole deferral chain —
// unforced commit records must abort as site failures, unforced Vm accepts
// must not ack, and conservation must hold through every rebirth.
TEST(WalTornTail, ChaosCrashMidBatchWithCoalescing) {
  chaos::ChaosCase c;
  c.seed = 404;
  c.perturb_seed = 4041;
  c.max_jitter_us = 150;
  c.workload.sites = 4;
  c.workload.items = 2;
  c.workload.total = 200;
  c.workload.txns = 60;
  c.workload.gap_us = 15'000;
  c.workload.redist_permille = 350;
  c.workload.max_amount = 15;
  c.workload.timeout_us = 150'000;
  c.workload.loss_permille = 200;
  c.workload.dup_permille = 100;
  c.workload.group_commit_records = 32;  // the 2ms timer does the forcing
  c.workload.group_commit_delay_us = 2'000;
  c.workload.coalesce = 1;
  c.plan.events = {{101'000, chaos::FaultKind::kCrash, 1, 0},
                   {400'000, chaos::FaultKind::kRecover, 1, 0},
                   {501'500, chaos::FaultKind::kCrash, 2, 0},
                   {503'000, chaos::FaultKind::kCrash, 3, 0},
                   {900'000, chaos::FaultKind::kRecover, 2, 0},
                   {950'000, chaos::FaultKind::kRecover, 3, 0},
                   {1'201'000, chaos::FaultKind::kCrash, 1, 0},
                   {1'500'000, chaos::FaultKind::kRecover, 1, 0}};

  chaos::RunResult r = chaos::RunCase(c);
  EXPECT_TRUE(r.ok) << r.violation << "\n" << c.ToLiteral();
  EXPECT_EQ(r.decided, r.submitted);
}

}  // namespace
}  // namespace dvp
