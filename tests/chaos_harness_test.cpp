// The chaos harness's own contract: a run is a pure function of its
// ChaosCase (determinism), the mid-flight oracles actually catch invariant
// violations (proved with a planted one), and the shrinker reduces a failing
// case to a minimal paste-able reproducer.
#include <gtest/gtest.h>

#include "chaos/fault_plan.h"
#include "chaos/harness.h"
#include "chaos/oracles.h"
#include "chaos/shrink.h"
#include "vm/vm_manager.h"
#include "wal/stable_storage.h"

namespace dvp {
namespace {

TEST(ChaosDeterminism, SameCaseSameDigest) {
  for (uint64_t seed : {3u, 9u, 21u}) {
    chaos::ChaosCase c = chaos::MakeSwarmCase(seed);
    chaos::RunResult a = chaos::RunCase(c);
    chaos::RunResult b = chaos::RunCase(c);
    EXPECT_EQ(a.digest, b.digest) << "seed " << seed;
    EXPECT_EQ(a.events_executed, b.events_executed);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.violation, b.violation);
    EXPECT_EQ(a.trace, b.trace);
  }
}

TEST(ChaosDeterminism, DifferentPerturbationSeedChangesInterleaving) {
  chaos::ChaosCase c = chaos::MakeSwarmCase(4);
  c.max_jitter_us = 300;  // delivery jitter guarantees a different schedule
  c.perturb_seed = 1;
  chaos::RunResult a = chaos::RunCase(c);
  c.perturb_seed = 2;
  chaos::RunResult b = chaos::RunCase(c);
  // Both interleavings must satisfy the invariants; the digests genuinely
  // explore different executions.
  EXPECT_TRUE(a.ok) << a.violation;
  EXPECT_TRUE(b.ok) << b.violation;
  EXPECT_NE(a.digest, b.digest);
}

TEST(ChaosDeterminism, PlanLiteralRoundTrips) {
  chaos::ChaosCase c = chaos::MakeSwarmCase(7);
  std::string lit = c.ToLiteral();
  EXPECT_NE(lit.find("chaos::ChaosCase{"), std::string::npos);
  // Every plan entry appears in the literal.
  for (const chaos::FaultEvent& e : c.plan.events) {
    EXPECT_NE(lit.find(std::to_string(e.at)), std::string::npos);
  }
}

// The acceptance demo of the whole pipeline: plant a conservation violation
// (a Vm-creation record whose value was never debited), watch an oracle
// catch it mid-flight, then shrink the case to (nearly) nothing — the
// violation does not depend on the fault plan at all.
TEST(ChaosPlantedViolation, CaughtByOracleAndShrunk) {
  chaos::ChaosCase c = chaos::MakeSwarmCase(6);
  ASSERT_FALSE(c.plan.events.empty());

  chaos::RunOptions opts;
  opts.planted_violation_at_us = 400'000;
  opts.record_trace = false;
  chaos::RunResult r = chaos::RunCase(c, opts);
  ASSERT_FALSE(r.ok) << "the planted violation must be caught";
  EXPECT_NE(r.violation.find("conserv"), std::string::npos) << r.violation;
  EXPECT_GE(r.violation_time, opts.planted_violation_at_us);

  chaos::ShrinkOptions sopts;
  sopts.run = opts;
  chaos::ShrinkResult sr = chaos::Shrink(c, sopts);
  EXPECT_FALSE(sr.result.ok);
  EXPECT_LE(sr.minimal.plan.events.size(), 3u)
      << "plan should shrink away: the violation is plan-independent";
  EXPECT_LT(sr.minimal.workload.txns, c.workload.txns);
  EXPECT_LE(sr.runs, sopts.max_runs + 1);

  // The emitted literal reproduces: re-running the minimal case still fails.
  chaos::RunResult again = chaos::RunCase(sr.minimal, opts);
  EXPECT_FALSE(again.ok) << sr.minimal.ToLiteral();
}

TEST(ChaosOracles, ExactlyOnceCatchesDoubleAccept) {
  wal::StableStorage s0{SiteId(0)}, s1{SiteId(1)}, s2{SiteId(2)};
  VmId vm = vm::MakeVmId(SiteId(0), 1);
  ItemId item(0);
  wal::VmCreateRec create;
  create.vm = vm;
  create.dst = SiteId(1);
  create.item = item;
  create.amount = 5;
  create.write = wal::FragmentWrite{item, 10, -5, 0};
  s0.Append(wal::LogRecord(create));

  wal::VmAcceptRec accept;
  accept.vm = vm;
  accept.src = SiteId(0);
  accept.item = item;
  accept.amount = 5;
  accept.write = wal::FragmentWrite{item, 5, 5, 0};
  s1.Append(wal::LogRecord(accept));
  EXPECT_TRUE(chaos::CheckExactlyOnce(std::vector<const wal::StableStorage*>{
                                          &s0, &s1, &s2})
                  .ok());

  // The same Vm accepted at a second site: the duplicate filter failed.
  s2.Append(wal::LogRecord(accept));
  Status bad = chaos::CheckExactlyOnce(
      std::vector<const wal::StableStorage*>{&s0, &s1, &s2});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("accepted 2 times"), std::string::npos)
      << bad.message();
}

TEST(ChaosOracles, ExactlyOnceCatchesMismatchedAmount) {
  wal::StableStorage s0{SiteId(0)}, s1{SiteId(1)};
  VmId vm = vm::MakeVmId(SiteId(0), 2);
  ItemId item(0);
  wal::VmCreateRec create;
  create.vm = vm;
  create.dst = SiteId(1);
  create.item = item;
  create.amount = 5;
  s0.Append(wal::LogRecord(create));

  wal::VmAcceptRec accept;
  accept.vm = vm;
  accept.src = SiteId(0);
  accept.item = item;
  accept.amount = 7;  // value changed in flight
  s1.Append(wal::LogRecord(accept));
  Status bad = chaos::CheckExactlyOnce(
      std::vector<const wal::StableStorage*>{&s0, &s1});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("!= created"), std::string::npos)
      << bad.message();
}

TEST(ChaosOracles, ExactlyOnceRequiresADurableAcceptanceForAnAck) {
  // The receiver acks only once its acceptance is forced, so a sender's ack
  // next to an acceptance still in the receiver's unforced tail means the
  // ack outran the force.
  wal::StableStorage s0{SiteId(0)}, s1{SiteId(1)};
  VmId vm = vm::MakeVmId(SiteId(0), 3);
  ItemId item(0);
  wal::VmCreateRec create;
  create.vm = vm;
  create.dst = SiteId(1);
  create.item = item;
  create.amount = 5;
  s0.Append(wal::LogRecord(create));
  s0.Append(wal::LogRecord(wal::VmAckedRec{vm}));

  wal::VmAcceptRec accept;
  accept.vm = vm;
  accept.src = SiteId(0);
  accept.item = item;
  accept.amount = 5;
  s1.AppendBuffered(wal::LogRecord(accept));
  std::vector<const wal::StableStorage*> storages{&s0, &s1};
  Status bad = chaos::CheckExactlyOnce(storages);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("never durably accepted"), std::string::npos)
      << bad.message();

  s1.ForceTail();
  EXPECT_TRUE(chaos::CheckExactlyOnce(storages).ok());
}

TEST(ChaosFaultPlan, GenerationIsDeterministicAndSorted) {
  chaos::PlanSpec spec;
  chaos::FaultPlan a = chaos::GeneratePlan(42, spec);
  chaos::FaultPlan b = chaos::GeneratePlan(42, spec);
  EXPECT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.ToLiteral(), b.ToLiteral());
  EXPECT_FALSE(a.events.empty());
  for (size_t i = 1; i < a.events.size(); ++i) {
    EXPECT_LE(a.events[i - 1].at, a.events[i].at);
  }
}

TEST(ChaosFaultPlan, CrashableMaskIsHonoured) {
  chaos::PlanSpec spec;
  spec.crashable_mask = 0b1110;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    chaos::FaultPlan plan = chaos::GeneratePlan(seed, spec);
    for (const chaos::FaultEvent& e : plan.events) {
      if (e.kind == chaos::FaultKind::kCrash ||
          e.kind == chaos::FaultKind::kRecover) {
        EXPECT_NE(e.site, 0u) << "seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace dvp
