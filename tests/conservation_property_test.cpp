// The central safety property (§3, §4.2): at every instant,
//     Σ fragments + Σ live Vm = initial + Σ committed deltas
// for every item — under random transactions, random partitions, random
// crashes/recoveries, lossy/duplicating links. Runs through the chaos
// harness with the durable audit evaluated after EVERY simulation event, and
// the full oracle suite (volatile view, exactly-once, WAL prefixes) at probe
// instants and after the drain.
//
// Two layers, as in nonblocking_property_test: pinned cases mirroring the
// pre-chaos fixed fault mixes, plus generated-FaultPlan swarm seeds.
#include <gtest/gtest.h>

#include "chaos/fault_plan.h"
#include "chaos/harness.h"

namespace dvp {
namespace {

chaos::WorkloadSpec ConservationWorkload(uint32_t loss_permille,
                                         uint32_t dup_permille) {
  chaos::WorkloadSpec w;
  w.sites = 4;
  w.items = 2;
  w.total = 300;
  w.txns = 70;
  w.gap_us = 30'000;
  w.redist_permille = 250;  // SendValue/Prefetch keep Vm traffic high
  w.max_amount = 12;
  w.timeout_us = 150'000;
  w.loss_permille = loss_permille;
  w.dup_permille = dup_permille;
  return w;
}

struct ConsCase {
  const char* name;
  uint64_t seed;
  uint32_t loss_permille;
  uint32_t dup_permille;
  bool crashes;
  bool partitions;
};

// Without a printer gtest dumps the raw bytes, and the discovered CTest name
// would carry the ASLR-randomised `name` pointer and uninitialised padding.
void PrintTo(const ConsCase& c, std::ostream* os) { *os << c.name; }

class ConservationChaosTest : public ::testing::TestWithParam<ConsCase> {};

TEST_P(ConservationChaosTest, InvariantHoldsAfterEveryEvent) {
  const ConsCase& p = GetParam();

  chaos::ChaosCase c;
  c.seed = p.seed;
  c.workload = ConservationWorkload(p.loss_permille, p.dup_permille);

  chaos::PlanSpec spec;
  spec.num_sites = 4;
  spec.horizon_us = 2'100'000;
  spec.max_events = 12;
  spec.crashes = p.crashes;
  spec.partitions = p.partitions;
  spec.link_faults = false;  // the workload's baseline loss/dup covers links
  spec.skew = false;
  c.plan = chaos::GeneratePlan(p.seed, spec);

  chaos::RunOptions opts;
  opts.audit_every_event = true;
  chaos::RunResult r = chaos::RunCase(c, opts);
  EXPECT_TRUE(r.ok) << p.name << ": " << r.violation << "\n" << c.ToLiteral();
  // finalize=true already required in-flight value to drain to zero; make
  // the intent visible here too.
  EXPECT_EQ(r.decided, r.submitted);
  EXPECT_GT(r.events_executed, 100u) << "the run must actually have run";
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, ConservationChaosTest,
    ::testing::Values(ConsCase{"calm", 1, 0, 0, false, false},
                      ConsCase{"lossy", 2, 300, 100, false, false},
                      ConsCase{"crashes", 3, 0, 0, true, false},
                      ConsCase{"partitions", 4, 0, 0, false, true},
                      ConsCase{"everything", 5, 300, 100, true, true},
                      ConsCase{"brutal", 6, 600, 200, true, true},
                      ConsCase{"crashy_partitions", 7, 100, 0, true, true},
                      ConsCase{"dupheavy", 8, 200, 300, false, true}),
    [](const auto& info) { return info.param.name; });

// Full swarm cases (generated workload + plan + perturbation). The per-event
// audit is skipped here — the probe oracles carry the mid-flight checking —
// so these seeds can afford bigger plans and schedule perturbation.
class ConservationSwarmTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConservationSwarmTest, SwarmCaseHoldsAllOracles) {
  uint64_t seed = GetParam();
  chaos::ChaosCase c = chaos::MakeSwarmCase(seed);
  chaos::RunResult r = chaos::RunCase(c);
  EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.violation << "\n"
                    << c.ToLiteral();
}

INSTANTIATE_TEST_SUITE_P(Swarm, ConservationSwarmTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace dvp
