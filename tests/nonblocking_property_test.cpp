// The non-blocking property (§2, §5), tested adversarially through the chaos
// harness: under fault plans mixing partitions, remote crashes, total message
// loss and timeout skew, every transaction submitted at an up site reaches
// its decision within the (skewed) timeout + ε of local work — no decision
// ever depends on failure detection or on another site's progress.
//
// Two layers:
//  * Pinned — the pre-chaos fixed scenarios, re-expressed as ChaosCases, so
//    the exact adversaries this suite has always run stay covered.
//  * Swarm — seeded FaultPlan generation (site 0 never crashes; it is the
//    submitter whose liveness the property is about).
#include <gtest/gtest.h>

#include "chaos/fault_plan.h"
#include "chaos/harness.h"
#include "common/rng.h"

namespace dvp {
namespace {

// Site 0 submits everything; the harness itself asserts decided == submitted
// and max_latency <= skewed timeout + jitter + ε.
chaos::WorkloadSpec NbWorkload(uint32_t loss_permille) {
  chaos::WorkloadSpec w;
  w.sites = 4;
  w.items = 1;
  w.total = 200;
  w.txns = 60;
  w.gap_us = 27'000;
  w.submit_site = 0;
  w.redist_permille = 0;
  w.max_amount = 80;  // often exceeds the fragment: many gather rounds
  w.timeout_us = 200'000;
  w.loss_permille = loss_permille;
  return w;
}

struct NbCase {
  const char* name;
  uint32_t loss_permille;
  SimTime flap_period_us;  // partition reshuffle period (0 = none)
  bool crash_remotes;
};

// Without a printer gtest dumps the raw bytes, and the discovered CTest name
// would carry the ASLR-randomised `name` pointer and uninitialised padding.
void PrintTo(const NbCase& c, std::ostream* os) { *os << c.name; }

class NonBlockingTest : public ::testing::TestWithParam<NbCase> {};

TEST_P(NonBlockingTest, EveryDecisionWithinBound) {
  const NbCase& p = GetParam();

  chaos::ChaosCase c;
  c.seed = 11;
  c.workload = NbWorkload(p.loss_permille);
  if (p.flap_period_us > 0) {
    // Reshuffling partitions for the whole active window.
    Rng rng(13);
    for (SimTime t = p.flap_period_us; t < 2'000'000; t += p.flap_period_us) {
      uint32_t mask;
      do {
        mask = static_cast<uint32_t>(rng.NextBounded(16));
      } while (mask == 0 || mask == 15);
      c.plan.events.push_back({t, chaos::FaultKind::kPartition, mask, 0});
    }
  }
  if (p.crash_remotes) {
    for (uint32_t s = 1; s < 4; ++s) {
      c.plan.events.push_back({300'000, chaos::FaultKind::kCrash, s, 0});
    }
  }

  chaos::RunResult r = chaos::RunCase(c);
  EXPECT_TRUE(r.ok) << p.name << ": " << r.violation << "\n"
                    << c.ToLiteral();
  EXPECT_EQ(r.decided, r.submitted);
  EXPECT_LE(r.max_latency_us, r.latency_bound_us);
  EXPECT_GT(r.submitted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, NonBlockingTest,
    ::testing::Values(NbCase{"healthy", 0, 0, false},
                      NbCase{"half_loss", 500, 0, false},
                      NbCase{"total_silence", 1000, 0, false},
                      NbCase{"fast_flapping", 0, 50'000, false},
                      NbCase{"lossy_flapping", 200, 120'000, false},
                      NbCase{"remotes_crash", 0, 0, true},
                      NbCase{"everything", 300, 80'000, true}),
    [](const auto& info) { return info.param.name; });

class NonBlockingSwarmTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NonBlockingSwarmTest, GeneratedPlanRespectsBound) {
  uint64_t seed = GetParam();

  chaos::ChaosCase c;
  c.seed = seed;
  c.workload = NbWorkload(0);
  c.perturb_seed = seed * 17 + 5;  // also search interleavings
  c.max_jitter_us = 200;

  chaos::PlanSpec spec;
  spec.num_sites = 4;
  spec.crashable_mask = 0b1110;  // never the submitter
  spec.horizon_us = 1'800'000;
  spec.max_events = 16;
  c.plan = chaos::GeneratePlan(seed, spec);

  chaos::RunResult r = chaos::RunCase(c);
  EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.violation << "\n"
                    << c.ToLiteral();
  EXPECT_EQ(r.decided, r.submitted);
}

INSTANTIATE_TEST_SUITE_P(Swarm, NonBlockingSwarmTest,
                         ::testing::Range(uint64_t{1}, uint64_t{8}));

}  // namespace
}  // namespace dvp
