// The chaos harness: one deterministic adversarial run, end to end.
//
// Determinism contract: a run is a pure function of its ChaosCase —
//     run = f(seed, fault-plan, perturbation)
// The workload (every submission's site, operation and amount, every
// redistribution) is precomputed from `seed` before the clock starts, the
// fault plan is applied at its scheduled instants, and the only other
// randomness is the kernel's perturbation stream (itself seeded). Two runs
// of the same case produce identical event sequences, identical counters
// and an identical digest — which is what makes counterexamples shrinkable
// and replayable as regression tests.
//
// Oracles fire mid-flight: probe events at seeded random instants evaluate
// the full invariant suite (conservation in both views, exactly-once Vm
// accounting, WAL-prefix recoverability, the non-blocking latency bound)
// while faults are still live, then again after a finalize/drain phase.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/oracles.h"
#include "common/types.h"

namespace dvp::obs {
class TraceRecorder;
}  // namespace dvp::obs

namespace dvp::chaos {

/// Marker for "pick a random up site per submission".
inline constexpr uint32_t kAnySite = 0xffffffffu;

/// The deterministic workload a chaos run drives. Aggregate: pinned cases
/// are pasted into tests as brace-literals.
struct WorkloadSpec {
  uint32_t sites = 4;
  uint32_t items = 2;
  int64_t total = 240;            ///< initial total of item 0 (+17 per item)
  uint32_t txns = 80;             ///< submissions over the run
  SimTime gap_us = 20'000;        ///< mean inter-submission gap
  uint32_t submit_site = kAnySite;
  uint32_t read_permille = 0;     ///< share of kReadFull transactions
  uint32_t redist_permille = 150; ///< share of SendValue/Prefetch actions
  int64_t max_amount = 40;
  SimTime timeout_us = 150'000;
  uint32_t loss_permille = 0;     ///< baseline link loss (plan may ramp it)
  uint32_t dup_permille = 0;
  // New knobs append here: pinned cases are positional brace-literals, so
  // inserting above would silently re-map every reproducer in the tree.
  /// Group-commit batch bound per site; 0 or 1 = group commit off.
  uint32_t group_commit_records = 0;
  /// Group-commit timer bound; only meaningful with records >= 2.
  SimTime group_commit_delay_us = 0;
  /// Transport frame coalescing (0/1).
  uint32_t coalesce = 0;
  /// Placement layer: surplus-hint piggyback + surplus-directed targeting
  /// with paced gather-retry rounds (0/1).
  uint32_t surplus_hints = 0;
  /// Background rebalancer (0/1; only meaningful with surplus_hints).
  uint32_t rebalance = 0;
  /// Share of submissions that are two-item atomic transfers (decrement one
  /// Zipf-ish item, increment another, one timestamp, zero-sum). Needs
  /// items >= 2; ignored otherwise.
  uint32_t transfer_permille = 0;
  /// Share that are two-item "order" atomic sets (stock down, revenue up).
  uint32_t order_permille = 0;
  /// Share of single-item submissions that are stamped snapshot reads
  /// (ReadMode::kSnapshot — no drain, no locks). At 0 no extra RNG draw is
  /// consumed, so pre-existing seeds keep their exact action stream. When
  /// nonzero the run also records committed history and checks every
  /// snapshot cut against the windowed consistent-cut oracle at finalize.
  uint32_t snapshot_permille = 0;

  friend bool operator==(const WorkloadSpec&, const WorkloadSpec&) = default;
};

/// Everything that determines a run. ToLiteral() emits a paste-able
/// reproducer; the shrinker minimises the plan (and workload) while the
/// failure persists.
struct ChaosCase {
  uint64_t seed = 1;
  /// Schedule perturbation: 0 disables; nonzero seeds the tie-break shuffle.
  uint64_t perturb_seed = 0;
  /// Bounded random delivery jitter (only with perturb_seed != 0).
  SimTime max_jitter_us = 0;
  WorkloadSpec workload;
  FaultPlan plan;

  std::string ToLiteral() const;

  friend bool operator==(const ChaosCase&, const ChaosCase&) = default;
};

struct RunOptions {
  OracleOptions oracles;
  uint32_t probes = 4;            ///< mid-flight oracle instants
  /// After the plan and workload end: heal, recover everyone, clear link
  /// faults, and require in-flight value to drain to zero.
  bool finalize = true;
  SimTime drain_us = 30'000'000;
  /// Debug hook proving the oracle→shrink pipeline: at this virtual time a
  /// bogus Vm-creation record is planted in site 0's log, violating
  /// conservation by +1 in-flight unit. 0 = off.
  SimTime planted_violation_at_us = 0;
  /// Record applied faults and probe outcomes into RunResult::trace.
  bool record_trace = true;
  /// Audit durable conservation after EVERY simulation event, not just at
  /// the probe instants (expensive — keep the workload modest).
  bool audit_every_event = false;
  /// Optional causal trace recorder, shared by every component of every site
  /// in the run. Recording is passive (never touches the kernel queue or any
  /// RNG), so a traced run executes the same event sequence — and produces
  /// the same digest — as an untraced one.
  obs::TraceRecorder* trace = nullptr;
};

struct RunResult {
  bool ok = true;
  std::string violation;          ///< first oracle failure (empty when ok)
  /// Trace-backed account of the first Vm-accounting anomaly behind the
  /// violation: which Vm double-counted (or appeared from thin air), between
  /// which sites, at what virtual time. Empty when ok or unexplained.
  std::string explanation;
  SimTime violation_time = -1;
  uint64_t events_executed = 0;
  uint64_t submitted = 0;         ///< submissions accepted by an up site
  uint64_t skipped = 0;           ///< submissions aimed at a down site
  uint64_t decided = 0;
  uint64_t committed = 0;
  SimTime max_latency_us = 0;
  SimTime latency_bound_us = 0;
  /// FNV-1a over the run's observable outcome (decisions, counters, audit
  /// breakdowns). Identical cases yield identical digests — the determinism
  /// check of the swarm runner.
  uint64_t digest = 0;
  std::vector<std::string> trace;
};

/// Executes one chaos case. Deterministic; never throws on oracle failure —
/// the violation is reported in the result.
RunResult RunCase(const ChaosCase& c, const RunOptions& opts = {});

/// Swarm-testing case generator: draws a workload shape, a perturbation and
/// a fault plan from `seed` alone, varying which fault classes are active so
/// different seeds explore different failure-mode mixes. Used by the
/// chaos_runner swarm and the property tests.
ChaosCase MakeSwarmCase(uint64_t seed);

}  // namespace dvp::chaos
