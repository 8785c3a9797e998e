// The wan_partition workload on the deterministic sim::Kernel, exposed so the
// self-test can check that its virtual-time outcomes are a pure function of
// the seed.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace perfbench {

struct WanOutcome {
  uint64_t submitted = 0, decided = 0, committed = 0;
  double p50_us = 0, p90_us = 0, p99_us = 0;  // virtual time
  double slo_goodput_tps = 0;                 // per virtual second
  uint64_t digest = 0;  // every txn's (index, outcome, virtual latency)
  bool audit_ok = false;
};

/// One untraced run through system::Cluster with `admission_us` of virtual
/// arrivals (the benchmark uses 100 s).
WanOutcome RunWanOnce(uint64_t seed, dvp::SimTime admission_us);

}  // namespace perfbench
