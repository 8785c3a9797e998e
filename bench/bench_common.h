// Shared helpers for the experiment harnesses (E1–E10). Each bench binary
// prints fixed-format tables whose rows are recorded in EXPERIMENTS.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "dvpcore/catalog.h"
#include "obs/json.h"
#include "system/cluster.h"
#include "workload/generator.h"
#include "workload/table.h"

namespace dvp::bench {

/// Schedules repeating random 2-way partitions against any simulated system
/// (DvP or a baseline): every `period_us` the network splits into two random
/// nonempty groups for `duration_us`, then heals.
class PartitionInjector {
 public:
  PartitionInjector(world::SimWorld* world, SimTime period_us,
                    SimTime duration_us, uint64_t seed)
      : world_(world),
        period_us_(period_us),
        duration_us_(duration_us),
        rng_(seed) {}

  /// Arms the injector until `until_us` (absolute virtual time).
  void Start(SimTime until_us) {
    until_ = until_us;
    Arm();
  }

  uint64_t splits() const { return splits_; }
  uint64_t heals() const { return heals_; }
  /// True when every split it caused was also healed — i.e. the injector
  /// left the network whole at the end of its window. Availability benches
  /// assert this so the post-window drain never runs against a partition the
  /// injector forgot.
  bool healed_at_end() const { return heals_ == splits_; }

 private:
  void Arm() {
    SimTime when = world_->Now() + period_us_;
    if (when >= until_) return;
    world_->kernel().ScheduleAt(when, [this]() {
      uint32_t n = world_->num_sites();
      if (n >= 2) {
        // Random nonempty bipartition.
        std::vector<SiteId> a, b;
        do {
          a.clear();
          b.clear();
          for (uint32_t s = 0; s < n; ++s) {
            (rng_.NextBool(0.5) ? a : b).push_back(SiteId(s));
          }
        } while (a.empty() || b.empty());
        (void)world_->Partition({a, b});
        ++splits_;
        // Clamp the heal inside the armed window: a split near `until_`
        // must not leave the network partitioned after the injector is
        // nominally done (the heal used to land past `until_`, poisoning
        // whatever the bench measured next).
        SimTime heal_at =
            std::min(world_->Now() + duration_us_, until_);
        world_->kernel().ScheduleAt(heal_at, [this]() {
          world_->Heal();
          ++heals_;
        });
      }
      Arm();
    });
  }

  world::SimWorld* world_;
  SimTime period_us_;
  SimTime duration_us_;
  SimTime until_ = 0;
  Rng rng_;
  uint64_t splits_ = 0;
  uint64_t heals_ = 0;
};

/// A catalog with `n_items` count items of `total` each.
inline core::Catalog MakeCountCatalog(uint32_t n_items, core::Value total,
                                      std::vector<ItemId>* items) {
  core::Catalog catalog;
  for (uint32_t i = 0; i < n_items; ++i) {
    ItemId id = catalog.AddItem("item" + std::to_string(i),
                                core::CountDomain::Instance(), total);
    if (items) items->push_back(id);
  }
  return catalog;
}

inline double Pct(double x) { return 100.0 * x; }

inline void PrintHeader(const std::string& id, const std::string& claim) {
  std::cout << "\n=== " << id << ": " << claim << " ===\n";
}

/// Deterministic JSON metrics sink for the bench binaries (`--json <path>`).
/// Now the shared obs::JsonWriter: keys emit sorted, integers render as
/// integers, doubles with fixed six-digit precision (non-finite values as
/// null — strict parsers reject NaN), so a fixed-seed run produces
/// byte-identical files — the property the CI perf-smoke bounds check and
/// BENCH_seed.json rely on.
using JsonMetrics = ::dvp::obs::JsonWriter;

/// Extracts `--json <path>` (or `--json=<path>`) from argv; empty if absent.
inline std::string JsonPathFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) return argv[i + 1];
    if (arg.rfind("--json=", 0) == 0) return arg.substr(7);
  }
  return "";
}

}  // namespace dvp::bench
