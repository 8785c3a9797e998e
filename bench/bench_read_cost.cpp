// E5 / E5b — The price of reading, and the stamped-snapshot answer.
//
// E5 (paper §8: "there is a high overhead in reading the entire value of a
// particular data item"): a DvP full read must drain Π⁻¹(d) to the reader —
// multi-round gather, messages proportional to rounds × sites — and it drags
// the background write commit rate down as the read mix grows, because every
// read concentrates all value at the reader. 2PC quorum reads are shown for
// contrast (cheap when healthy, unavailable under failures — the paper's
// trade).
//
// E5b (this repo's extension): the stamped snapshot read assembles
// Σ fragments + Σ in-flight from per-site ledger replies instead of draining
// value. No value moves, no locks are taken, and concurrent writes proceed
// untouched — so the read is a round-trip, not a drain, and the write commit
// rate stays flat across the whole mix sweep. Every committed snapshot is
// validated by the windowed consistent-cut oracle, each seed runs TWICE and
// the outcomes must match field for field, and CI byte-diffs the JSON
// against BENCH_read.json.
//
// Self-checks (exit 1 on failure):
//   - snapshot read p50 <= full-drain read p50 / 5 at the 20% mix
//   - background write commit rate >= 90% at every snapshot mix (1%..50%)
//   - zero serializability / snapshot-cut oracle violations
//   - both seeds deterministic across their two runs
#include "baseline/twopc.h"
#include "bench/bench_common.h"
#include "verify/serializability.h"

namespace dvp::bench {
namespace {

constexpr SimTime kRun = 20'000'000;
constexpr SimTime kDrain = 4'000'000;
constexpr uint32_t kSites = 4;
constexpr uint32_t kItems = 4;
constexpr core::Value kPerItem = 4000;
constexpr double kRate = 60.0;
constexpr double kMixes[] = {0.01, 0.05, 0.10, 0.20, 0.50};
constexpr uint64_t kSeeds[] = {5'001, 8'202};

uint32_t Mille(double mix) { return static_cast<uint32_t>(mix * 1000 + 0.5); }

/// Everything one arm measures. Field-for-field equality across two runs of
/// the same (mix, seed) is the determinism gate.
struct Outcome {
  uint64_t submitted = 0;
  uint64_t read_committed = 0;
  uint64_t read_aborted = 0;
  double read_p50_us = 0;
  double read_p99_us = 0;
  double read_rounds_p50 = 0;
  uint64_t write_committed = 0;
  uint64_t write_decided = 0;
  uint64_t msgs = 0;
  uint64_t snap_unbalanced_rounds = 0;
  uint64_t snap_cut_forced = 0;
  uint64_t oracle_ok = 1;

  double write_commit_rate() const {
    return write_decided == 0
               ? 1.0
               : double(write_committed) / double(write_decided);
  }
  double read_abort_pct() const {
    uint64_t n = read_committed + read_aborted;
    return n == 0 ? 0.0 : 100.0 * double(read_aborted) / double(n);
  }

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// Runs `driver` to the horizon, tallying reads (full or snapshot) apart
/// from writes — the same tally for both arms.
Outcome Tally(workload::WorkloadDriver& driver) {
  Outcome out;
  Histogram read_latency, read_rounds;
  driver.set_on_decision([&](SiteId, const txn::TxnSpec& spec,
                             const txn::TxnResult& r) {
    bool is_read = spec.ops.front().kind == txn::TxnOp::Kind::kReadFull ||
                   spec.ops.front().kind == txn::TxnOp::Kind::kReadSnapshot;
    if (is_read) {
      if (r.committed()) {
        ++out.read_committed;
        read_latency.Add(double(r.latency_us));
        read_rounds.Add(double(r.rounds));
      } else {
        ++out.read_aborted;
      }
    } else {
      ++out.write_decided;
      if (r.committed()) ++out.write_committed;
    }
  });
  auto results = driver.Run(kRun, kDrain);
  out.submitted = results.submitted;
  out.read_p50_us = read_latency.Median();
  out.read_p99_us = read_latency.P99();
  out.read_rounds_p50 = read_rounds.Median();
  return out;
}

/// One DvP run at the given mix; `snapshot` selects which read mode fills
/// the mix's read share. Snapshot runs feed every commit to the history
/// checker and validate both the full serializability replay and the
/// snapshot-only cut oracle.
Outcome RunDvp(double read_mix, uint64_t seed, bool snapshot) {
  std::vector<ItemId> items;
  core::Catalog catalog = MakeCountCatalog(kItems, kPerItem, &items);
  system::ClusterOptions opts;
  opts.num_sites = kSites;
  opts.seed = seed;
  opts.site.txn.timeout_us = 500'000;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();

  workload::WorkloadOptions w;
  w.arrivals_per_sec = kRate;
  w.p_read = snapshot ? 0.0 : read_mix;
  w.p_snapshot = snapshot ? read_mix : 0.0;
  w.p_decrement = (1.0 - read_mix) / 2;
  w.p_increment = (1.0 - read_mix) / 2;
  w.seed = seed * 3 + Mille(read_mix);
  workload::WorkloadDriver driver(&cluster, items, w);

  verify::HistoryChecker checker(&catalog);
  if (snapshot) {
    driver.set_on_commit([&](TxnId id, const txn::TxnSpec& spec,
                             const txn::TxnResult& r) {
      checker.RecordCommitAt(cluster.Now(), id, spec, r);
    });
  }

  Outcome out = Tally(driver);
  CounterSet counters = cluster.AggregateCounters();
  out.msgs = counters.Get("net.sent");
  out.snap_unbalanced_rounds = counters.Get("snapshot.rounds.unbalanced");
  out.snap_cut_forced = counters.Get("snapshot.cut_forced");

  if (snapshot) {
    std::map<ItemId, core::Value> final_totals;
    for (ItemId item : items) final_totals[item] = cluster.TotalOf(item);
    Status ser = checker.Check(verify::HistoryChecker::Order::kTimestamp,
                               &final_totals);
    Status cuts = checker.CheckSnapshotCuts();
    out.oracle_ok = ser.ok() && cuts.ok() ? 1 : 0;
    if (!ser.ok()) {
      std::cout << "SERIALIZABILITY VIOLATION (mix " << Mille(read_mix)
                << ", seed " << seed << "): " << ser.ToString() << "\n";
    }
    if (!cuts.ok()) {
      std::cout << "SNAPSHOT CUT VIOLATION (mix " << Mille(read_mix)
                << ", seed " << seed << "): " << cuts.ToString() << "\n";
    }
  }
  return out;
}

/// The 2PC quorum contrast arm (reads are quorum reads).
Outcome RunTwoPc(double read_mix, uint64_t seed) {
  std::vector<ItemId> items;
  core::Catalog catalog = MakeCountCatalog(kItems, kPerItem, &items);
  baseline::TwoPcOptions opts;
  opts.num_sites = kSites;
  opts.seed = seed;
  opts.policy = baseline::ReplicaPolicy::kQuorum;
  baseline::TwoPcCluster cluster(&catalog, opts);
  cluster.Bootstrap();

  workload::WorkloadOptions w;
  w.arrivals_per_sec = kRate;
  w.p_read = read_mix;
  w.p_decrement = (1.0 - read_mix) / 2;
  w.p_increment = (1.0 - read_mix) / 2;
  w.seed = seed * 3 + Mille(read_mix);
  workload::WorkloadDriver driver(&cluster, items, w);
  return Tally(driver);
}

void Emit(JsonMetrics* m, const std::string& k, const Outcome& o) {
  m->Set(k + "submitted", o.submitted);
  m->Set(k + "read_committed", o.read_committed);
  m->Set(k + "read_aborted", o.read_aborted);
  m->Set(k + "read_p50_us", o.read_p50_us);
  m->Set(k + "read_p99_us", o.read_p99_us);
  m->Set(k + "read_rounds_p50", o.read_rounds_p50);
  m->Set(k + "write_committed", o.write_committed);
  m->Set(k + "write_decided", o.write_decided);
  m->Set(k + "msgs", o.msgs);
  m->Set(k + "snap_unbalanced_rounds", o.snap_unbalanced_rounds);
  m->Set(k + "snap_cut_forced", o.snap_cut_forced);
  m->Set(k + "oracle_ok", o.oracle_ok);
}

void Main(const std::string& json_path) {
  PrintHeader("E5/E5b",
              "full-read drain cost vs stamped snapshot reads (4 sites, "
              "4 items)");
  JsonMetrics metrics;
  workload::TablePrinter table(
      {"read mix %", "system", "read p50 (ms)", "read p99 (ms)",
       "rounds p50", "read abort %", "write commit %"});

  bool ok = true;
  std::map<uint32_t, double> full_p50;

  // ---- E5: the full-drain arm and the 2PC contrast ------------------------
  for (double mix : kMixes) {
    Outcome full = RunDvp(mix, 55, /*snapshot=*/false);
    full_p50[Mille(mix)] = full.read_p50_us;
    table.AddRow(Pct(mix), "DvP full drain", full.read_p50_us / 1000.0,
                 full.read_p99_us / 1000.0, full.read_rounds_p50,
                 full.read_abort_pct(), Pct(full.write_commit_rate()));
    Emit(&metrics, "read.full.mix" + std::to_string(Mille(mix)) + ".", full);

    Outcome twopc = RunTwoPc(mix, 55);
    table.AddRow(Pct(mix), "2PC quorum", twopc.read_p50_us / 1000.0,
                 twopc.read_p99_us / 1000.0, 0.0, twopc.read_abort_pct(),
                 Pct(twopc.write_commit_rate()));
    Emit(&metrics, "read.twopc.mix" + std::to_string(Mille(mix)) + ".",
         twopc);
  }

  // ---- E5b: the snapshot arm — two seeds, each run twice ------------------
  uint64_t deterministic = 1;
  for (uint64_t seed : kSeeds) {
    for (double mix : kMixes) {
      Outcome a = RunDvp(mix, seed, /*snapshot=*/true);
      Outcome b = RunDvp(mix, seed, /*snapshot=*/true);
      if (!(a == b)) {
        deterministic = 0;
        std::cout << "DETERMINISM VIOLATION: seed " << seed << " mix "
                  << Mille(mix) << " diverged across two runs\n";
      }
      if (seed == kSeeds[0]) {
        table.AddRow(Pct(mix), "DvP snapshot", a.read_p50_us / 1000.0,
                     a.read_p99_us / 1000.0, a.read_rounds_p50,
                     a.read_abort_pct(), Pct(a.write_commit_rate()));
      }
      Emit(&metrics,
           "read.snap.s" + std::to_string(seed) + ".mix" +
               std::to_string(Mille(mix)) + ".",
           a);
      ok = ok && a.oracle_ok == 1;
      // The availability claim: snapshots never throttle the writers.
      if (a.write_commit_rate() < 0.90) {
        ok = false;
        std::cout << "WRITE COMMIT REGRESSION: seed " << seed << " mix "
                  << Mille(mix) << " rate " << a.write_commit_rate() << "\n";
      }
    }
  }

  // The headline ratio: a snapshot is a stamped round-trip, not a drain.
  double snap20 =
      RunDvp(0.20, kSeeds[0], /*snapshot=*/true).read_p50_us;  // = pinned run
  double full20 = full_p50[200];
  double speedup = snap20 > 0 ? full20 / snap20 : 0.0;
  metrics.Set("read.snapshot_speedup_at_mix200", speedup);
  metrics.Set("read.determinism", deterministic);
  metrics.WriteTo(json_path);
  table.Print();

  std::cout << "\nfull-drain p50 at 20% mix: " << full20 / 1000.0
            << " ms; snapshot p50: " << snap20 / 1000.0 << " ms ("
            << speedup << "x)\n";
  if (speedup < 5.0) {
    ok = false;
    std::cout << "SPEEDUP REGRESSION: snapshot p50 must be <= 1/5 of the "
                 "full-drain p50 at the 20% mix\n";
  }
  ok = ok && deterministic == 1;
  std::cout << "CHECK snapshot >=5x cheaper, writes >=90% committed, "
            << "oracles clean, deterministic: " << (ok ? "PASS" : "FAIL")
            << "\n";
  if (!ok) std::exit(1);
}

}  // namespace
}  // namespace dvp::bench

int main(int argc, char** argv) {
  dvp::bench::Main(dvp::bench::JsonPathFromArgs(argc, argv));
}
