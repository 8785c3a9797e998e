// simulate — configurable simulation driver over the public API: build a
// cluster, run a mixed workload with optional faults, print the report.
//
//   ./build/examples/simulate --sites=8 --duration-s=30 --rate=200
//       --loss=0.2 --partition="0,1,2,3|4,5,6,7@10:20" --crash=2@5
//       --recover=2@15 --scheme=conc2 --read-mix=0.02
//
// Every flag has a sensible default; run with --help for the list.
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "system/cluster.h"
#include "workload/generator.h"

using namespace dvp;

namespace {

struct Flags {
  uint32_t sites = 4;
  uint64_t seed = 42;
  double duration_s = 20;
  double rate = 150;
  uint32_t items = 4;
  int64_t total = 4000;
  double read_mix = 0.0;
  double snap_mix = 0.0;
  double dec_mix = 0.5;
  double inc_mix = 0.5;
  double loss = 0.0;
  double dup = 0.0;
  double site_skew = 0.0;
  double timeout_ms = 300;
  std::string scheme = "conc1";
  // "g1|g2@start:end" with comma-separated site lists, seconds.
  std::string partition;
  // "site@t" in seconds.
  std::string crash;
  std::string recover;
  bool verbose = false;
};

void PrintHelp() {
  std::cout <<
      "simulate flags (all --key=value):\n"
      "  --sites=N --seed=N --duration-s=S --rate=TXN_PER_S\n"
      "  --items=N --total=V          catalog size / initial value each\n"
      "  --read-mix=F --snap-mix=F --dec-mix=F --inc-mix=F\n"
      "  --loss=F --dup=F             per-packet link faults\n"
      "  --site-skew=THETA            Zipf skew of submission sites\n"
      "  --timeout-ms=MS              redistribution timeout\n"
      "  --scheme=conc1|conc2         concurrency control\n"
      "  --partition=0,1|2,3@10:15    split groups over [10s,15s]\n"
      "  --crash=2@5 --recover=2@12   site failure schedule\n"
      "  --verbose                    dump per-site counters\n";
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* out) {
  std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

Flags Parse(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string v;
    if (arg == "--help" || arg == "-h") {
      PrintHelp();
      std::exit(0);
    } else if (arg == "--verbose") {
      f.verbose = true;
    } else if (ParseFlag(arg, "sites", &v)) {
      f.sites = uint32_t(std::stoul(v));
    } else if (ParseFlag(arg, "seed", &v)) {
      f.seed = std::stoull(v);
    } else if (ParseFlag(arg, "duration-s", &v)) {
      f.duration_s = std::stod(v);
    } else if (ParseFlag(arg, "rate", &v)) {
      f.rate = std::stod(v);
    } else if (ParseFlag(arg, "items", &v)) {
      f.items = uint32_t(std::stoul(v));
    } else if (ParseFlag(arg, "total", &v)) {
      f.total = std::stoll(v);
      if (!core::CountDomain::Instance().ValidFragment(f.total)) {
        std::cerr << "--total must be a valid count (>= 0): " << v << "\n";
        PrintHelp();
        std::exit(2);
      }
    } else if (ParseFlag(arg, "read-mix", &v)) {
      f.read_mix = std::stod(v);
    } else if (ParseFlag(arg, "snap-mix", &v)) {
      f.snap_mix = std::stod(v);
    } else if (ParseFlag(arg, "dec-mix", &v)) {
      f.dec_mix = std::stod(v);
    } else if (ParseFlag(arg, "inc-mix", &v)) {
      f.inc_mix = std::stod(v);
    } else if (ParseFlag(arg, "loss", &v)) {
      f.loss = std::stod(v);
    } else if (ParseFlag(arg, "dup", &v)) {
      f.dup = std::stod(v);
    } else if (ParseFlag(arg, "site-skew", &v)) {
      f.site_skew = std::stod(v);
    } else if (ParseFlag(arg, "timeout-ms", &v)) {
      f.timeout_ms = std::stod(v);
    } else if (ParseFlag(arg, "scheme", &v)) {
      f.scheme = v;
    } else if (ParseFlag(arg, "partition", &v)) {
      f.partition = v;
    } else if (ParseFlag(arg, "crash", &v)) {
      f.crash = v;
    } else if (ParseFlag(arg, "recover", &v)) {
      f.recover = v;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      PrintHelp();
      std::exit(2);
    }
  }
  return f;
}

std::vector<SiteId> ParseSiteList(const std::string& s) {
  std::vector<SiteId> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(SiteId(uint32_t(std::stoul(tok))));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Parse(argc, argv);

  core::Catalog catalog;
  std::vector<ItemId> items;
  for (uint32_t i = 0; i < flags.items; ++i) {
    items.push_back(catalog.AddItem("item" + std::to_string(i),
                                    core::CountDomain::Instance(),
                                    flags.total));
  }

  system::ClusterOptions opts;
  opts.num_sites = flags.sites;
  opts.seed = flags.seed;
  opts.link.loss_prob = flags.loss;
  opts.link.duplicate_prob = flags.dup;
  opts.site.txn.timeout_us = SimTime(flags.timeout_ms * 1000);
  if (flags.scheme == "conc2") {
    opts.UseConc2();
  } else if (flags.scheme != "conc1") {
    std::cerr << "--scheme must be conc1 or conc2\n";
    return 2;
  }
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();

  // Fault schedule.
  if (!flags.partition.empty()) {
    auto at = flags.partition.find('@');
    auto colon = flags.partition.find(':', at);
    auto bar = flags.partition.find('|');
    if (at == std::string::npos || colon == std::string::npos ||
        bar == std::string::npos) {
      std::cerr << "--partition format: g1|g2@start:end\n";
      return 2;
    }
    auto g1 = ParseSiteList(flags.partition.substr(0, bar));
    auto g2 = ParseSiteList(flags.partition.substr(bar + 1, at - bar - 1));
    SimTime start = SimTime(std::stod(flags.partition.substr(at + 1)) * 1e6);
    SimTime end = SimTime(std::stod(flags.partition.substr(colon + 1)) * 1e6);
    cluster.kernel().ScheduleAt(start, [&cluster, g1, g2]() {
      Status s = cluster.Partition({g1, g2});
      std::cout << "[fault] partition: " << s.ToString() << "\n";
    });
    cluster.kernel().ScheduleAt(end, [&cluster]() {
      cluster.Heal();
      std::cout << "[fault] healed\n";
    });
  }
  auto schedule_site_event = [&](const std::string& spec, bool is_crash) {
    if (spec.empty()) return;
    auto at = spec.find('@');
    SiteId site(uint32_t(std::stoul(spec.substr(0, at))));
    SimTime when = SimTime(std::stod(spec.substr(at + 1)) * 1e6);
    cluster.kernel().ScheduleAt(when, [&cluster, site, is_crash]() {
      if (is_crash) {
        cluster.CrashSite(site);
        std::cout << "[fault] site " << site.value() << " crashed\n";
      } else {
        cluster.RecoverSite(site);
        std::cout << "[fault] site " << site.value() << " recovering\n";
      }
    });
  };
  schedule_site_event(flags.crash, true);
  schedule_site_event(flags.recover, false);

  // Workload.
  workload::WorkloadOptions w;
  w.arrivals_per_sec = flags.rate;
  w.p_read = flags.read_mix;
  w.p_snapshot = flags.snap_mix;
  w.p_decrement = flags.dec_mix;
  w.p_increment = flags.inc_mix;
  w.site_zipf_theta = flags.site_skew;
  w.seed = flags.seed * 3 + 1;
  workload::WorkloadDriver driver(&cluster, items, w);

  std::cout << "running " << flags.duration_s << "s of virtual time on "
            << flags.sites << " sites (" << flags.scheme << ", "
            << flags.rate << " txn/s)...\n";
  auto results = driver.Run(SimTime(flags.duration_s * 1e6));

  // Report.
  std::cout << "\n== results ==\n";
  std::cout << "submitted            " << results.submitted << "\n";
  std::cout << "committed            " << results.committed() << " ("
            << 100.0 * results.commit_rate() << "%)\n";
  for (const auto& [outcome, count] : results.outcomes) {
    if (outcome == txn::TxnOutcome::kCommitted) continue;
    std::cout << txn::TxnOutcomeName(outcome) << "  " << count << "\n";
  }
  std::cout << "refused (site down)  " << results.rejected_down << "\n";
  std::cout << "commit latency       "
            << results.commit_latency_us.Summary() << " (us)\n";
  std::cout << "decision latency max " << results.decision_latency_us.max()
            << " us (non-blocking bound)\n";

  CounterSet counters = cluster.AggregateCounters();
  std::cout << "\nmessages sent " << counters.Get("net.sent")
            << ", vm created " << counters.Get("vm.created")
            << ", vm accepted " << counters.Get("vm.accepted") << "\n";
  if (flags.verbose) std::cout << counters.ToString() << "\n";

  std::cout << "\nitem totals:";
  for (ItemId item : items) std::cout << " " << cluster.TotalOf(item);
  Status audit = cluster.AuditAll();
  std::cout << "\nconservation audit: " << audit.ToString() << "\n";
  return audit.ok() ? 0 : 1;
}
