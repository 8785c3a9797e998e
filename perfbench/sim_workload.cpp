// wan_partition: five sites on the sim kernel over lossy 1 ms + jitter
// links, one site cut off for 300 ms of every 2 s, a fixed-rate Poisson mix
// of cross-site decrement/increment toggles, atomic transfers and snapshot
// reads. Latencies are virtual time, so they repeat exactly for a seed; the
// wall-clock cost of the run is the protocol stack's CPU with no syscalls.
#include "sim_workload.h"

#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "dvpcore/catalog.h"
#include "dvpcore/domain.h"
#include "layers.h"
#include "net/message.h"
#include "net/network.h"
#include "proto/packet_codec.h"
#include "stats.h"
#include "system/cluster.h"
#include "verify/conservation.h"

namespace perfbench {
namespace {

using dvp::ItemId;
using dvp::SimTime;
using dvp::SiteId;
using dvp::core::Value;
using dvp::txn::TxnOutcome;
using dvp::txn::TxnResult;

constexpr uint32_t kSites = 5;
constexpr uint32_t kItems = 256;
constexpr Value kTotal = 20;
constexpr double kZipfTheta = 0.8;
constexpr double kRatePerS = 2'000;
constexpr SimTime kAdmissionUs = 100'000'000;
constexpr SimTime kCycleUs = 2'000'000;  // one site cut off per cycle ...
constexpr SimTime kCutUs = 300'000;      // ... for this long
constexpr SimTime kCutOffsetUs = 1'000'000;
constexpr double kLoss = 0.01;
// The objective is on p99, which the partition cycle sets; the median is a
// local commit, which takes no virtual time.
constexpr double kSloPercentile = 99;
constexpr SimTime kSloUs = 250'000;
constexpr SimTime kDrainUs = 60'000'000;
constexpr int kMinReps = 3;
// Extra timed set-ups after each repetition: set-up takes ~20 ms, and on a
// shared host its speed drifts over seconds, so setup_s is the median of
// samples spread over the whole run.
constexpr int kSetupsPerRep = 4;
constexpr size_t kCapturePackets = 1 << 14;

enum class Kind : uint8_t { kDecrement, kIncrement, kTransfer, kSnapshot };

struct Arrival {
  SimTime at;
  Kind kind;
  uint8_t site;
  uint16_t item, other;
};

/// The seeded arrival schedule. 80% toggles (item k's decrement at site
/// k%5, its increment at the next site, alternating, so decrements land
/// where the value is not), 15% atomic transfers between neighbouring items
/// whose direction alternates per item, 5% snapshot reads; the last two at a
/// uniformly random site. Alternation keeps every total within a few units
/// of its start, so no abort is caused by the totals running out.
std::vector<Arrival> MakeSchedule(uint64_t seed, SimTime admission_us) {
  dvp::Rng rng = dvp::Rng(seed).Fork(9001);
  dvp::ZipfGenerator zipf(kItems, kZipfTheta);
  std::vector<uint8_t> toggle(kItems, 0), direction(kItems, 0);
  std::vector<Arrival> out;
  out.reserve(size_t(double(admission_us) / 1e6 * kRatePerS * 1.05));
  double t = 0;
  for (;;) {
    t += rng.NextExponential(1e6 / kRatePerS);
    if (t >= double(admission_us)) break;
    uint16_t k = uint16_t(zipf.Next(rng));
    double u = rng.NextDouble();
    Arrival a{SimTime(t), Kind::kDecrement, 0, k, 0};
    if (u < 0.80) {
      bool down = (toggle[k] ^= 1) != 0;
      a.kind = down ? Kind::kDecrement : Kind::kIncrement;
      a.site = uint8_t(down ? k % kSites : (k + 1) % kSites);
    } else {
      a.kind = u < 0.95 ? Kind::kTransfer : Kind::kSnapshot;
      a.site = uint8_t(rng.NextBounded(kSites));
      uint16_t next = uint16_t((k + 1) % kItems);
      bool forward = (direction[k] ^= 1) != 0;
      a.item = forward ? k : next;
      a.other = forward ? next : k;
    }
    out.push_back(a);
  }
  return out;
}

dvp::txn::TxnSpec SpecFor(const Arrival& a) {
  using dvp::txn::TxnOp;
  ItemId item(a.item);
  switch (a.kind) {
    case Kind::kDecrement:
      return {{TxnOp::Decrement(item, 1)}, "", false};
    case Kind::kIncrement:
      return {{TxnOp::Increment(item, 1)}, "", false};
    case Kind::kTransfer:
      return dvp::txn::MakeTransfer(item, ItemId(a.other), 1);
    case Kind::kSnapshot:
      return {{TxnOp::ReadSnapshot(item)}, "", false};
  }
  return {};
}

dvp::core::Catalog MakeCatalog() {
  dvp::core::Catalog catalog;
  for (uint32_t i = 0; i < kItems; ++i) {
    catalog.AddItem("item" + std::to_string(i),
                    dvp::core::CountDomain::Instance(), kTotal);
  }
  return catalog;
}

dvp::system::ClusterOptions Options(uint64_t seed) {
  dvp::system::ClusterOptions opts;
  opts.num_sites = kSites;
  opts.seed = seed;
  opts.link.loss_prob = kLoss;
  // E14's paced re-asks: with a single round, a gather whose donor is
  // locked waits out the 300 ms timeout and 12% of transactions abort.
  opts.site.txn.gather_retry_us = 5'000;
  return opts;
}

/// Every decided transaction's virtual-time outcome.
struct Outcomes {
  uint64_t submitted = 0, decided = 0, committed = 0, within_slo = 0;
  uint64_t local_commits = 0, timeouts = 0;
  LogHistogram latency;  // virtual ns
  LogHistogram rounds;
  uint64_t digest = 14695981039346656037ull;

  void Record(uint64_t index, const TxnResult& r, SimTime latency_us) {
    ++decided;
    latency.Add(latency_us * 1000);
    rounds.Add(r.rounds);
    if (WithinSlo(r.committed(), latency_us, kSloUs)) ++within_slo;
    if (r.committed()) {
      ++committed;
      if (r.rounds == 0) ++local_commits;
    }
    if (r.outcome == TxnOutcome::kAbortTimeout) ++timeouts;
    for (uint64_t v : {index, uint64_t(r.outcome), uint64_t(latency_us)}) {
      digest = (digest ^ v) * 1099511628211ull;
    }
  }
};

/// A benchmark-owned pass-through conduit around net::Network that keeps a
/// copy of the first packets sent, for timing the codec on real traffic.
class CaptureConduit final : public dvp::net::Conduit {
 public:
  explicit CaptureConduit(dvp::net::Network* inner) : inner_(inner) {}
  void RegisterEndpoint(SiteId site, dvp::net::DeliveryFn deliver,
                        std::function<bool()> is_up) override {
    inner_->RegisterEndpoint(site, std::move(deliver), std::move(is_up));
  }
  void Send(dvp::net::Packet packet) override {
    if (captured_.size() < kCapturePackets) captured_.push_back(packet);
    inner_->Send(std::move(packet));
  }
  void Broadcast(SiteId src, dvp::net::EnvelopePtr payload) override {
    inner_->Broadcast(src, std::move(payload));
  }
  uint32_t num_sites() const override { return inner_->num_sites(); }
  const std::vector<dvp::net::Packet>& captured() const { return captured_; }

 private:
  dvp::net::Network* inner_;
  std::vector<dvp::net::Packet> captured_;
};

/// The traced run's system: composed exactly as system::Cluster composes
/// one (same RNG streams, same bootstrap split), with the capture conduit
/// between the sites and the network and a span around each Site::Submit.
/// The run checks that its virtual-time outcomes equal the untraced run's.
class TracedSim {
 public:
  TracedSim(const dvp::core::Catalog* catalog, dvp::system::ClusterOptions o)
      : catalog_(catalog), rng_(o.seed) {
    kernel_.EnablePerturbation(o.perturb);
    network_ = std::make_unique<dvp::net::Network>(&kernel_, o.num_sites,
                                                   o.link, rng_.Fork(1));
    capture_ = std::make_unique<CaptureConduit>(network_.get());
    for (uint32_t s = 0; s < o.num_sites; ++s) {
      storages_.push_back(std::make_unique<dvp::wal::StableStorage>(SiteId(s)));
      sites_.push_back(std::make_unique<dvp::site::Site>(
          SiteId(s), &kernel_, capture_.get(), storages_.back().get(), catalog,
          rng_.Fork(100 + s), o.site));
    }
  }

  void BootstrapEven() {
    uint32_t n = uint32_t(sites_.size());
    for (uint32_t s = 0; s < n; ++s) {
      std::map<ItemId, Value> per_site;
      for (ItemId item : catalog_->AllItems()) {
        per_site[item] =
            dvp::system::SplitEven(catalog_->info(item).initial_total, n)[s];
      }
      sites_[s]->Bootstrap(per_site);
    }
  }
  dvp::StatusOr<dvp::TxnId> Submit(SiteId at, const dvp::txn::TxnSpec& spec,
                                   dvp::txn::TxnCallback cb) {
    int64_t t0 = MonoNs();
    auto id = sites_[at.value()]->Submit(spec, std::move(cb));
    submit_span_.Add(MonoNs() - t0);
    return id;
  }
  dvp::Status Partition(const std::vector<std::vector<SiteId>>& groups) {
    return network_->partition().Split(groups);
  }
  void Heal() { network_->partition().Heal(); }

  dvp::sim::Kernel& kernel() { return kernel_; }
  dvp::net::Network& network() { return *network_; }
  dvp::site::Site& site(SiteId s) { return *sites_[s.value()]; }
  const CaptureConduit& capture() const { return *capture_; }
  /// Wall-clock time of each Site::Submit call.
  const LogHistogram& submit_span() const { return submit_span_; }
  std::vector<const dvp::wal::StableStorage*> Storages() const {
    std::vector<const dvp::wal::StableStorage*> out;
    for (const auto& s : storages_) out.push_back(s.get());
    return out;
  }

 private:
  const dvp::core::Catalog* catalog_;
  dvp::sim::Kernel kernel_;
  dvp::Rng rng_;
  std::unique_ptr<dvp::net::Network> network_;
  std::unique_ptr<CaptureConduit> capture_;
  std::vector<std::unique_ptr<dvp::wal::StableStorage>> storages_;
  std::vector<std::unique_ptr<dvp::site::Site>> sites_;
  LogHistogram submit_span_;
};

/// Runs the schedule to completion: arrivals chain one event at a time (so
/// the kernel's queue holds one pending arrival, not the whole schedule),
/// the partition cycle is scheduled up front, then the kernel steps until
/// every transaction has decided.
template <class Sys>
Outcomes Drive(Sys& sys, const std::vector<Arrival>& schedule,
               SimTime admission_us) {
  Outcomes out;
  dvp::sim::Kernel& k = sys.kernel();
  uint32_t cycle = 0;
  for (SimTime t = kCutOffsetUs; t < admission_us; t += kCycleUs, ++cycle) {
    SiteId cut(cycle % kSites);
    std::vector<SiteId> rest;
    for (uint32_t s = 0; s < kSites; ++s) {
      if (s != cut.value()) rest.push_back(SiteId(s));
    }
    k.ScheduleAt(t, [&sys, cut, rest] { (void)sys.Partition({{cut}, rest}); });
    k.ScheduleAt(t + kCutUs, [&sys] { sys.Heal(); });
  }
  std::function<void(size_t)> arrive = [&](size_t i) {
    const Arrival& a = schedule[i];
    ++out.submitted;
    auto id = sys.Submit(SiteId(a.site), SpecFor(a),
                         [&out, &k, i, due = a.at](const TxnResult& r) {
                           out.Record(i, r, k.Now() - due);
                         });
    if (!id.ok()) {
      TxnResult r;
      r.outcome = TxnOutcome::kAbortInvalid;
      out.Record(i, r, 0);
    }
    if (i + 1 < schedule.size()) {
      k.ScheduleAt(schedule[i + 1].at, [&arrive, i] { arrive(i + 1); });
    }
  };
  if (!schedule.empty()) {
    k.ScheduleAt(schedule[0].at, [&arrive] { arrive(0); });
  }
  const SimTime deadline = admission_us + kDrainUs;
  while ((out.submitted < schedule.size() || out.decided < out.submitted) &&
         k.NextEventTime() <= deadline) {
    k.Step();
  }
  return out;
}

struct Rep {
  Outcomes outcomes;
  double setup_s = 0;
  double cpu_ns = 0;
  dvp::Status audit;
};

/// The gate's audits: durable conservation of every item, and every atomic
/// set's writes summing to zero.
dvp::Status Audit(const std::vector<const dvp::wal::StableStorage*>& storages,
                  const dvp::core::Catalog& catalog) {
  dvp::Status s = dvp::verify::AuditAllBulk(storages, catalog);
  return s.ok() ? dvp::verify::CheckAtomicSetCommits(storages) : s;
}

/// A set-up alone (catalog, cluster, bootstrap, schedule); returns its wall
/// time in seconds.
double TimeSetUp(uint64_t seed, SimTime admission_us) {
  int64_t t0 = MonoNs();
  dvp::core::Catalog catalog = MakeCatalog();
  dvp::system::Cluster cluster(&catalog, Options(seed));
  cluster.BootstrapEven();
  std::vector<Arrival> schedule = MakeSchedule(seed, admission_us);
  return double(MonoNs() - t0) / 1e9;
}

/// One untraced run: set-up (catalog, cluster, bootstrap, schedule) timed
/// apart from the run, the run timed in process CPU, then the gate's audits.
Rep RunUntraced(uint64_t seed, SimTime admission_us) {
  Rep rep;
  int64_t t0 = MonoNs();
  dvp::core::Catalog catalog = MakeCatalog();
  dvp::system::Cluster cluster(&catalog, Options(seed));
  cluster.BootstrapEven();
  std::vector<Arrival> schedule = MakeSchedule(seed, admission_us);
  rep.setup_s = double(MonoNs() - t0) / 1e9;
  int64_t c0 = ProcessCpuNs();
  rep.outcomes = Drive(cluster, schedule, admission_us);
  rep.cpu_ns = double(ProcessCpuNs() - c0);
  cluster.Heal();
  rep.audit = Audit(cluster.Storages(), catalog);
  return rep;
}

void CheckRep(const Rep& rep, Result* res) {
  const Outcomes& o = rep.outcomes;
  if (o.decided != o.submitted) res->Fail("a submitted txn never decided");
  if (!rep.audit.ok()) res->Fail("audit: " + rep.audit.ToString());
}

double Us(const LogHistogram& h, double p) { return h.Percentile(p) / 1000.0; }

/// Times EncodePacketTo and DecodePacket over the captured packets.
void TimeCodec(const std::vector<dvp::net::Packet>& packets, LayerReport* r,
               Result* res) {
  if (packets.empty()) return;
  std::vector<std::string> frames(packets.size());
  std::string scratch;
  int64_t t0 = MonoNs();
  for (size_t i = 0; i < packets.size(); ++i) {
    dvp::proto::EncodePacketTo(packets[i], &frames[i], &scratch);
  }
  int64_t t1 = MonoNs();
  uint64_t bytes = 0, bad = 0;
  for (const std::string& f : frames) {
    bytes += f.size();
    if (!dvp::proto::DecodePacket(f).ok()) ++bad;
  }
  int64_t t2 = MonoNs();
  if (bad != 0) res->Fail("captured packets failed to round-trip the codec");
  double n = double(packets.size());
  r->encode_ns = double(t1 - t0) / n;
  r->decode_ns = double(t2 - t1) / n;
  r->frame_bytes = double(bytes) / n;
}

Result RunTraced(const Args& args) {
  Result res;
  Rep base = RunUntraced(args.seed, kAdmissionUs);
  CheckRep(base, &res);

  dvp::core::Catalog catalog = MakeCatalog();
  TracedSim sim(&catalog, Options(args.seed));
  sim.BootstrapEven();
  std::vector<Arrival> schedule = MakeSchedule(args.seed, kAdmissionUs);
  uint64_t env0 = dvp::net::PoolStats().envelopes;
  int64_t c0 = ProcessCpuNs(), w0 = MonoNs();
  Outcomes o = Drive(sim, schedule, kAdmissionUs);
  double cpu_ns = double(ProcessCpuNs() - c0);
  double wall_ns = double(MonoNs() - w0);
  sim.Heal();

  res.attempted = base.outcomes.submitted + o.submitted;
  int64_t a0 = MonoNs();
  Rep traced{o, 0, cpu_ns, Audit(sim.Storages(), catalog)};
  double audit_s = double(MonoNs() - a0) / 1e9;
  CheckRep(traced, &res);
  if (o.digest != base.outcomes.digest) {
    res.Fail("traced virtual-time outcomes differ from the untraced run's");
  }
  res.failed = res.correct ? (base.outcomes.submitted - base.outcomes.decided) +
                                 (o.submitted - o.decided)
                           : res.attempted;

  LayerReport layer;
  layer.txns = o.decided;
  layer.site_submit = sim.submit_span();
  layer.settle = o.latency;  // Submit returns at the due instant (virtual)
  layer.rounds = o.rounds;
  layer.local_commits = o.local_commits;
  layer.timeouts = o.timeouts;
  layer.txn_p50_ns = o.latency.Percentile(50);
  for (uint32_t s = 0; s < kSites; ++s) {
    dvp::site::Site& site = sim.site(SiteId(s));
    layer.counters += LayerCounters::Of(site);
    layer.resident_fragments += site.store()->resident_count();
  }
  const dvp::net::NetworkStats& ns = sim.network().stats();
  layer.msgs = ns.packets_sent;
  layer.msg_bytes = ns.bytes_sent;
  layer.envelopes = dvp::net::PoolStats().envelopes - env0;
  layer.events = sim.kernel().events_executed();
  layer.event_wall_ns = wall_ns;
  layer.audit_s = audit_s;
  TimeCodec(sim.capture().captured(), &layer, &res);
  TimeWal(sim.site(SiteId(0)).storage(), 200'000, &layer.wal_append_ns,
          &layer.wal_force_ns);
  layer.e2e_p50_us = Us(base.outcomes.latency, 50);
  layer.e2e_p90_us = Us(base.outcomes.latency, 90);
  layer.e2e_p99_us = Us(base.outcomes.latency, 99);
  layer.overhead_p50_us = Us(o.latency, 50) - Us(base.outcomes.latency, 50);
  layer.overhead_p90_us = Us(o.latency, 90) - Us(base.outcomes.latency, 90);
  layer.overhead_p99_us = Us(o.latency, 99) - Us(base.outcomes.latency, 99);
  layer.e2e_cpu_us_per_txn = base.cpu_ns / 1000.0 / double(o.submitted);
  layer.overhead_cpu_us = (cpu_ns - base.cpu_ns) / 1000.0 / double(o.submitted);
  AddLayerMetrics(layer, &res);
  return res;
}

}  // namespace

WanOutcome RunWanOnce(uint64_t seed, SimTime admission_us) {
  Rep rep = RunUntraced(seed, admission_us);
  const Outcomes& o = rep.outcomes;
  WanOutcome w;
  w.submitted = o.submitted;
  w.decided = o.decided;
  w.committed = o.committed;
  w.p50_us = Us(o.latency, 50);
  w.p90_us = Us(o.latency, 90);
  w.p99_us = Us(o.latency, 99);
  w.slo_goodput_tps = SloGoodput(o.within_slo, double(admission_us) / 1e6);
  w.digest = o.digest;
  w.audit_ok = rep.audit.ok();
  return w;
}

/// Untraced: repeat the same-seed run until `seconds` of wall time have
/// passed (at least kMinReps times). Every repetition must reproduce the
/// first one's virtual-time outcomes exactly; set-up time is the median
/// over the repetitions and the extra set-ups between them.
Result RunWanPartition(const Args& args) {
  if (args.trace) return RunTraced(args);
  Result res;
  Rep first = RunUntraced(args.seed, kAdmissionUs);
  CheckRep(first, &res);
  // One repetition's footprint; later ones only reuse the freed heap.
  const double peak_rss_mb = PeakRssMb();
  const Outcomes& o = first.outcomes;
  std::vector<double> setup_s{first.setup_s};
  const int64_t end = MonoNs() + int64_t(args.seconds * 1e9);
  for (int reps = 1; reps < kMinReps || MonoNs() < end; ++reps) {
    Rep rep = RunUntraced(args.seed, kAdmissionUs);
    CheckRep(rep, &res);
    if (rep.outcomes.digest != o.digest) {
      res.Fail("a same-seed repetition changed the virtual-time outcomes");
    }
    setup_s.push_back(rep.setup_s);
    for (int i = 0; i < kSetupsPerRep; ++i) {
      setup_s.push_back(TimeSetUp(args.seed, kAdmissionUs));
    }
  }
  res.attempted = o.submitted;
  res.failed = res.correct ? o.submitted - o.decided : o.submitted;
  res.Add("setup_s", Median(setup_s), "s");
  res.Add("commit_ratio", Ratio(double(o.committed), double(o.submitted)),
          "ratio");
  res.Add("slo_goodput_tps", SloGoodput(o.within_slo, kAdmissionUs / 1e6),
          "txn/s");
  res.Add("slo_latency_us", Us(o.latency, kSloPercentile), "us");
  res.Add("peak_rss_mb", peak_rss_mb, "MiB");
  return res;
}

}  // namespace perfbench
