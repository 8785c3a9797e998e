#include <sys/resource.h>

#include <cstdio>
#include <vector>

#include "layers.h"
#include "stats.h"
#include "wal/record.h"

namespace perfbench {

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void Result::Fail(const std::string& why) {
  std::fprintf(stderr, "correctness gate failed: %s\n", why.c_str());
  correct = false;
  failed = attempted;
}

void TimeWal(const dvp::wal::StableStorage& source, size_t cap,
             double* append_ns, double* force_ns) {
  std::vector<dvp::wal::LogRecord> records;
  dvp::Status s = source.Scan(0, [&](dvp::Lsn, const dvp::wal::LogRecord& r) {
    if (records.size() < cap) records.push_back(r);
  });
  if (!s.ok() || records.empty()) return;
  dvp::wal::StableStorage fresh(source.site());
  int64_t append_total = 0, force_total = 0;
  for (const dvp::wal::LogRecord& r : records) {
    int64_t t0 = MonoNs();
    fresh.AppendBuffered(r);
    int64_t t1 = MonoNs();
    fresh.ForceTail();
    int64_t t2 = MonoNs();
    append_total += t1 - t0;
    force_total += t2 - t1;
  }
  *append_ns = double(append_total) / double(records.size());
  *force_ns = double(force_total) / double(records.size());
}

void AddLayerMetrics(const LayerReport& r, Result* out) {
  const double n = double(r.txns);
  const LayerCounters& k = r.counters;
  auto per_txn = [n](double v) { return Ratio(v, n); };
  auto us = [](double ns) { return ns / 1000.0; };

  out->Add("runtime.queue_us_p50", us(r.queue.Percentile(50)), "us");
  out->Add("runtime.queue_us_p99", us(r.queue.Percentile(99)), "us");
  out->Add("runtime.timers_per_txn", per_txn(double(r.timers)), "count");
  out->Add("runtime.syscalls_per_txn", per_txn(double(r.syscalls)), "count");
  out->Add("runtime.datagrams_per_txn", per_txn(double(r.datagrams)),
           "count");
  out->Add("runtime.frame_cache_hit_ratio",
           Ratio(double(r.cache_hits), double(r.cache_hits + r.frames_encoded)),
           "ratio");

  out->Add("system.submit_us_p50", us(r.system_submit.Percentile(50)), "us");
  out->Add("system.submit_us_p99", us(r.system_submit.Percentile(99)), "us");
  out->Add("site.submit_us_p50", us(r.site_submit.Percentile(50)), "us");
  out->Add("site.submit_us_p99", us(r.site_submit.Percentile(99)), "us");

  out->Add("txn.settle_us_p50", us(r.settle.Percentile(50)), "us");
  out->Add("txn.settle_us_p99", us(r.settle.Percentile(99)), "us");
  out->Add("txn.local_commit_ratio", per_txn(double(r.local_commits)),
           "ratio");
  out->Add("txn.rounds_mean", r.rounds.Mean(), "count");
  out->Add("txn.rounds_p99", r.rounds.Percentile(99), "count");
  double ignored = double(k["req.ignored.locked"] + k["req.ignored.cc"] +
                          k["req.ignored.outstanding"] +
                          k["req.ignored.empty"]);
  out->Add("txn.req_ignored_per_txn", per_txn(ignored), "count");
  out->Add("txn.gather_useful_ratio",
           Ratio(double(k["req.honored"]), double(k["req.received"])),
           "ratio");
  out->Add("txn.abort_timeout_ratio", per_txn(double(r.timeouts)), "ratio");
  out->Add("cc.lock_conflict_ratio",
           Ratio(double(k["txn.abort.lock"] + k["req.ignored.locked"]),
                 n + double(k["req.received"])),
           "ratio");

  out->Add("dvpcore.resident_fragments", double(r.resident_fragments),
           "count");
  out->Add("vm.born_per_txn", per_txn(double(k["vm.created"])), "count");
  out->Add("vm.deferred_per_txn", per_txn(double(k["vm.deferred_locked"])),
           "count");

  out->Add("wal.forces_per_txn", per_txn(double(k["wal.forces"])), "count");
  out->Add("wal.bytes_per_txn", per_txn(double(k["wal.bytes"])), "B");
  out->Add("wal.append_ns", r.wal_append_ns, "ns");
  out->Add("wal.force_ns", r.wal_force_ns, "ns");

  out->Add("net.msgs_per_txn", per_txn(double(r.msgs)), "count");
  out->Add("net.bytes_per_txn", per_txn(double(r.msg_bytes)), "B");
  out->Add("net.retransmits_per_txn",
           per_txn(double(k["transport.retransmit"])), "count");
  out->Add("net.pure_acks_per_txn", per_txn(double(k["transport.ack_pure"])),
           "count");
  out->Add("net.envelopes_per_txn", per_txn(double(r.envelopes)), "count");

  out->Add("proto.encode_ns_per_frame", r.encode_ns, "ns");
  out->Add("proto.decode_ns_per_frame", r.decode_ns, "ns");
  out->Add("proto.bytes_per_frame", r.frame_bytes, "B");

  double hints = double(k["placement.hint.hit"] + k["placement.hint.miss"] +
                        k["placement.hint.stale"] + k["placement.hint.empty"]);
  out->Add("placement.hint_hit_ratio",
           Ratio(double(k["placement.hint.hit"]), hints), "ratio");
  out->Add("placement.directed_ratio",
           Ratio(double(k["placement.gather.directed"]),
                 double(k["placement.gather.directed"] +
                        k["placement.gather.fallback"])),
           "ratio");

  out->Add("sim.events_per_txn", per_txn(double(r.events)), "count");
  out->Add("sim.ns_per_event", Ratio(r.event_wall_ns, double(r.events)), "ns");

  out->Add("verify.audit_s", r.audit_s, "s");

  double lag_p50 = r.lag.Percentile(50);
  out->Add("driver.lag_us_p50", us(lag_p50), "us");
  out->Add("driver.lag_us_p99", us(r.lag.Percentile(99)), "us");
  out->Add("driver.lag_over_p50", Ratio(lag_p50, r.txn_p50_ns), "ratio");

  out->Add("e2e.p50_us", r.e2e_p50_us, "us");
  out->Add("e2e.p90_us", r.e2e_p90_us, "us");
  out->Add("e2e.p99_us", r.e2e_p99_us, "us");
  out->Add("e2e.cpu_us_per_txn", r.e2e_cpu_us_per_txn, "us");
  out->Add("trace.overhead_p50_us", r.overhead_p50_us, "us");
  out->Add("trace.overhead_p90_us", r.overhead_p90_us, "us");
  out->Add("trace.overhead_p99_us", r.overhead_p99_us, "us");
  out->Add("trace.overhead_cpu_us_per_txn", r.overhead_cpu_us, "us");
}

}  // namespace perfbench
