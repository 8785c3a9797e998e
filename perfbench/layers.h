// Per-layer accounting shared by both backends: a snapshot of the public
// counters each module already keeps, and the per-layer metric table every
// traced run reports (a layer a workload does not reach reports 0).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "site/site.h"
#include "stats.h"
#include "wal/stable_storage.h"

namespace perfbench {

/// Module counters summed over sites. Read on the sites' own threads (or
/// after they stop); two snapshots subtract to the work done in between.
struct LayerCounters {
  std::map<std::string, uint64_t> c;

  static LayerCounters Of(dvp::site::Site& site) {
    static const char* const kNames[] = {
        "req.received",          "req.honored",
        "req.ignored.locked",    "req.ignored.cc",
        "req.ignored.outstanding", "req.ignored.empty",
        "vm.created",            "vm.deferred_locked",
        "placement.hint.hit",    "placement.hint.miss",
        "placement.hint.stale",  "placement.hint.empty",
        "placement.gather.directed", "placement.gather.fallback",
        "transport.retransmit",  "transport.ack_pure",
        "txn.abort.lock",
    };
    LayerCounters out;
    for (const char* name : kNames) out.c[name] = site.metrics().Get(name);
    const dvp::wal::StableStorage& st = site.storage();
    out.c["wal.forces"] = st.forces();
    out.c["wal.bytes"] = st.log_bytes();
    return out;
  }

  LayerCounters& operator+=(const LayerCounters& o) {
    for (const auto& [k, v] : o.c) c[k] += v;
    return *this;
  }
  LayerCounters operator-(const LayerCounters& o) const {
    LayerCounters out = *this;
    for (const auto& [k, v] : o.c) out.c[k] -= v;
    return out;
  }
  uint64_t operator[](const std::string& k) const {
    auto it = c.find(k);
    return it == c.end() ? 0 : it->second;
  }
};

/// Everything a traced run measures; fields a backend lacks stay 0.
struct LayerReport {
  uint64_t txns = 0;  // decided in the traced window
  // Spans, ns.
  LogHistogram queue, system_submit, site_submit, settle, lag;
  LogHistogram rounds;  // TxnResult::rounds, exact (small integers)
  uint64_t local_commits = 0, timeouts = 0;
  double txn_p50_ns = 0;
  LayerCounters counters;  // delta over the traced window
  uint64_t resident_fragments = 0;
  // runtime::Real
  uint64_t timers = 0, syscalls = 0, datagrams = 0;
  uint64_t cache_hits = 0, frames_encoded = 0;
  // net
  uint64_t msgs = 0, msg_bytes = 0, envelopes = 0;
  // codec (sim capture)
  double encode_ns = 0, decode_ns = 0, frame_bytes = 0;
  // sim::Kernel
  uint64_t events = 0;
  double event_wall_ns = 0;
  double wal_append_ns = 0, wal_force_ns = 0;
  double audit_s = 0;
  // The untraced run's latency percentiles and CPU per txn, which the
  // end-to-end table leaves out (see README.md).
  double e2e_p50_us = 0, e2e_p90_us = 0, e2e_p99_us = 0;
  double e2e_cpu_us_per_txn = 0;
  // Traced minus untraced end-to-end numbers.
  double overhead_p50_us = 0, overhead_p90_us = 0, overhead_p99_us = 0;
  double overhead_cpu_us = 0;
};

/// Times the run's own log records re-appended through a fresh
/// StableStorage: one buffered append, then one force per record (the
/// default force-per-commit discipline). At most `cap` records.
void TimeWal(const dvp::wal::StableStorage& source, size_t cap,
             double* append_ns, double* force_ns);

/// Appends the per-layer metric table (every name, always) to `out`.
void AddLayerMetrics(const LayerReport& r, Result* out);

}  // namespace perfbench
