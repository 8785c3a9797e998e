// Causal trace recorder: typed span/instant events stamped from the runtime
// seam's clock (virtual on the sim kernel), exported as Perfetto/chrome
// trace_event JSON.
//
// Determinism contract: recording NEVER touches the kernel's event queue,
// any RNG stream, or component state — it appends to a vector and stamps the
// current virtual time. A traced run therefore executes the exact same event
// sequence as an untraced one (same digest), and two runs of the same seed
// produce byte-identical JSON. Disabled (`trace_ == nullptr` in every
// component), the entire layer costs one pointer test per would-be event.
//
// Causality: every transaction mints a trace_id (its TxnId — the packed
// Lamport timestamp, globally unique) and every Envelope/Packet carries the
// id of the transaction (or Vm) it serves, so cross-site events — the
// request at the origin, the Vm born at the honoring site, the acceptance
// back home — share one id and link into a single causal chain. Rds
// transfers outside any transaction use their VmId as the trace_id.
//
// Export model: one Perfetto "process" per site, one "thread" per subsystem
// track (txn/vm/wal/net/site). Transaction phases are async-nestable spans
// (ph "b"/"e" keyed by trace_id) because concurrent transactions at one site
// overlap; everything else is an instant event.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace dvp::runtime {
class Runtime;
}

namespace dvp::obs {

/// Subsystem track within one site's process. The numeric value is the
/// Perfetto tid.
enum class Track : uint8_t { kTxn = 0, kVm = 1, kWal = 2, kNet = 3, kSite = 4 };

std::string_view TrackName(Track t);

/// One recorded event. Names and arg keys must be string literals (static
/// storage): events are plain value copies, never owners.
struct TraceEvent {
  SimTime ts = 0;
  uint32_t site = 0;
  Track track = Track::kSite;
  char ph = 'i';  ///< 'b' span begin, 'e' span end, 'i' instant
  const char* name = "";
  uint64_t id = 0;  ///< causal trace_id (0 = uncorrelated)
  const char* k1 = nullptr;
  uint64_t v1 = 0;
  const char* k2 = nullptr;
  uint64_t v2 = 0;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(size_t max_events = size_t{1} << 20)
      : max_events_(max_events) {}

  /// Binds the clock events are stamped with. The owner of the runtime
  /// (Cluster, with its kernel) attaches on construction; events recorded
  /// while unattached are stamped at ts 0.
  void Attach(const runtime::Runtime* clock) { clock_ = clock; }

  void Begin(SiteId site, Track track, const char* name, uint64_t id,
             const char* k1 = nullptr, uint64_t v1 = 0,
             const char* k2 = nullptr, uint64_t v2 = 0);
  void End(SiteId site, Track track, const char* name, uint64_t id,
           const char* k1 = nullptr, uint64_t v1 = 0,
           const char* k2 = nullptr, uint64_t v2 = 0);
  void Instant(SiteId site, Track track, const char* name, uint64_t id = 0,
               const char* k1 = nullptr, uint64_t v1 = 0,
               const char* k2 = nullptr, uint64_t v2 = 0);

  const std::vector<TraceEvent>& events() const { return events_; }
  /// Events recorded past max_events are counted here instead of stored.
  uint64_t dropped() const { return dropped_; }
  void Clear() {
    events_.clear();
    dropped_ = 0;
  }

  /// All events carrying causal id `id`, in record order — the oracle
  /// explanation mode's query ("what did this Vm/transaction actually do").
  std::vector<TraceEvent> EventsFor(uint64_t id) const;
  /// First event with this name whose k1-arg equals `v1` (e.g. the vm.born
  /// event of one VmId); ts of -1 means "no such event".
  SimTime FirstTimeOf(const char* name, uint64_t v1) const;

  /// Perfetto/chrome trace_event JSON: process per site, thread per track,
  /// byte-stable for a fixed event sequence.
  std::string ToPerfettoJson() const;
  /// Writes ToPerfettoJson() when `path` is nonempty.
  void WriteTo(const std::string& path) const;

 private:
  void Push(const TraceEvent& e);

  const runtime::Runtime* clock_ = nullptr;
  size_t max_events_;
  std::vector<TraceEvent> events_;
  uint64_t dropped_ = 0;
};

}  // namespace dvp::obs
