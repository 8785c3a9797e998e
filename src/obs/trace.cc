#include "obs/trace.h"

#include <cstring>
#include <fstream>
#include <map>

#include "runtime/runtime.h"

namespace dvp::obs {

std::string_view TrackName(Track t) {
  switch (t) {
    case Track::kTxn:
      return "txn";
    case Track::kVm:
      return "vm";
    case Track::kWal:
      return "wal";
    case Track::kNet:
      return "net";
    case Track::kSite:
      return "site";
  }
  return "?";
}

void TraceRecorder::Push(const TraceEvent& e) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(e);
}

void TraceRecorder::Begin(SiteId site, Track track, const char* name,
                          uint64_t id, const char* k1, uint64_t v1,
                          const char* k2, uint64_t v2) {
  Push({clock_ ? clock_->Now() : 0, static_cast<uint32_t>(site.value()),
        track, 'b', name, id, k1, v1, k2, v2});
}

void TraceRecorder::End(SiteId site, Track track, const char* name,
                        uint64_t id, const char* k1, uint64_t v1,
                        const char* k2, uint64_t v2) {
  Push({clock_ ? clock_->Now() : 0, static_cast<uint32_t>(site.value()),
        track, 'e', name, id, k1, v1, k2, v2});
}

void TraceRecorder::Instant(SiteId site, Track track, const char* name,
                            uint64_t id, const char* k1, uint64_t v1,
                            const char* k2, uint64_t v2) {
  Push({clock_ ? clock_->Now() : 0, static_cast<uint32_t>(site.value()),
        track, 'i', name, id, k1, v1, k2, v2});
}

std::vector<TraceEvent> TraceRecorder::EventsFor(uint64_t id) const {
  std::vector<TraceEvent> out;
  for (const auto& e : events_) {
    if (e.id == id && id != 0) out.push_back(e);
  }
  return out;
}

SimTime TraceRecorder::FirstTimeOf(const char* name, uint64_t v1) const {
  for (const auto& e : events_) {
    if (std::strcmp(e.name, name) == 0 && e.k1 != nullptr && e.v1 == v1) {
      return e.ts;
    }
  }
  return -1;
}

std::string TraceRecorder::ToPerfettoJson() const {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&out, &first](const std::string& line) {
    if (!first) out += ",\n";
    first = false;
    out += line;
  };

  // Metadata first: name each site's process and each (site, track) thread.
  // std::map iteration gives sorted, hence byte-stable, metadata order.
  std::map<uint32_t, std::map<uint8_t, Track>> layout;
  for (const auto& e : events_) {
    layout[e.site][static_cast<uint8_t>(e.track)] = e.track;
  }
  for (const auto& [site, tracks] : layout) {
    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(site) + ",\"tid\":0,\"args\":{\"name\":\"site" +
         std::to_string(site) + "\"}}");
    for (const auto& [tid, track] : tracks) {
      emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(site) + ",\"tid\":" + std::to_string(tid) +
           ",\"args\":{\"name\":\"" + std::string(TrackName(track)) + "\"}}");
    }
  }

  // Events in record order (the simulation's deterministic execution order).
  for (const auto& e : events_) {
    std::string line = "{\"name\":\"";
    line += e.name;
    line += "\",\"cat\":\"";
    line += TrackName(e.track);
    line += "\",\"ph\":\"";
    line += e.ph;
    line += "\",\"ts\":" + std::to_string(e.ts);
    line += ",\"pid\":" + std::to_string(e.site);
    line +=
        ",\"tid\":" + std::to_string(static_cast<uint8_t>(e.track));
    if (e.ph == 'b' || e.ph == 'e') {
      // Async-nestable spans correlate begin/end by (cat, id): concurrent
      // transactions at one site overlap, so duration events cannot nest.
      line += ",\"id\":\"" + std::to_string(e.id) + "\"";
    } else {
      line += ",\"s\":\"t\"";
    }
    line += ",\"args\":{";
    bool first_arg = true;
    auto arg = [&line, &first_arg](const char* k, uint64_t v) {
      if (k == nullptr) return;
      if (!first_arg) line += ",";
      first_arg = false;
      line += "\"";
      line += k;
      line += "\":" + std::to_string(v);
    };
    if (e.ph == 'i' && e.id != 0) arg("trace_id", e.id);
    arg(e.k1, e.v1);
    arg(e.k2, e.v2);
    line += "}}";
    emit(line);
  }
  out += "\n]}\n";
  return out;
}

void TraceRecorder::WriteTo(const std::string& path) const {
  if (path.empty()) return;
  std::ofstream f(path, std::ios::trunc);
  f << ToPerfettoJson();
}

}  // namespace dvp::obs
