#include "chaos/oracles.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "dvpcore/value_store.h"
#include "obs/trace.h"
#include "recovery/recovery.h"
#include "vm/vm_manager.h"

namespace dvp::chaos {

namespace {

/// WAL-prefix audit is O(suffix²); beyond this many suffix records the
/// prefixes are strided instead of exhaustive.
constexpr uint64_t kWalPrefixExhaustiveLimit = 400;

using VmRow = std::pair<const VmId, verify::VmEntry>;

/// The ledger's Vm entries in VmId order, so verdicts and explanations do not
/// depend on its hash order.
std::vector<const VmRow*> SortedVms(const verify::LogLedger& ledger) {
  std::vector<const VmRow*> rows;
  rows.reserve(ledger.vms().size());
  for (const VmRow& row : ledger.vms()) rows.push_back(&row);
  std::ranges::sort(rows, {}, [](const VmRow* row) { return row->first; });
  return rows;
}

/// The exactly-once verdict on one Vm; empty when it holds.
std::string ExactlyOnceViolation(VmId vm, const verify::VmEntry& l) {
  std::string id = "exactly-once: vm " + vm.ToString();
  if (l.creates > 1) {
    return id + " created " + std::to_string(l.creates) + " times";
  }
  if (l.accepts > 1) {
    return id + " accepted " + std::to_string(l.accepts) +
           " times across the system";
  }
  if (l.accepts == 1 && l.creates == 0) {
    return id + " accepted without a creation record";
  }
  if (l.accepts == 1 &&
      (l.accepted_item != l.item || l.accepted_amount != l.amount)) {
    return id + " accepted (item " + l.accepted_item.ToString() +
           ", amount " + std::to_string(l.accepted_amount) +
           ") != created (item " + l.item.ToString() + ", amount " +
           std::to_string(l.amount) + ")";
  }
  // An acceptance is acked only once it is forced, so an ack with no forced
  // acceptance anywhere means the ack outran the force.
  if (l.acks > 0 && !l.durably_accepted) {
    return id + " acked at the sender but never durably accepted";
  }
  return "";
}

}  // namespace

Status CheckExactlyOnce(const verify::LogLedger& ledger) {
  for (const VmRow* row : SortedVms(ledger)) {
    std::string violation = ExactlyOnceViolation(row->first, row->second);
    if (!violation.empty()) return Status::Internal(violation);
  }
  return Status::OK();
}

Status CheckExactlyOnce(std::span<const wal::StableStorage* const> storages) {
  return CheckExactlyOnce(verify::LogLedger(storages, nullptr));
}

Status CheckWalPrefixes(const wal::StableStorage& storage,
                        const core::Catalog& catalog) {
  uint64_t from = storage.checkpoint_upto();
  uint64_t size = storage.log_size();
  uint64_t suffix = size - from;
  uint64_t stride = suffix <= kWalPrefixExhaustiveLimit
                        ? 1
                        : (suffix / kWalPrefixExhaustiveLimit + 1);
  for (uint64_t limit = from;; limit += stride) {
    // Always include the full-log prefix even when striding.
    if (limit > size) limit = size;
    core::ValueStore scratch(&catalog);
    recovery::RecoveryReport report;
    Status s = recovery::RebuildStorePrefix(storage, limit, &scratch, &report);
    if (!s.ok()) {
      return Status::Internal("wal-prefix: site " + storage.site().ToString() +
                              " prefix " + std::to_string(limit) +
                              " fails to rebuild: " + s.message());
    }
    if (report.valid_prefix < limit) {
      return Status::Internal("wal-prefix: site " + storage.site().ToString() +
                              " record " +
                              std::to_string(report.valid_prefix) +
                              " is undecodable mid-log");
    }
    for (ItemId item : catalog.AllItems()) {
      core::Value v = scratch.value(item);
      if (!catalog.domain(item).ValidFragment(v)) {
        return Status::Internal(
            "wal-prefix: site " + storage.site().ToString() + " prefix " +
            std::to_string(limit) + " rebuilds item " + item.ToString() +
            " to domain-invalid value " + std::to_string(v));
      }
    }
    if (limit == size) break;
  }
  return Status::OK();
}

std::string ExplainViolation(
    std::span<const wal::StableStorage* const> storages,
    const obs::TraceRecorder* trace) {
  verify::LogLedger ledger(storages, nullptr);

  // Every virtual time at which the named vm.* event fired for this VmId.
  // The Vm layer stamps each such event with the vm id as its first arg.
  auto times = [trace](const char* event, VmId vm) -> std::string {
    if (trace == nullptr) return "";
    std::string out;
    for (const obs::TraceEvent& e : trace->events()) {
      if (std::strcmp(e.name, event) == 0 && e.k1 != nullptr &&
          e.v1 == vm.value()) {
        out += (out.empty() ? " at t=" : ",") + std::to_string(e.ts);
      }
    }
    return out;
  };

  std::vector<std::string> lines;
  for (const VmRow* row : SortedVms(ledger)) {
    const auto& [vm, e] = *row;
    std::string route = "site " + vm::VmIdSite(vm).ToString() + " -> site " +
                        e.dst.ToString() + ", item " + e.item.ToString() +
                        ", amount " + std::to_string(e.amount);
    if (e.creates > 1) {
      lines.push_back("vm " + vm.ToString() + " created " +
                      std::to_string(e.creates) + " times (" + route + ")" +
                      times("vm.born", vm));
    }
    if (e.accepts > 1) {
      lines.push_back("vm " + vm.ToString() + " double-counted: accepted " +
                      std::to_string(e.accepts) + " times (" + route + ")" +
                      times("vm.accepted", vm));
    }
    if (e.accepts == 1 && e.creates == 0) {
      lines.push_back("vm " + vm.ToString() +
                      " accepted without a creation record" +
                      times("vm.accepted", vm));
    }
    if (e.accepts == 1 && e.creates == 1 &&
        (e.accepted_item != e.item || e.accepted_amount != e.amount)) {
      lines.push_back("vm " + vm.ToString() + " accepted (item " +
                      e.accepted_item.ToString() + ", amount " +
                      std::to_string(e.accepted_amount) +
                      ") != created (item " + e.item.ToString() +
                      ", amount " + std::to_string(e.amount) + ")");
    }
    if (e.creates >= 1 && e.accepts == 0) {
      std::string born = times("vm.born", vm);
      if (trace != nullptr && born.empty()) {
        born = " (no vm.born trace event — record not produced by the Vm "
               "layer)";
      }
      lines.push_back("vm " + vm.ToString() + " open: " + route +
                      " in flight, born" + born);
    }
  }

  std::string out;
  for (size_t i = 0; i < lines.size() && i < 8; ++i) out += lines[i] + "\n";
  if (lines.size() > 8) {
    out += "(+" + std::to_string(lines.size() - 8) + " more)\n";
  }
  return out;
}

Status CheckInvariants(const system::Cluster& cluster) {
  auto storages = cluster.Storages();
  const core::Catalog& catalog = cluster.catalog();
  verify::LogLedger ledger(storages, &catalog, cluster.LiveView());
  // The durable view over every item first, then both views item by item.
  Status s = ledger.CheckConservation(false);
  if (s.ok()) s = ledger.CheckConservation(true);
  if (s.ok()) s = CheckExactlyOnce(ledger);
  if (s.ok()) s = ledger.CheckAtomicSets();
  if (s.ok()) s = ledger.CheckGroup(catalog.AllItems());
  for (size_t i = 0; s.ok() && i < storages.size(); ++i) {
    s = CheckWalPrefixes(*storages[i], catalog);
  }
  return s;
}

}  // namespace dvp::chaos
