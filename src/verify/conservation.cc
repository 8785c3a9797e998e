#include "verify/conservation.h"

#include <algorithm>
#include <set>

#include "dvpcore/value_store.h"
#include "recovery/recovery.h"

namespace dvp::verify {

LogLedger::LogLedger(std::span<const wal::StableStorage* const> storages,
                     const core::Catalog* catalog, const LiveValueFn& live)
    : catalog_(catalog) {
  uint32_t n = catalog ? catalog->num_items() : 0;
  durable_.resize(n);
  if (live) volatile_.resize(n);
  for (const wal::StableStorage* storage : storages) {
    bool conserving = true;
    if (catalog != nullptr) {
      // Durable fragment value = what recovery would rebuild. Replay stops
      // at the last valid log prefix, exactly as a real recovery would.
      core::ValueStore scratch(catalog);
      recovery::RecoveryReport report;
      conserving = recovery::RebuildStore(*storage, &scratch, &report).ok();
      if (conserving) {
        for (const auto& [item, frag] : scratch.resident_fragments()) {
          durable_[item].site_total += frag.value;
        }
        for (uint32_t i = 0; live && i < n; ++i) {
          std::optional<core::Value> v = live(storage->site(), ItemId(i));
          volatile_[i].site_total += v ? *v : scratch.value(ItemId(i));
        }
      }
    }
    Scan(*storage, conserving);
  }

  for (const auto& [vm, e] : vms_) {
    if (e.LiveIn(kDurableView) && e.durable_item.value() < n) {
      durable_[e.durable_item.value()].in_flight += e.durable_amount;
      ++durable_[e.durable_item.value()].live_vms;
    }
    if (live && e.LiveIn(kVolatileView) && e.item.value() < n) {
      volatile_[e.item.value()].in_flight += e.amount;
      ++volatile_[e.item.value()].live_vms;
    }
  }
}

void LogLedger::Scan(const wal::StableStorage& storage, bool conserving) {
  // Records in the forced prefix are durable; everything decodable beyond it
  // (the unforced group-commit tail) counts in the volatile view only. A
  // site left out of conservation still feeds the exactly-once counts and
  // the atomic-set check.
  const uint64_t forced = storage.durable_size();
  uint64_t ignored = 0;
  (void)storage.ScanPrefix(
      0, storage.log_size(),
      [&](Lsn lsn, const wal::LogRecord& rec) {
        bool durable = lsn.value() < forced;
        uint8_t views =
            !conserving ? 0 : durable ? kDurableView | kVolatileView
                                      : kVolatileView;
        if (const auto* c = std::get_if<wal::VmCreateRec>(&rec)) {
          VmEntry& e = vms_[c->vm];
          ++e.creates;
          e.dst = c->dst;
          e.item = c->item;
          e.amount = c->amount;
          e.created |= views;
          if (views & kDurableView) {
            e.durable_item = c->item;
            e.durable_amount = c->amount;
          }
        } else if (const auto* a = std::get_if<wal::VmAcceptRec>(&rec)) {
          VmEntry& e = vms_[a->vm];
          ++e.accepts;
          e.accepted_item = a->item;
          e.accepted_amount = a->amount;
          e.accepted |= views;
          e.durably_accepted |= durable;
        } else if (const auto* k = std::get_if<wal::VmAckedRec>(&rec)) {
          ++vms_[k->vm].acks;
        } else if (const auto* t = std::get_if<wal::TxnCommitRec>(&rec)) {
          core::Value net = 0;
          for (const auto& w : t->writes) {
            net += w.delta;
            if (!conserving || w.item.value() >= durable_.size()) continue;
            if (durable) durable_[w.item.value()].committed_delta += w.delta;
            if (!volatile_.empty()) {
              volatile_[w.item.value()].committed_delta += w.delta;
            }
          }
          if (t->atomic_set && (t->writes.size() < 2 || net != 0)) {
            AtomicAnomaly& an = anomalies_.emplace_back();
            an.site = storage.site();
            an.txn = t->txn;
            an.durable = (views & kDurableView) != 0;
            an.net = net;
            for (const auto& w : t->writes) an.items.push_back(w.item);
          }
        }
      },
      &ignored);
}

Status LogLedger::CheckConservation(bool with_volatile) const {
  for (uint32_t i = 0; i < durable_.size(); ++i) {
    const core::ItemInfo& info = catalog_->info(ItemId(i));
    const ConservationBreakdown& b = durable_[i];
    core::Value expect = info.initial_total + b.committed_delta;
    if (b.total() != expect) {
      return Status::Internal(
          "conservation violated for item " + info.name +
          ": fragments=" + std::to_string(b.site_total) +
          " in_flight=" + std::to_string(b.in_flight) +
          " committed_delta=" + std::to_string(b.committed_delta) +
          " expected=" + std::to_string(expect));
    }
    if (!with_volatile || volatile_.empty()) continue;
    const ConservationBreakdown& v = volatile_[i];
    core::Value expect_vol = info.initial_total + v.committed_delta;
    if (v.total() != expect_vol) {
      return Status::Internal(
          "volatile conservation violated for item " + info.name +
          ": live_fragments=" + std::to_string(v.site_total) +
          " (durable=" + std::to_string(b.site_total) +
          ") in_flight=" + std::to_string(v.in_flight) +
          " expected=" + std::to_string(expect_vol));
    }
  }
  return Status::OK();
}

Status LogLedger::CheckGroup(std::span<const ItemId> group) const {
  std::set<ItemId> members(group.begin(), group.end());
  core::Value fragments = 0;
  core::Value in_flight = 0;
  core::Value expected_delta = 0;
  for (ItemId item : members) {
    const ConservationBreakdown& b = durable_[item.value()];
    fragments += b.site_total;
    in_flight += b.in_flight;
    expected_delta += b.committed_delta;
  }
  // Atomic sets wholly inside the group are excluded: their legs must
  // cancel, so counting them would mask a minting record. Zero-sum records
  // subtract nothing, so only the anomalies matter.
  for (const AtomicAnomaly& an : anomalies_) {
    if (an.durable && std::ranges::all_of(an.items, [&](ItemId item) {
          return members.contains(item);
        })) {
      expected_delta -= an.net;
    }
  }

  core::Value initial = 0;
  for (ItemId item : group) initial += catalog_->info(item).initial_total;
  core::Value expect = initial + expected_delta;
  if (fragments + in_flight != expect) {
    return Status::Internal(
        "cross-item conservation violated for group of " +
        std::to_string(group.size()) +
        " items: fragments=" + std::to_string(fragments) +
        " in_flight=" + std::to_string(in_flight) +
        " non-atomic delta=" + std::to_string(expected_delta) +
        " expected=" + std::to_string(expect));
  }
  return Status::OK();
}

Status LogLedger::CheckAtomicSets() const {
  if (anomalies_.empty()) return Status::OK();
  const AtomicAnomaly& an = anomalies_.front();
  std::string where = "atomic-set commit txn " +
                      std::to_string(an.txn.value()) + " at site " +
                      an.site.ToString();
  if (an.items.size() < 2) {
    return Status::Internal(where + " has " + std::to_string(an.items.size()) +
                            " write(s), need >= 2");
  }
  return Status::Internal(where + " is not zero-sum: net delta " +
                          std::to_string(an.net));
}

ConservationBreakdown AuditItem(
    std::span<const wal::StableStorage* const> storages,
    const core::Catalog& catalog, ItemId item) {
  return LogLedger(storages, &catalog).Breakdown(item);
}

Status AuditAll(std::span<const wal::StableStorage* const> storages,
                const core::Catalog& catalog, const LiveValueFn& live) {
  return LogLedger(storages, &catalog, live)
      .CheckConservation(static_cast<bool>(live));
}

Status AuditAllBulk(std::span<const wal::StableStorage* const> storages,
                    const core::Catalog& catalog) {
  return AuditAll(storages, catalog);
}

Status CheckAtomicSetCommits(
    std::span<const wal::StableStorage* const> storages) {
  return LogLedger(storages, nullptr).CheckAtomicSets();
}

Status AuditGroup(std::span<const wal::StableStorage* const> storages,
                  const core::Catalog& catalog,
                  std::span<const ItemId> group) {
  return LogLedger(storages, &catalog).CheckGroup(group);
}

}  // namespace dvp::verify
