// The audit ledger: everything the invariant checks read from the logs,
// gathered in one pass per site — one store rebuild (RebuildStore) and one
// scan of the full appended log (ScanPrefix). Every conservation, group,
// atomic-set and Vm oracle reads the ledger instead of the logs, so a change
// to how logs are stored or rebuilt has one reader to change.
//
// The conservation invariant (§3): at every instant,
//     N = Σ_i N_i + N_M
// — the item's value equals the sum of all site fragments plus the value of
// all live Vm (created but not yet accepted anywhere). The ledger keeps two
// views of it:
//  * durable — fragments are what each site's recovery would rebuild, and a
//    log record counts iff it lies in the site's forced prefix
//    (lsn < durable_size()); meaningful even mid-crash;
//  * volatile — every up site's live in-memory fragment substituted for its
//    durable rebuild, and the FULL appended log counted, unforced group-commit
//    tail included, because live stores apply buffered records at append
//    time. Down sites have no unforced tail (a crash drops it).
// The chaos harness evaluates both views at random instants during a run,
// not only at quiescence.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "dvpcore/catalog.h"
#include "wal/stable_storage.h"

namespace dvp::verify {

/// One item's conservation terms in one view. The invariant is
///     site_total + in_flight == initial_total + committed_delta.
struct ConservationBreakdown {
  core::Value site_total = 0;  ///< Σ_i N_i
  core::Value in_flight = 0;   ///< N_M: value of live Vm
  /// Net change to the item's value by committed transactions (redistribution
  /// contributes nothing).
  core::Value committed_delta = 0;
  uint64_t live_vms = 0;

  core::Value total() const { return site_total + in_flight; }
};

/// Live-state accessor for the volatile view: returns the in-memory fragment
/// value of `item` at `site`, or nullopt when the site is down (its durable
/// value is used instead). Null function = stable-storage-only audit.
using LiveValueFn =
    std::function<std::optional<core::Value>(SiteId, ItemId)>;

/// Bits of VmEntry::created / VmEntry::accepted: the views a record counts in.
enum LedgerView : uint8_t { kDurableView = 1, kVolatileView = 2 };

/// One Vm's records across every site's log.
struct VmEntry {
  core::Value amount = 0;           ///< last create record's
  core::Value durable_amount = 0;   ///< same, durable view only
  core::Value accepted_amount = 0;  ///< last acceptance record's
  /// Record counts over every site's full log (exactly-once accounting).
  uint32_t creates = 0;
  uint32_t accepts = 0;
  uint32_t acks = 0;
  SiteId dst;                       ///< last create record's
  ItemId item;                      ///< last create record's
  ItemId durable_item;              ///< same, durable view only
  ItemId accepted_item;             ///< last acceptance record's
  /// LedgerView bits of the conservation views holding a create/acceptance.
  uint8_t created = 0;
  uint8_t accepted = 0;
  /// Some site's forced prefix holds an acceptance.
  bool durably_accepted = false;

  bool LiveIn(LedgerView view) const {
    return (created & view) != 0 && (accepted & view) == 0;
  }
};

class LogLedger {
 public:
  /// Reads every site once. With a catalog, each site's store is rebuilt to
  /// yield its durable fragments: a resident fragment adds its difference
  /// from the site's boot share, and an item absent on every site sums to
  /// its boot shares — its initial total under one even or homed boot — so
  /// the durable view costs O(items + resident), never O(items × sites). A
  /// site whose rebuild fails is left out of the conservation views. With
  /// `live`, the volatile view is filled too; it reads each up site's live
  /// value of every catalog item. Without a catalog only the Vm entries and
  /// atomic-set anomalies are recorded.
  LogLedger(std::span<const wal::StableStorage* const> storages,
            const core::Catalog* catalog, const LiveValueFn& live = nullptr);

  /// Durable-view terms for one catalog item (needs a catalog).
  const ConservationBreakdown& Breakdown(ItemId item) const {
    return durable_[item.value()];
  }
  /// Checks every item in catalog order; the first violation wins, the
  /// durable view before the volatile one (checked only with `live`).
  Status CheckConservation(bool with_volatile) const;
  /// The conservation sum over a group of items, with atomic-set records
  /// lying wholly inside the group excluded. Durable view.
  Status CheckGroup(std::span<const ItemId> group) const;
  /// Every atomic-set commit record carries >= 2 writes summing to zero;
  /// every site's full log, first anomaly in (site, LSN) order.
  Status CheckAtomicSets() const;

  const std::unordered_map<VmId, VmEntry>& vms() const { return vms_; }

 private:
  /// An atomic-set commit record that is not a well-formed transfer: fewer
  /// than two writes, or writes that do not sum to zero. Well-formed records
  /// need no entry: they fail no check, and excluding one from a group sum
  /// subtracts zero.
  struct AtomicAnomaly {
    SiteId site;
    TxnId txn;
    bool durable = false;       ///< counts in the durable conservation view
    core::Value net = 0;        ///< Σ of the record's write deltas
    std::vector<ItemId> items;  ///< one per write
  };

  /// Adds every item's boot shares, summed over the sites in the views, to
  /// its durable site total.
  void AddBootShares(std::span<const core::BootRule> boots);
  void Scan(const wal::StableStorage& storage, bool conserving);

  const core::Catalog* catalog_;
  std::vector<ConservationBreakdown> durable_;
  std::vector<ConservationBreakdown> volatile_;  ///< empty without `live`
  std::unordered_map<VmId, VmEntry> vms_;
  std::vector<AtomicAnomaly> anomalies_;
};

/// Durable conservation breakdown for one item.
ConservationBreakdown AuditItem(
    std::span<const wal::StableStorage* const> storages,
    const core::Catalog& catalog, ItemId item);

/// Checks every catalog item against its initial total; returns the first
/// violation as an Internal status. With `live`, additionally checks the
/// volatile view's sum (live fragments + full-log Vm and commit records).
Status AuditAll(std::span<const wal::StableStorage* const> storages,
                const core::Catalog& catalog,
                const LiveValueFn& live = nullptr);

/// The benchmark's name for the durable AuditAll; the next benchmark change
/// calls AuditAll and deletes this.
Status AuditAllBulk(std::span<const wal::StableStorage* const> storages,
                    const core::Catalog& catalog);

/// Transaction-scoped cross-item conservation, part 1: every commit record
/// flagged atomic_set must carry at least two writes whose deltas sum to
/// zero — a transfer moves value between items, it never mints or destroys
/// it. Reads the FULL appended log of every site (an atomic record is one
/// append; there is no torn half to excuse), so a doctored record is caught
/// even while it sits in the unforced group-commit tail.
Status CheckAtomicSetCommits(
    std::span<const wal::StableStorage* const> storages);

/// Transaction-scoped cross-item conservation, part 2: the conservation sum
/// over a *group* of items. Writes of atomic-set records whose item set lies
/// entirely inside the group are excluded from the expected delta — they are
/// supposed to cancel — so a non-zero-sum atomic record shows up as a group
/// imbalance even though every per-item audit (which counts its legs
/// individually) still balances. Atomic records straddling the group edge
/// contribute their in-group legs like ordinary writes. Durable view.
Status AuditGroup(std::span<const wal::StableStorage* const> storages,
                  const core::Catalog& catalog,
                  std::span<const ItemId> group);

}  // namespace dvp::verify
