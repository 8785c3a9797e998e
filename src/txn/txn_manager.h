// The transaction manager for one site: implements the seven-step protocol
// of §5 (lock → request → await/timeout → compute → force commit record →
// apply → unlock), the write-only fast path, the remote request handler (the
// implicit Rds transactions of §6), and the iterative full-read drain.
// Each pending transaction has one retry timer, its round driver: every
// re-ask of a gather, a full read or a snapshot read is scheduled there.
//
// Non-blocking by construction: every submitted transaction reaches a
// commit/abort decision within max(local work, timeout) — no step ever waits
// on a lock, a failure detector, or another site's decision.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cc/lock_manager.h"
#include "cc/policy.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/types.h"
#include "dvpcore/value_store.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "proto/wire.h"
#include "runtime/runtime.h"
#include "txn/txn.h"
#include "vm/vm_manager.h"
#include "wal/group_commit.h"

namespace dvp::obs {
class TraceRecorder;
}

namespace dvp::placement {
class PlacementManager;
}

namespace dvp::txn {

/// How shortfall-request fan-out targets are chosen.
enum class TargetPolicy : uint8_t {
  /// First k sites by id. Deterministic and reproducible, but with a fanout
  /// below the cluster size it permanently starves high-id sites — test-only;
  /// benches and chaos default to kRandom or kSurplus.
  kFirstK,
  /// Fisher-Yates randomized fan-out (the livelock mitigation of §8).
  kRandom,
  /// Surplus-hint-directed: rank targets by fresh advertised surplus and
  /// split the shortfall proportionally to what each can ship; falls back to
  /// kRandom whenever no fresh hints exist for the item.
  kSurplus,
};

struct TxnManagerOptions {
  /// §5 step 3: redistribution replies must arrive within this window or the
  /// transaction aborts.
  SimTime timeout_us = 300'000;
  cc::CcScheme scheme = cc::CcScheme::kConc1;
  /// How many remote sites receive a shortfall request; 0 = all other sites.
  /// A full read always asks every other site: its rounds complete only once
  /// all of them have replied.
  uint32_t request_fanout = 0;
  /// When true, the shortfall is divided across the fan-out targets instead
  /// of asking each for the full amount (less over-shipping, more aborts
  /// when one target cannot contribute its share). The split is exact: the
  /// amounts sum to the shortfall (base share everywhere, remainder spread
  /// one unit at a time), never the up-to-k-1 over-ask of ceil division.
  bool divide_shortfall = false;
  /// Fan-out target selection policy; see TargetPolicy.
  TargetPolicy targeting = TargetPolicy::kFirstK;
  /// Paced re-request rounds for a gather still short after the first round:
  /// every interval the *remaining* shortfall is re-sent to freshly chosen
  /// targets until the timeout decides. 0 = single round (seed behavior).
  /// While a shortfall is open this interval also paces the transaction's
  /// read re-asks: one retry timer serves all of its open work.
  SimTime gather_retry_us = 0;
  /// Simulated local computation between "all values gathered" and the
  /// commit-record force (§5 step 4→5). Locks stay held, so this is the
  /// window in which contention is visible (0 = instantaneous commit).
  SimTime local_compute_us = 0;
  /// Conc1 acceptance-stamp policy (see cc::AcceptStampMode); ignored under
  /// Conc2.
  cc::AcceptStampMode accept_stamp = cc::AcceptStampMode::kCreationTs;
  /// Abort-on-cycle-risk timeout for multi-item atomic sets: when > 0, an
  /// atomic_set transaction arms min(timeout_us, multiop_timeout_us) instead
  /// of the full window. Multi-ops hold several locks at once, so giving up
  /// earlier bounds the time their lock footprint can starve opposing
  /// multi-ops (the try-lock scheme never deadlocks; this caps livelock).
  /// 0 = same timeout as single-item transactions.
  SimTime multiop_timeout_us = 0;
};

class TxnManager {
 public:
  TxnManager(SiteId self, uint32_t num_sites, runtime::Runtime* rt,
             wal::GroupCommitLog* log, core::ValueStore* store,
             cc::LockManager* locks, vm::VmManager* vm,
             net::Transport* transport, LamportClock* clock,
             obs::MetricsRegistry* metrics, Rng rng, TxnManagerOptions options,
             obs::TraceRecorder* trace = nullptr,
             placement::PlacementManager* placement = nullptr);

  /// Submits a transaction at this site. The callback always fires exactly
  /// once (commit, abort, or site failure) — see CrashAbortAll.
  TxnId Begin(const TxnSpec& spec, TxnCallback cb);

  /// Handles a request from another site's transaction (or this site's —
  /// i = j is legal in the paper and arises in single-site clusters).
  void OnRequest(SiteId from, const proto::RequestMsg& msg);

  /// Snapshot-read request handler: captures the resident fragments and
  /// per-item Vm ledgers at this instant, then sends the reply at the next
  /// covering log force (a reply must never leak a cut containing commits a
  /// crash could still roll back). Takes no locks, moves no value.
  void OnSnapshotReq(SiteId from, const proto::SnapshotReqMsg& msg);

  /// Snapshot-read reply handler for a read pending at this site. Keeps the
  /// latest reply per site; once every remote has answered, checks the
  /// balance certificate and completes or opens another round.
  void OnSnapshotReply(SiteId from, const proto::SnapshotReplyMsg& msg);

  /// Refusal of one part of this site's gather request. Every reason bumps
  /// the Lamport clock. A kCc refusal is counted (req.nack_received) and, if
  /// the refused transaction still holds the item's lock with a shortfall on
  /// it, re-asks `from` for that shortfall at once under a fresh timestamp
  /// (req.reask_early) — at most twice between retry-timer firings. A kEmpty
  /// refusal (req.surplus_nack) zeroes the placement cache entry for
  /// (from, item) so the next gather redirects.
  void OnNack(SiteId from, const proto::GatherNackMsg& msg);

  /// Routes an incoming Vm transfer. Returns true if a pending transaction
  /// holding the item's lock absorbed it; otherwise the caller should fall
  /// back to the unlocked acceptance path.
  bool RouteVmTransfer(SiteId from, const proto::VmTransferMsg& msg);

  /// Redistribution-only transaction (§5): fire-and-forget prefetch of
  /// `amount` of `item` from other sites. No locks held, no reply awaited.
  void Prefetch(ItemId item, core::Value amount);

  /// Rds push: ship `amount` of `item` to `dst` right now. Fails if the item
  /// is locked or the fragment cannot cover the amount.
  Status SendValue(SiteId dst, ItemId item, core::Value amount);

  /// Crash path: every pending transaction's callback fires with
  /// kAbortSiteFailure — unless its commit record was already FORCED, in
  /// which case it reports committed (the commit point had passed). A commit
  /// record still sitting in the unforced group-commit batch dies with the
  /// crash, so its transaction correctly reports site failure.
  void CrashAbortAll();

  size_t pending_count() const { return pending_.size(); }
  const TxnManagerOptions& options() const { return options_; }

  /// Chaos clock-skew knob: transactions submitted from now on arm their §5
  /// timeout at timeout_us * permille / 1000 — a site whose clock runs slow
  /// (permille > 1000) waits longer before giving up, one that runs fast
  /// gives up sooner. The non-blocking bound scales accordingly. Volatile:
  /// a crash/rebuild resets it to 1000.
  void set_timeout_skew_permille(uint32_t permille) {
    timeout_skew_permille_ = permille == 0 ? 1 : permille;
  }
  uint32_t timeout_skew_permille() const { return timeout_skew_permille_; }

 private:
  struct AbsorbedCredit {
    SiteId src;
    ItemId item;
    core::Value amount = 0;
  };

  struct ReadState {
    uint32_t round = 1;
    /// Replies this round: src → (accept_count, create_count) at reply time.
    /// Both are needed: an acceptance can land just after the acceptor's
    /// reply and escape the accept comparison, but the Vm's creation always
    /// precedes the creator's own next reply (its outbox must drain first),
    /// so the creator's create_count catches the movement.
    std::map<SiteId, std::pair<uint64_t, uint64_t>> counters;
    std::map<SiteId, std::pair<uint64_t, uint64_t>> prev_counters;
    bool this_round_nonzero = false;
    bool prev_round_all_zero = false;
    bool done = false;
  };

  /// State of one snapshot read (ReadMode::kSnapshot). The reader assembles
  /// Σ fragments + Σ (created − accepted) ledger values from the latest
  /// reply per site plus a fresh local capture; the per-site identity
  ///   fragment ≡ initial + accepted_value − created_value + Σ local commits
  /// makes ANY such combination an exact total under the windowed
  /// commit-subset rule, so correctness never depends on which round a reply
  /// came from. The balance certificate (Σ created == Σ accepted, counts and
  /// values, per item) is the quiescence signal that ends the read: while
  /// value is visibly in flight another round is opened, bounded by
  /// kSnapshotMaxRounds — past the cap the (still exact) cut is accepted.
  struct SnapState {
    std::vector<ItemId> items;
    uint32_t round = 1;
    struct Reply {
      uint32_t round = 0;
      std::vector<proto::SnapshotEntry> entries;
    };
    /// Latest reply per remote site (a higher round supersedes).
    std::map<SiteId, Reply> replies;
    /// Assembled totals per item, valid once done.
    std::map<ItemId, core::Value> totals;
    bool done = false;
  };

  struct PendingTxn {
    TxnId id;
    Timestamp ts;
    TxnSpec spec;
    std::vector<ItemId> items;
    /// Remaining shortfall per decrement item still short.
    std::map<ItemId, core::Value> shortfall;
    std::map<ItemId, ReadState> reads;
    SnapState snap;
    runtime::TimerHandle timeout;
    runtime::TimerHandle retry;  ///< the one retry timer (see ArmRetry)
    TxnCallback cb;
    SimTime start_time = 0;
    uint32_t rounds = 0;
    /// Retry-timer firings: the read backoff exponent.
    uint32_t retry_attempts = 0;
    /// kCc-triggered re-asks since the last retry-timer firing (OnNack).
    uint32_t early_reasks = 0;
    bool committed = false;
    bool commit_scheduled = false;
    /// Value this transaction absorbed mid-gather, per (src, item) — tracked
    /// only for atomic_set specs so an abort can return every partial gather
    /// to where it came from via ordinary Rds sends.
    std::vector<AbsorbedCredit> absorbed;
  };

  /// A request on behalf of transaction `txn`, stamped `ts`, with no parts.
  std::shared_ptr<proto::RequestMsg> NewRequest(TxnId txn, Timestamp ts,
                                                uint32_t round) const;
  void SendRequests(PendingTxn& t,
                    const std::vector<proto::RequestPart>& parts,
                    uint32_t round);
  void Reevaluate(PendingTxn& t);
  void ScheduleCommit(PendingTxn& t);
  void Commit(PendingTxn& t);
  void Abort(PendingTxn& t, TxnOutcome outcome, const std::string& why);
  void Finish(PendingTxn& t, TxnResult result);
  void HandleReadReply(PendingTxn& t, const proto::VmTransferMsg& msg);
  void SendReadRound(PendingTxn& t, ItemId item, bool only_missing);
  /// True while a full read or the snapshot read of `t` is not yet done.
  static bool ReadOpen(const PendingTxn& t);
  /// The transaction's round driver. Arms the retry timer while any work is
  /// open: a shortfall (when gather_retry_us > 0), a full read or a snapshot
  /// read. While a shortfall is open the timer runs at gather_retry_us;
  /// otherwise at the jittered read backoff on retry_attempts. A kCc NACK
  /// re-asks early (OnNack); the timer is the fallback for lost messages
  /// and for refusals past the early re-ask bound.
  void ArmRetry(PendingTxn& t);
  /// The retry timer fired: reset the early re-ask bound, re-ask the
  /// remaining shortfall under a fresh timestamp, then the missing replies
  /// of every open read (both modes), then re-arm.
  void OnRetry(TxnId id);
  /// Gives `t` a fresh timestamp and, under Conc1, restamps its locked
  /// fragments with it: the step before any gather re-ask.
  void Restamp(PendingTxn& t);
  /// Sends the current snapshot round's request. `only_stale` (the retry
  /// path) re-asks only sites whose latest reply predates the round.
  void SendSnapshotRound(PendingTxn& t, bool only_stale);
  /// Evaluates the balance certificate over the latest-reply-per-site set
  /// plus a fresh local capture; completes the read or advances the round.
  void TryCompleteSnapshot(PendingTxn& t);
  std::vector<SiteId> PickTargets();
  /// Counter for a final verdict (txn.committed / txn.abort.*), and the
  /// closing edge of the transaction's trace span.
  void NoteOutcome(TxnId id, TxnOutcome outcome);
  /// Commit-side placement metrics: the local-commit counter (zero gather
  /// rounds — the fast path the rebalancer works to hit) and the rounds
  /// histogram.
  void NoteCommitted(const PendingTxn& t);

  SiteId self_;
  uint32_t num_sites_;
  runtime::Runtime* rt_;
  wal::GroupCommitLog* log_;
  core::ValueStore* store_;
  cc::LockManager* locks_;
  vm::VmManager* vm_;
  net::Transport* transport_;
  LamportClock* clock_;
  obs::TraceRecorder* trace_;
  placement::PlacementManager* placement_;
  Rng rng_;
  TxnManagerOptions options_;
  cc::CcPolicy policy_;
  uint32_t timeout_skew_permille_ = 1000;

  /// Final-verdict counters indexed by TxnOutcome (txn.committed first).
  obs::Counter* m_outcome_[6];
  obs::Counter* m_req_sent_;
  obs::Counter* m_req_msgs_;
  obs::Counter* m_req_received_;
  obs::Counter* m_req_ignored_locked_;
  obs::Counter* m_req_ignored_cc_;
  obs::Counter* m_req_ignored_outstanding_;
  obs::Counter* m_req_ignored_empty_;
  obs::Counter* m_req_honored_;
  obs::Counter* m_req_honored_read_;
  obs::Counter* m_req_prefetch_;
  obs::Counter* m_rds_send_value_;
  obs::Counter* m_local_commit_;
  obs::Counter* m_gather_directed_;
  obs::Counter* m_gather_fallback_;
  obs::Counter* m_surplus_nack_;
  obs::Counter* m_nack_received_;
  obs::Counter* m_reask_early_;
  /// Multi-item atomic-set counters. They only move on multiop code paths,
  /// so workloads without atomic sets keep byte-identical counter sets.
  obs::Counter* m_multiop_committed_;
  obs::Counter* m_multiop_aborted_;
  obs::Counter* m_multiop_return_;
  obs::Counter* m_req_multiop_;
  /// Snapshot-read counters; only move when kReadSnapshot ops run, so
  /// snapshot-free workloads keep byte-identical counter sets.
  obs::Counter* m_snap_req_sent_;
  obs::Counter* m_snap_req_received_;
  obs::Counter* m_snap_reply_sent_;
  obs::Counter* m_snap_reply_received_;
  obs::Counter* m_snap_unbalanced_;
  obs::Counter* m_snap_stale_replies_;
  obs::Counter* m_snap_cut_forced_;
  /// Gather rounds per committed transaction; null without a registry.
  Histogram* h_rounds_ = nullptr;
  /// Snapshot rounds per completed snapshot read (≈1 at quiescence).
  Histogram* h_snap_rounds_ = nullptr;
  /// Retry-timer firings per committed read transaction, both modes — the
  /// backoff observability the fixed 40 ms poll never had.
  Histogram* h_read_retry_ = nullptr;

  std::map<TxnId, std::unique_ptr<PendingTxn>> pending_;
};

}  // namespace dvp::txn
