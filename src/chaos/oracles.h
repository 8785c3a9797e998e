// Mid-flight invariant oracles. Each is a pure check over the cluster's
// current state, designed to be evaluated at *random instants during* a
// chaos run — not only at quiescence. A violation returns an Internal status
// whose message names the oracle and the offending state. Every oracle but
// the WAL-prefix one reads one verify::LogLedger, built once per probe.
//
//  * conservation (durable)  — §3's Σ fragments + Σ live Vm = N, computed
//    from stable storage alone.
//  * conservation (volatile) — the same sum with every up site's live
//    in-memory fragment substituted and the unforced log tail counted; the
//    stores are written in lockstep with log appends, so divergence at an
//    event boundary is a bug the stable view cannot see.
//  * atomic sets — every atomic-set commit record is zero-sum, and the sum
//    over the whole item set balances with atomic sets excluded.
//  * exactly-once Vm accounting — across all logs: a VmId is created at most
//    once, accepted at most once system-wide, every acceptance matches its
//    creation's (item, amount), and a sender's VmAckedRec implies a durable
//    acceptance somewhere (an ack is sent only once the acceptance is
//    forced).
//  * WAL-prefix recoverability — every prefix of every site's log (from the
//    checkpoint on) rebuilds without error into domain-valid fragments: no
//    crash point leaves a state recovery cannot handle. It rebuilds each
//    prefix itself: that is its job.
#pragma once

#include <span>
#include <string>

#include "common/status.h"
#include "dvpcore/catalog.h"
#include "system/cluster.h"
#include "verify/conservation.h"
#include "wal/stable_storage.h"

namespace dvp::obs {
class TraceRecorder;
}  // namespace dvp::obs

namespace dvp::chaos {

/// Exactly-once Vm accounting over all logs.
Status CheckExactlyOnce(const verify::LogLedger& ledger);
Status CheckExactlyOnce(std::span<const wal::StableStorage* const> storages);

/// WAL-prefix recoverability for one site's log.
Status CheckWalPrefixes(const wal::StableStorage& storage,
                        const core::Catalog& catalog);

/// Runs every oracle against the cluster; first violation wins.
Status CheckInvariants(const system::Cluster& cluster);

/// Trace-backed explanation of a conservation / exactly-once violation:
/// reads every log's Vm records from a ledger and names each anomaly — a VmId
/// created or accepted more than once, accepted without a creation, accepted
/// with a mismatched (item, amount), or still open — with its endpoints and,
/// when a TraceRecorder was attached to the run, the virtual times of the
/// matching vm.born / vm.accepted events. A created record with no vm.born
/// event is called out explicitly: it was planted in the log behind the Vm
/// layer's back. Returns at most eight lines; empty when the logs are clean (the
/// violation lies elsewhere, e.g. a torn fragment write).
std::string ExplainViolation(
    std::span<const wal::StableStorage* const> storages,
    const obs::TraceRecorder* trace);

}  // namespace dvp::chaos
