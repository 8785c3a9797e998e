// Simulated stable storage for one site: an append-only, checksummed log and
// a checkpointed database image. A Site's volatile state (caches, lock
// table, in-flight transactions, transport buffers) dies with a crash; the
// StableStorage object survives — it is owned by the cluster harness, not by
// the Site, mirroring disk vs RAM.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "dvpcore/boot_rule.h"
#include "wal/record.h"

namespace dvp::wal {

/// Stable image of one fragment (the site's share of one data item).
struct ImageEntry {
  int64_t value = 0;
  uint64_t ts_packed = 0;
};

class StableStorage {
 public:
  explicit StableStorage(SiteId site) : site_(site) {}

  SiteId site() const { return site_; }

  // ---- Log ----------------------------------------------------------------
  //
  // The log has two watermarks: `log_size()` counts every appended record,
  // `durable_size()` counts the forced prefix. A synchronous Append() keeps
  // them equal; the group-commit path widens the gap with AppendBuffered()
  // and closes it with ForceTail(). A crash loses exactly the records in
  // [durable_size, log_size) — the unforced tail is volatile by construction.

  /// Appends and forces a record; returns its LSN (dense, 0-based). The
  /// force covers any buffered tail too, so the durable log is always a
  /// prefix of append order even when buffered and synchronous appenders
  /// interleave.
  Lsn Append(const LogRecord& record);

  /// Appends without forcing: the record is in the volatile batch buffer
  /// until the next ForceTail()/Append() and is lost by DropUnforcedTail().
  Lsn AppendBuffered(const LogRecord& record);

  /// Forces every buffered record as ONE multi-record group (one force,
  /// regardless of group size). Returns the number of records forced;
  /// returns 0 — and counts no force — when the tail is already clean.
  uint64_t ForceTail();

  /// Discards the unforced tail (crash path): a crash interrupts the batch
  /// buffer before its covering force, so those records never existed.
  /// Returns the number of records dropped.
  uint64_t DropUnforcedTail();

  /// Number of records appended (forced or not).
  uint64_t log_size() const { return encoded_.size(); }

  /// Number of records in the forced prefix — the log that survives a crash.
  uint64_t durable_size() const { return durable_size_; }

  /// Records / bytes sitting in the unforced tail right now.
  uint64_t unforced_records() const { return encoded_.size() - durable_size_; }
  uint64_t unforced_bytes() const { return log_bytes_ - durable_bytes_; }

  /// Decodes the record at `lsn`.
  StatusOr<LogRecord> Read(Lsn lsn) const;

  /// Replays records with LSN in [from, log_size) through `fn`, verifying
  /// checksums. Stops with Corruption on a damaged record.
  Status Scan(uint64_t from,
              const std::function<void(Lsn, const LogRecord&)>& fn) const;

  /// Like Scan, but bounded to [from, upto) and tolerant of a damaged tail:
  /// replay stops (returning OK) at the first undecodable record, reporting
  /// how far it got in *valid_upto. A fully intact range yields
  /// *valid_upto == upto. This is the read path recovery uses — a torn or
  /// bit-rotted tail truncates the log instead of losing the site.
  Status ScanPrefix(uint64_t from, uint64_t upto,
                    const std::function<void(Lsn, const LogRecord&)>& fn,
                    uint64_t* valid_upto) const;

  /// Discards every record with LSN >= new_size (recovery drops a damaged
  /// tail with this before appending new records after it).
  void Truncate(uint64_t new_size);

  /// Total stable-storage forces — the E10 overhead metric. One synchronous
  /// Append is one force; one ForceTail over an N-record group is also one.
  uint64_t forces() const { return forces_; }
  /// Total records ever appended (monotone; Truncate does not rewind it).
  uint64_t appends() const { return appends_; }
  /// Total encoded log bytes.
  uint64_t log_bytes() const { return log_bytes_; }

  // ---- Group accounting (bench attribution) --------------------------------

  /// Records / encoded bytes covered by the most recent force.
  uint64_t last_group_records() const { return last_group_records_; }
  uint64_t last_group_bytes() const { return last_group_bytes_; }
  /// Largest group any single force has covered.
  uint64_t max_group_records() const { return max_group_records_; }
  uint64_t max_group_bytes() const { return max_group_bytes_; }

  // ---- Database image (checkpoint target) ---------------------------------

  /// Overwrites the stable image of one fragment.
  void WriteImage(ItemId item, int64_t value, uint64_t ts_packed) {
    image_[item] = ImageEntry{value, ts_packed};
  }

  const std::map<ItemId, ImageEntry>& image() const { return image_; }

  /// What every fragment the image does not hold reads as: the site's boot
  /// rule, written once at first boot. The image and the log hold only what
  /// was written since.
  void set_boot_rule(core::BootRule rule) { boot_rule_ = rule; }
  const core::BootRule& boot_rule() const { return boot_rule_; }

  /// The image reflects log records with LSN < checkpoint_upto.
  void set_checkpoint_upto(uint64_t upto) { checkpoint_upto_ = upto; }
  uint64_t checkpoint_upto() const { return checkpoint_upto_; }

  // ---- Site incarnation ----------------------------------------------------

  /// Bumped by each recovery; distinguishes reborn sites.
  uint64_t incarnation() const { return incarnation_; }
  void set_incarnation(uint64_t inc) { incarnation_ = inc; }

  // ---- Test hooks ----------------------------------------------------------

  /// Invoked after each append; crash-injection tests use it to kill the
  /// site between a log force and the in-memory update that follows it.
  void set_post_append_hook(std::function<void(Lsn, const LogRecord&)> hook) {
    post_append_hook_ = std::move(hook);
  }

  /// Flips one byte of an encoded record (corruption tests).
  Status CorruptRecordForTest(Lsn lsn, size_t byte_offset);

  /// Models a torn write: the final record keeps only its first `keep_bytes`
  /// bytes, as if the crash interrupted the force mid-sector.
  Status TearTailForTest(size_t keep_bytes);

  /// Encoded size of one record (lets tests iterate byte offsets).
  StatusOr<size_t> RecordSizeForTest(Lsn lsn) const;

 private:
  Lsn AppendEncoded(const LogRecord& record);

  SiteId site_;
  std::vector<std::string> encoded_;
  std::map<ItemId, ImageEntry> image_;
  core::BootRule boot_rule_;
  uint64_t checkpoint_upto_ = 0;
  uint64_t incarnation_ = 0;
  uint64_t forces_ = 0;
  uint64_t appends_ = 0;
  uint64_t log_bytes_ = 0;
  uint64_t durable_size_ = 0;
  uint64_t durable_bytes_ = 0;
  uint64_t last_group_records_ = 0;
  uint64_t last_group_bytes_ = 0;
  uint64_t max_group_records_ = 0;
  uint64_t max_group_bytes_ = 0;
  std::function<void(Lsn, const LogRecord&)> post_append_hook_;
};

}  // namespace dvp::wal
