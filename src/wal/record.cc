#include "wal/record.h"

#include <sstream>

namespace dvp::wal {

namespace {

enum RecordType : uint8_t {
  kTxnCommit = 1,
  // 2 is retired (a per-commit "applied" marker nothing read); the other
  // tags keep their values so every record encodes as before.
  kVmCreate = 3,
  kVmAccept = 4,
  kVmAcked = 5,
  kRecovery = 6,
  kCheckpoint = 7,
  kPrepare = 8,
  kDecision = 9,
};

void EncodeFragmentWrite(std::string* out, const FragmentWrite& w) {
  PutVarint64(out, w.item.value());
  PutVarsint64(out, w.post_value);
  PutVarsint64(out, w.delta);
  PutVarint64(out, w.post_ts_packed);
}

bool DecodeFragmentWrite(Decoder* dec, FragmentWrite* w) {
  uint64_t item;
  if (!dec->GetVarint64(&item)) return false;
  w->item = ItemId(static_cast<uint32_t>(item));
  return dec->GetVarsint64(&w->post_value) && dec->GetVarsint64(&w->delta) &&
         dec->GetVarint64(&w->post_ts_packed);
}

struct Encoder {
  std::string* out;

  void operator()(const TxnCommitRec& r) {
    out->push_back(static_cast<char>(kTxnCommit));
    PutVarint64(out, r.txn.value());
    PutVarint64(out, r.ts_packed);
    PutVarint64(out, r.writes.size());
    for (const auto& w : r.writes) EncodeFragmentWrite(out, w);
    // Optional trailing flag: only atomic-set records carry it, keeping the
    // legacy encoding byte-identical for everything else.
    if (r.atomic_set) PutVarint64(out, 1);
  }
  void operator()(const VmCreateRec& r) {
    out->push_back(static_cast<char>(kVmCreate));
    PutVarint64(out, r.vm.value());
    PutVarint64(out, r.dst.value());
    PutVarint64(out, r.item.value());
    PutVarsint64(out, r.amount);
    PutVarint64(out, r.for_txn.value());
    EncodeFragmentWrite(out, r.write);
  }
  void operator()(const VmAcceptRec& r) {
    out->push_back(static_cast<char>(kVmAccept));
    PutVarint64(out, r.vm.value());
    PutVarint64(out, r.src.value());
    PutVarint64(out, r.item.value());
    PutVarsint64(out, r.amount);
    PutVarint64(out, r.for_txn.value());
    EncodeFragmentWrite(out, r.write);
  }
  void operator()(const VmAckedRec& r) {
    out->push_back(static_cast<char>(kVmAcked));
    PutVarint64(out, r.vm.value());
  }
  void operator()(const RecoveryRec& r) {
    out->push_back(static_cast<char>(kRecovery));
    PutVarint64(out, r.incarnation);
    PutVarint64(out, r.clock_counter);
  }
  void operator()(const CheckpointRec&) {
    out->push_back(static_cast<char>(kCheckpoint));
  }
  void operator()(const PrepareRec& r) {
    out->push_back(static_cast<char>(kPrepare));
    PutVarint64(out, r.txn.value());
    PutVarint64(out, r.coordinator.value());
    PutVarint64(out, r.writes.size());
    for (const auto& w : r.writes) EncodeFragmentWrite(out, w);
  }
  void operator()(const DecisionRec& r) {
    out->push_back(static_cast<char>(kDecision));
    PutVarint64(out, r.txn.value());
    out->push_back(r.committed ? 1 : 0);
  }
};

}  // namespace

std::string EncodeRecord(const LogRecord& record) {
  std::string out;
  EncodeRecordTo(record, &out);
  return out;
}

void EncodeRecordTo(const LogRecord& record, std::string* out) {
  const size_t crc_at = out->size();
  PutFixed32(out, 0);  // checksum slot, patched below
  std::visit(Encoder{out}, record);
  std::string_view body(out->data() + crc_at + 4, out->size() - crc_at - 4);
  uint32_t crc = Crc32c(body);
  (*out)[crc_at + 0] = static_cast<char>(crc & 0xff);
  (*out)[crc_at + 1] = static_cast<char>((crc >> 8) & 0xff);
  (*out)[crc_at + 2] = static_cast<char>((crc >> 16) & 0xff);
  (*out)[crc_at + 3] = static_cast<char>((crc >> 24) & 0xff);
}

StatusOr<LogRecord> DecodeRecord(std::string_view data) {
  Decoder dec(data);
  uint32_t crc;
  if (!dec.GetFixed32(&crc)) {
    return Status::Corruption("record too short for checksum");
  }
  std::string_view body = data.substr(4);
  if (Crc32c(body) != crc) {
    return Status::Corruption("record checksum mismatch");
  }
  if (body.empty()) return Status::Corruption("empty record body");
  uint8_t type = static_cast<uint8_t>(body[0]);
  Decoder d(body.substr(1));
  auto bad = [] { return Status::Corruption("truncated record body"); };

  switch (type) {
    case kTxnCommit: {
      TxnCommitRec r;
      uint64_t txn, n;
      if (!d.GetVarint64(&txn) || !d.GetVarint64(&r.ts_packed) ||
          !d.GetVarint64(&n)) {
        return bad();
      }
      r.txn = TxnId(txn);
      r.writes.resize(n);
      for (auto& w : r.writes) {
        if (!DecodeFragmentWrite(&d, &w)) return bad();
      }
      // Optional atomic-set flag. Anything other than exactly one trailing
      // varint with value 1 — a zero flag, garbage after it — is a malformed
      // frame and is rejected, never silently accepted.
      if (!d.empty()) {
        uint64_t flag;
        if (!d.GetVarint64(&flag) || flag != 1 || !d.empty()) {
          return Status::Corruption("bad atomic-set trailer");
        }
        r.atomic_set = true;
      }
      return LogRecord(std::move(r));
    }
    case kVmCreate: {
      VmCreateRec r;
      uint64_t vm, dst, item, txn;
      if (!d.GetVarint64(&vm) || !d.GetVarint64(&dst) ||
          !d.GetVarint64(&item) || !d.GetVarsint64(&r.amount) ||
          !d.GetVarint64(&txn) || !DecodeFragmentWrite(&d, &r.write)) {
        return bad();
      }
      r.vm = VmId(vm);
      r.dst = SiteId(static_cast<uint32_t>(dst));
      r.item = ItemId(static_cast<uint32_t>(item));
      r.for_txn = TxnId(txn);
      return LogRecord(std::move(r));
    }
    case kVmAccept: {
      VmAcceptRec r;
      uint64_t vm, src, item, txn;
      if (!d.GetVarint64(&vm) || !d.GetVarint64(&src) ||
          !d.GetVarint64(&item) || !d.GetVarsint64(&r.amount) ||
          !d.GetVarint64(&txn) || !DecodeFragmentWrite(&d, &r.write)) {
        return bad();
      }
      r.vm = VmId(vm);
      r.src = SiteId(static_cast<uint32_t>(src));
      r.item = ItemId(static_cast<uint32_t>(item));
      r.for_txn = TxnId(txn);
      return LogRecord(std::move(r));
    }
    case kVmAcked: {
      uint64_t vm;
      if (!d.GetVarint64(&vm)) return bad();
      return LogRecord(VmAckedRec{VmId(vm)});
    }
    case kRecovery: {
      RecoveryRec r;
      if (!d.GetVarint64(&r.incarnation) || !d.GetVarint64(&r.clock_counter)) {
        return bad();
      }
      return LogRecord(r);
    }
    case kCheckpoint:
      return LogRecord(CheckpointRec{});
    case kPrepare: {
      PrepareRec r;
      uint64_t txn, coord, n;
      if (!d.GetVarint64(&txn) || !d.GetVarint64(&coord) ||
          !d.GetVarint64(&n)) {
        return bad();
      }
      r.txn = TxnId(txn);
      r.coordinator = SiteId(static_cast<uint32_t>(coord));
      r.writes.resize(n);
      for (auto& w : r.writes) {
        if (!DecodeFragmentWrite(&d, &w)) return bad();
      }
      return LogRecord(std::move(r));
    }
    case kDecision: {
      // The flag byte (0/1) is also a valid one-byte varint.
      uint64_t txn, flag;
      if (!d.GetVarint64(&txn) || !d.GetVarint64(&flag)) return bad();
      DecisionRec r;
      r.txn = TxnId(txn);
      r.committed = flag != 0;
      return LogRecord(r);
    }
    default:
      return Status::Corruption("unknown record type " +
                                std::to_string(int(type)));
  }
}

namespace {
struct Printer {
  std::ostringstream& os;
  void operator()(const TxnCommitRec& r) {
    os << "TxnCommit{txn=" << r.txn.value() << " writes=" << r.writes.size()
       << (r.atomic_set ? " atomic}" : "}");
  }
  void operator()(const VmCreateRec& r) {
    os << "VmCreate{vm=" << r.vm.value() << " dst=" << r.dst.value()
       << " item=" << r.item.value() << " amount=" << r.amount << "}";
  }
  void operator()(const VmAcceptRec& r) {
    os << "VmAccept{vm=" << r.vm.value() << " src=" << r.src.value()
       << " item=" << r.item.value() << " amount=" << r.amount << "}";
  }
  void operator()(const VmAckedRec& r) { os << "VmAcked{vm=" << r.vm.value() << "}"; }
  void operator()(const PrepareRec& r) {
    os << "Prepare{txn=" << r.txn.value() << " coord=" << r.coordinator.value()
       << " writes=" << r.writes.size() << "}";
  }
  void operator()(const DecisionRec& r) {
    os << "Decision{txn=" << r.txn.value()
       << (r.committed ? " commit}" : " abort}");
  }
  void operator()(const RecoveryRec& r) {
    os << "Recovery{incarnation=" << r.incarnation << "}";
  }
  void operator()(const CheckpointRec&) { os << "Checkpoint{}"; }
};
}  // namespace

std::string RecordToString(const LogRecord& record) {
  std::ostringstream os;
  std::visit(Printer{os}, record);
  return os.str();
}

}  // namespace dvp::wal
