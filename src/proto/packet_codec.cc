#include "proto/packet_codec.h"

#include <limits>
#include <utility>

#include "proto/wire.h"
#include "wal/encoding.h"

namespace dvp::proto {

namespace {

// Envelope kind bytes. Frozen: the UDP conduit speaks this across address
// spaces, so renumbering is a wire break.
constexpr uint8_t kKindRequest = 1;
constexpr uint8_t kKindVmTransfer = 2;
constexpr uint8_t kKindVmAck = 3;
constexpr uint8_t kKindVmClosure = 4;
constexpr uint8_t kKindCcNack = 5;
constexpr uint8_t kKindSurplusNack = 6;
constexpr uint8_t kKindSnapshotReq = 7;
constexpr uint8_t kKindSnapshotReply = 8;

void PutBool(std::string* dst, bool v) {
  dst->push_back(v ? '\x01' : '\x00');
}

bool GetBool(wal::Decoder* dec, bool* v) {
  uint64_t raw = 0;
  if (!dec->GetVarint64(&raw) || raw > 1) return false;
  *v = raw != 0;
  return true;
}

bool GetU32(wal::Decoder* dec, uint32_t* v) {
  uint64_t raw = 0;
  if (!dec->GetVarint64(&raw) || raw > std::numeric_limits<uint32_t>::max()) {
    return false;
  }
  *v = static_cast<uint32_t>(raw);
  return true;
}

// Reads one id. A value wider than the id type (a site id of 2^32, say) is
// corruption, never narrowed onto another id.
template <typename Id>
bool GetId(wal::Decoder* dec, Id* id) {
  typename Id::underlying_type raw = 0;
  if constexpr (sizeof(raw) == sizeof(uint32_t)) {
    if (!GetU32(dec, &raw)) return false;
  } else {
    if (!dec->GetVarint64(&raw)) return false;
  }
  *id = Id(raw);
  return true;
}

void EncodeRequest(std::string* body, const RequestMsg& m) {
  wal::PutVarint64(body, m.txn.value());
  wal::PutVarint64(body, m.ts_packed);
  wal::PutVarint64(body, m.origin.value());
  wal::PutVarint64(body, m.round);
  uint8_t flags = (m.want_surplus_nack ? 1 : 0) | (m.atomic_set ? 2 : 0);
  body->push_back(static_cast<char>(flags));
  wal::PutVarint64(body, m.parts.size());
  for (const RequestPart& p : m.parts) {
    wal::PutVarint64(body, p.item.value());
    wal::PutVarsint64(body, p.amount);
    PutBool(body, p.read_all);
  }
}

StatusOr<net::EnvelopePtr> DecodeRequest(wal::Decoder& dec) {
  auto m = net::MakeEnvelope<RequestMsg>();
  uint64_t flags = 0, n = 0;
  if (!GetId(&dec, &m->txn) || !dec.GetVarint64(&m->ts_packed) ||
      !GetId(&dec, &m->origin) || !GetU32(&dec, &m->round) ||
      !dec.GetVarint64(&flags) || flags > 3 || !dec.GetVarint64(&n)) {
    return Status::Corruption("request: truncated header");
  }
  if (n > dec.remaining()) {
    return Status::Corruption("request: part count exceeds frame");
  }
  m->want_surplus_nack = (flags & 1) != 0;
  m->atomic_set = (flags & 2) != 0;
  m->parts.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    RequestPart p;
    if (!GetId(&dec, &p.item) || !dec.GetVarsint64(&p.amount) ||
        !GetBool(&dec, &p.read_all)) {
      return Status::Corruption("request: truncated part");
    }
    m->parts.push_back(p);
  }
  return net::EnvelopePtr(std::move(m));
}

void EncodeVmTransfer(std::string* body, const VmTransferMsg& m) {
  wal::PutVarint64(body, m.vm.value());
  wal::PutVarint64(body, m.src.value());
  wal::PutVarint64(body, m.item.value());
  wal::PutVarsint64(body, m.amount);
  wal::PutVarint64(body, m.for_txn.value());
  wal::PutVarint64(body, m.ts_packed);
  wal::PutVarint64(body, m.closed_below);
  PutBool(body, m.is_read_reply);
  wal::PutVarint64(body, m.round);
  wal::PutVarint64(body, m.accept_count);
  wal::PutVarint64(body, m.create_count);
}

StatusOr<net::EnvelopePtr> DecodeVmTransfer(wal::Decoder& dec) {
  auto m = net::MakeEnvelope<VmTransferMsg>();
  if (!GetId(&dec, &m->vm) || !GetId(&dec, &m->src) ||
      !GetId(&dec, &m->item) || !dec.GetVarsint64(&m->amount) ||
      !GetId(&dec, &m->for_txn) || !dec.GetVarint64(&m->ts_packed) ||
      !dec.GetVarint64(&m->closed_below) ||
      !GetBool(&dec, &m->is_read_reply) || !GetU32(&dec, &m->round) ||
      !dec.GetVarint64(&m->accept_count) ||
      !dec.GetVarint64(&m->create_count)) {
    return Status::Corruption("vm transfer: truncated");
  }
  return net::EnvelopePtr(std::move(m));
}

void EncodeVmAck(std::string* body, const VmAckMsg& m) {
  wal::PutVarint64(body, m.vm.value());
  wal::PutVarint64(body, m.from.value());
  wal::PutVarint64(body, m.ts_packed);
}

StatusOr<net::EnvelopePtr> DecodeVmAck(wal::Decoder& dec) {
  auto m = net::MakeEnvelope<VmAckMsg>();
  if (!GetId(&dec, &m->vm) || !GetId(&dec, &m->from) ||
      !dec.GetVarint64(&m->ts_packed)) {
    return Status::Corruption("vm ack: truncated");
  }
  return net::EnvelopePtr(std::move(m));
}

void EncodeVmClosure(std::string* body, const VmClosureMsg& m) {
  wal::PutVarint64(body, m.src.value());
  wal::PutVarint64(body, m.closed_below);
}

StatusOr<net::EnvelopePtr> DecodeVmClosure(wal::Decoder& dec) {
  auto m = net::MakeEnvelope<VmClosureMsg>();
  if (!GetId(&dec, &m->src) || !dec.GetVarint64(&m->closed_below)) {
    return Status::Corruption("vm closure: truncated");
  }
  return net::EnvelopePtr(std::move(m));
}

void EncodeCcNack(std::string* body, const CcNackMsg& m) {
  wal::PutVarint64(body, m.from.value());
  wal::PutVarint64(body, m.ts_packed);
}

StatusOr<net::EnvelopePtr> DecodeCcNack(wal::Decoder& dec) {
  auto m = net::MakeEnvelope<CcNackMsg>();
  if (!GetId(&dec, &m->from) || !dec.GetVarint64(&m->ts_packed)) {
    return Status::Corruption("cc nack: truncated");
  }
  return net::EnvelopePtr(std::move(m));
}

void EncodeSurplusNack(std::string* body, const SurplusNackMsg& m) {
  wal::PutVarint64(body, m.from.value());
  wal::PutVarint64(body, m.item.value());
  wal::PutVarint64(body, m.ts_packed);
}

StatusOr<net::EnvelopePtr> DecodeSurplusNack(wal::Decoder& dec) {
  auto m = net::MakeEnvelope<SurplusNackMsg>();
  if (!GetId(&dec, &m->from) || !GetId(&dec, &m->item) ||
      !dec.GetVarint64(&m->ts_packed)) {
    return Status::Corruption("surplus nack: truncated");
  }
  return net::EnvelopePtr(std::move(m));
}

void EncodeSnapshotReq(std::string* body, const SnapshotReqMsg& m) {
  wal::PutVarint64(body, m.txn.value());
  wal::PutVarint64(body, m.ts_packed);
  wal::PutVarint64(body, m.origin.value());
  wal::PutVarint64(body, m.round);
  wal::PutVarint64(body, m.items.size());
  for (ItemId item : m.items) wal::PutVarint64(body, item.value());
}

StatusOr<net::EnvelopePtr> DecodeSnapshotReq(wal::Decoder& dec) {
  auto m = net::MakeEnvelope<SnapshotReqMsg>();
  uint64_t n = 0;
  if (!GetId(&dec, &m->txn) || !dec.GetVarint64(&m->ts_packed) ||
      !GetId(&dec, &m->origin) || !GetU32(&dec, &m->round) ||
      !dec.GetVarint64(&n)) {
    return Status::Corruption("snapshot request: truncated header");
  }
  // An item id per remaining byte at minimum: a forged huge count must not
  // drive a huge allocation before the per-item reads fail.
  if (n > dec.remaining()) {
    return Status::Corruption("snapshot request: item count exceeds frame");
  }
  m->items.resize(n);
  for (ItemId& item : m->items) {
    if (!GetId(&dec, &item)) {
      return Status::Corruption("snapshot request: truncated item list");
    }
  }
  return net::EnvelopePtr(std::move(m));
}

void EncodeSnapshotReply(std::string* body, const SnapshotReplyMsg& m) {
  wal::PutVarint64(body, m.txn.value());
  wal::PutVarint64(body, m.from.value());
  wal::PutVarint64(body, m.round);
  wal::PutVarint64(body, m.ts_packed);
  wal::PutVarint64(body, m.entries.size());
  for (const SnapshotEntry& e : m.entries) {
    wal::PutVarint64(body, e.item.value());
    wal::PutVarsint64(body, e.fragment);
    wal::PutVarint64(body, e.frag_ts_packed);
    wal::PutVarint64(body, e.created_count);
    wal::PutVarsint64(body, e.created_value);
    wal::PutVarint64(body, e.accepted_count);
    wal::PutVarsint64(body, e.accepted_value);
    wal::PutVarint64(body, e.closed_below);
  }
}

StatusOr<net::EnvelopePtr> DecodeSnapshotReply(wal::Decoder& dec) {
  auto m = net::MakeEnvelope<SnapshotReplyMsg>();
  uint64_t n = 0;
  if (!GetId(&dec, &m->txn) || !GetId(&dec, &m->from) ||
      !GetU32(&dec, &m->round) || !dec.GetVarint64(&m->ts_packed) ||
      !dec.GetVarint64(&n)) {
    return Status::Corruption("snapshot reply: truncated header");
  }
  if (n > dec.remaining()) {
    return Status::Corruption("snapshot reply: entry count exceeds frame");
  }
  m->entries.resize(n);
  for (SnapshotEntry& e : m->entries) {
    if (!GetId(&dec, &e.item) || !dec.GetVarsint64(&e.fragment) ||
        !dec.GetVarint64(&e.frag_ts_packed) ||
        !dec.GetVarint64(&e.created_count) ||
        !dec.GetVarsint64(&e.created_value) ||
        !dec.GetVarint64(&e.accepted_count) ||
        !dec.GetVarsint64(&e.accepted_value) ||
        !dec.GetVarint64(&e.closed_below)) {
      return Status::Corruption("snapshot reply: truncated entry");
    }
  }
  return net::EnvelopePtr(std::move(m));
}

// Overwrites 4 bytes at `pos` with the same little-endian layout as
// wal::PutFixed32 — used to patch the CRC placeholder once the body that
// follows it has been appended in place.
void PatchFixed32(std::string* s, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*s)[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Length-prefixed envelope blob via the reusable scratch buffer (cleared, not
// shrunk, so its capacity amortizes to zero allocations).
void AppendEnvelopeBlob(const net::EnvelopePtr& env, std::string* out,
                        std::string* scratch) {
  scratch->clear();
  if (env) EncodeEnvelopeTo(*env, scratch);
  wal::PutLengthPrefixed(out, *scratch);
}

// The kind byte of a codec-known envelope; 0 for any other type.
uint8_t KindOf(const net::Envelope& env) {
  std::string_view tag = env.Tag();
  if (tag == "Request") return kKindRequest;
  if (tag == "VmTransfer") return kKindVmTransfer;
  if (tag == "VmAck") return kKindVmAck;
  if (tag == "VmClosure") return kKindVmClosure;
  if (tag == "CcNack") return kKindCcNack;
  if (tag == "SurplusNack") return kKindSurplusNack;
  if (tag == "SnapshotReq") return kKindSnapshotReq;
  if (tag == "SnapshotReply") return kKindSnapshotReply;
  return 0;
}

// The one site id each kind names: the requester, the Vm's or closure's
// sender, or the acking, refusing or replying site.
SiteId NamedSite(const net::Envelope& env) {
  switch (KindOf(env)) {
    case kKindRequest:
      return static_cast<const RequestMsg&>(env).origin;
    case kKindVmTransfer:
      return static_cast<const VmTransferMsg&>(env).src;
    case kKindVmAck:
      return static_cast<const VmAckMsg&>(env).from;
    case kKindVmClosure:
      return static_cast<const VmClosureMsg&>(env).src;
    case kKindCcNack:
      return static_cast<const CcNackMsg&>(env).from;
    case kKindSurplusNack:
      return static_cast<const SurplusNackMsg&>(env).from;
    case kKindSnapshotReq:
      return static_cast<const SnapshotReqMsg&>(env).origin;
    case kKindSnapshotReply:
      return static_cast<const SnapshotReplyMsg&>(env).from;
  }
  return SiteId::Invalid();
}

}  // namespace

size_t Message::EncodedSize() const {
  // One scratch buffer per thread: its capacity warms up once, and loop
  // threads of the real runtime may price envelopes concurrently.
  thread_local std::string scratch;
  scratch.clear();
  EncodeEnvelopeTo(*this, &scratch);
  return scratch.size();
}

std::string EncodeEnvelope(const net::Envelope& env) {
  std::string blob;
  EncodeEnvelopeTo(env, &blob);
  return blob;
}

void EncodeEnvelopeTo(const net::Envelope& env, std::string* out) {
  // Kind byte, causal trace id (every envelope carries one), then the
  // kind-specific fields.
  const uint8_t kind = KindOf(env);
  if (kind == 0) return;  // unknown envelope type: nothing on the wire
  out->push_back(static_cast<char>(kind));
  wal::PutVarint64(out, env.trace_id);
  switch (kind) {
    case kKindRequest:
      EncodeRequest(out, static_cast<const RequestMsg&>(env));
      break;
    case kKindVmTransfer:
      EncodeVmTransfer(out, static_cast<const VmTransferMsg&>(env));
      break;
    case kKindVmAck:
      EncodeVmAck(out, static_cast<const VmAckMsg&>(env));
      break;
    case kKindVmClosure:
      EncodeVmClosure(out, static_cast<const VmClosureMsg&>(env));
      break;
    case kKindCcNack:
      EncodeCcNack(out, static_cast<const CcNackMsg&>(env));
      break;
    case kKindSurplusNack:
      EncodeSurplusNack(out, static_cast<const SurplusNackMsg&>(env));
      break;
    case kKindSnapshotReq:
      EncodeSnapshotReq(out, static_cast<const SnapshotReqMsg&>(env));
      break;
    case kKindSnapshotReply:
      EncodeSnapshotReply(out, static_cast<const SnapshotReplyMsg&>(env));
      break;
  }
}

StatusOr<net::EnvelopePtr> DecodeEnvelope(std::string_view blob) {
  if (blob.empty()) return Status::Corruption("envelope: empty blob");
  uint8_t kind = static_cast<uint8_t>(blob[0]);
  wal::Decoder dec(blob.substr(1));
  uint64_t trace_id = 0;
  if (!dec.GetVarint64(&trace_id)) {
    return Status::Corruption("envelope: truncated trace id");
  }
  StatusOr<net::EnvelopePtr> result =
      Status::Corruption("envelope: unknown kind");
  switch (kind) {
    case kKindRequest:
      result = DecodeRequest(dec);
      break;
    case kKindVmTransfer:
      result = DecodeVmTransfer(dec);
      break;
    case kKindVmAck:
      result = DecodeVmAck(dec);
      break;
    case kKindVmClosure:
      result = DecodeVmClosure(dec);
      break;
    case kKindCcNack:
      result = DecodeCcNack(dec);
      break;
    case kKindSurplusNack:
      result = DecodeSurplusNack(dec);
      break;
    case kKindSnapshotReq:
      result = DecodeSnapshotReq(dec);
      break;
    case kKindSnapshotReply:
      result = DecodeSnapshotReply(dec);
      break;
  }
  if (!result.ok()) return result;
  if (!dec.empty()) return Status::Corruption("envelope: trailing bytes");
  // Safe: the envelope was created mutable moments ago; sharing begins here.
  const_cast<net::Envelope*>(result->get())->trace_id = trace_id;
  return result;
}

bool AddressedWithin(const net::Packet& p, SiteId receiver,
                     uint32_t num_sites) {
  auto in_cluster = [num_sites](SiteId s) { return s.value() < num_sites; };
  if (p.dst != receiver || !in_cluster(p.src)) return false;
  if (p.payload && !in_cluster(NamedSite(*p.payload))) return false;
  for (const net::SubMsg& sub : p.extra) {
    if (sub.payload && !in_cluster(NamedSite(*sub.payload))) return false;
  }
  return true;
}

std::string EncodePacket(const net::Packet& p) {
  std::string out, scratch;
  EncodePacketTo(p, &out, &scratch);
  return out;
}

void EncodePacketTo(const net::Packet& p, std::string* out,
                    std::string* scratch) {
  // CRC placeholder first, body appended in place behind it, checksum patched
  // at the end — one pass, no body copy (EncodePacket used to build the body
  // in a temporary and prepend the checksum).
  const size_t crc_pos = out->size();
  out->append(4, '\0');
  const size_t body_pos = out->size();
  wal::PutVarint64(out, p.src.value());
  wal::PutVarint64(out, p.dst.value());
  out->push_back(static_cast<char>(p.reliability));
  wal::PutVarint64(out, p.epoch);
  wal::PutVarint64(out, p.seq.value());
  wal::PutVarint64(out, p.seq_base);
  PutBool(out, p.has_ack);
  if (p.has_ack) {
    wal::PutVarint64(out, p.ack_epoch);
    wal::PutVarint64(out, p.ack_cum);
  }
  wal::PutVarint64(out, p.trace_id);
  wal::PutVarint64(out, p.hints.size());
  for (const net::PlacementHint& h : p.hints) {
    wal::PutVarint64(out, h.item.value());
    wal::PutVarsint64(out, h.surplus);
    wal::PutVarsint64(out, h.demand);
    wal::PutVarint64(out, h.stamp);
  }
  AppendEnvelopeBlob(p.payload, out, scratch);
  wal::PutVarint64(out, p.extra.size());
  for (const net::SubMsg& sub : p.extra) {
    out->push_back(static_cast<char>(sub.reliability));
    wal::PutVarint64(out, sub.seq.value());
    AppendEnvelopeBlob(sub.payload, out, scratch);
  }
  PatchFixed32(out, crc_pos,
               wal::Crc32c(std::string_view(*out).substr(body_pos)));
}

StatusOr<net::Packet> DecodePacket(std::string_view frame) {
  wal::Decoder crc_dec(frame);
  uint32_t crc = 0;
  if (!crc_dec.GetFixed32(&crc)) {
    return Status::Corruption("packet: too short for checksum");
  }
  std::string_view body = frame.substr(4);
  if (wal::Crc32c(body) != crc) {
    return Status::Corruption("packet: checksum mismatch");
  }

  wal::Decoder dec(body);
  net::Packet p;
  uint64_t rel = 0, seq = 0;
  if (!GetId(&dec, &p.src) || !GetId(&dec, &p.dst)) {
    return Status::Corruption("packet: truncated addressing");
  }
  if (!dec.GetVarint64(&rel) || rel > 1) {
    return Status::Corruption("packet: bad reliability class");
  }
  if (!dec.GetVarint64(&p.epoch) || !dec.GetVarint64(&seq) ||
      !dec.GetVarint64(&p.seq_base) || !GetBool(&dec, &p.has_ack)) {
    return Status::Corruption("packet: truncated channel state");
  }
  if (p.has_ack &&
      (!dec.GetVarint64(&p.ack_epoch) || !dec.GetVarint64(&p.ack_cum))) {
    return Status::Corruption("packet: truncated ack");
  }
  uint64_t num_hints = 0;
  if (!dec.GetVarint64(&p.trace_id) || !dec.GetVarint64(&num_hints)) {
    return Status::Corruption("packet: truncated trace/hints header");
  }
  if (num_hints > dec.remaining()) {
    return Status::Corruption("packet: hint count exceeds frame");
  }
  p.reliability = static_cast<net::Reliability>(rel);
  p.seq = MsgSeq(seq);
  p.hints.reserve(num_hints);
  for (uint64_t i = 0; i < num_hints; ++i) {
    net::PlacementHint h;
    if (!GetId(&dec, &h.item) || !dec.GetVarsint64(&h.surplus) ||
        !dec.GetVarsint64(&h.demand) || !dec.GetVarint64(&h.stamp)) {
      return Status::Corruption("packet: truncated hint");
    }
    p.hints.push_back(h);
  }
  std::string_view payload_blob;
  if (!dec.GetLengthPrefixed(&payload_blob)) {
    return Status::Corruption("packet: truncated payload");
  }
  if (!payload_blob.empty()) {
    StatusOr<net::EnvelopePtr> payload = DecodeEnvelope(payload_blob);
    if (!payload.ok()) return payload.status();
    p.payload = std::move(*payload);
  }
  uint64_t num_extra = 0;
  if (!dec.GetVarint64(&num_extra)) {
    return Status::Corruption("packet: truncated rider count");
  }
  if (num_extra > dec.remaining()) {
    return Status::Corruption("packet: rider count exceeds frame");
  }
  p.extra.reserve(num_extra);
  for (uint64_t i = 0; i < num_extra; ++i) {
    net::SubMsg sub;
    uint64_t sub_rel = 0, sub_seq = 0;
    if (!dec.GetVarint64(&sub_rel) || sub_rel > 1 ||
        !dec.GetVarint64(&sub_seq)) {
      return Status::Corruption("packet: truncated rider header");
    }
    std::string_view sub_blob;
    if (!dec.GetLengthPrefixed(&sub_blob) || sub_blob.empty()) {
      return Status::Corruption("packet: truncated rider payload");
    }
    StatusOr<net::EnvelopePtr> sub_payload = DecodeEnvelope(sub_blob);
    if (!sub_payload.ok()) return sub_payload.status();
    sub.reliability = static_cast<net::Reliability>(sub_rel);
    sub.seq = MsgSeq(sub_seq);
    sub.payload = std::move(*sub_payload);
    p.extra.push_back(std::move(sub));
  }
  if (!dec.empty()) return Status::Corruption("packet: trailing bytes");
  return p;
}

}  // namespace dvp::proto
