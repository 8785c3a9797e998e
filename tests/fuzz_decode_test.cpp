// Adversarial-input tests: the WAL decoder and the encoding primitives must
// never crash, hang, or mis-accept on arbitrary byte strings (a corrupted
// disk must surface as Status::Corruption, not undefined behaviour).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "proto/packet_codec.h"
#include "proto/wire.h"
#include "wal/record.h"

namespace dvp::wal {
namespace {

std::string RandomBytes(Rng& rng, size_t len) {
  std::string out(len, '\0');
  for (char& c : out) c = static_cast<char>(rng.NextBounded(256));
  return out;
}

class DecoderFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecoderFuzzTest, RandomBytesNeverCrashDecodeRecord) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 2'000; ++trial) {
    size_t len = rng.NextBounded(64);
    std::string bytes = RandomBytes(rng, len);
    auto decoded = DecodeRecord(bytes);
    // Random bytes passing a CRC32 check is a ~2^-32 event; over the whole
    // suite we accept it but record types must still parse fully.
    if (decoded.ok()) {
      EXPECT_FALSE(RecordToString(decoded.value()).empty());
    } else {
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST_P(DecoderFuzzTest, TruncationsOfValidRecordsAreRejected) {
  Rng rng(GetParam() + 99);
  VmCreateRec rec;
  rec.vm = VmId(rng.NextU64() >> 1);
  rec.dst = SiteId(uint32_t(rng.NextBounded(1000)));
  rec.item = ItemId(uint32_t(rng.NextBounded(1000)));
  rec.amount = rng.NextInt(-1'000'000, 1'000'000);
  rec.for_txn = TxnId(rng.NextU64() >> 1);
  rec.write = FragmentWrite{rec.item, rng.NextInt(-100, 100),
                            rng.NextInt(-100, 100), rng.NextU64() >> 1};
  std::string encoded = EncodeRecord(LogRecord(rec));
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    auto decoded = DecodeRecord(encoded.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "accepted a record truncated to " << cut;
  }
}

TEST_P(DecoderFuzzTest, RandomRecordsRoundTrip) {
  Rng rng(GetParam() + 777);
  for (int trial = 0; trial < 500; ++trial) {
    TxnCommitRec rec;
    rec.txn = TxnId(rng.NextU64() >> 1);
    rec.ts_packed = rng.NextU64() >> 1;
    size_t n = rng.NextBounded(6);
    for (size_t i = 0; i < n; ++i) {
      rec.writes.push_back(FragmentWrite{
          ItemId(uint32_t(rng.NextBounded(1 << 20))),
          rng.NextInt(std::numeric_limits<int32_t>::min(),
                      std::numeric_limits<int32_t>::max()),
          rng.NextInt(-1'000'000, 1'000'000), rng.NextU64() >> 1});
    }
    std::string encoded = EncodeRecord(LogRecord(rec));
    auto decoded = DecodeRecord(encoded);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(std::get<TxnCommitRec>(decoded.value()), rec);
  }
}

TEST_P(DecoderFuzzTest, EncodingPrimitivesFuzzedCursor) {
  Rng rng(GetParam() + 31337);
  for (int trial = 0; trial < 2'000; ++trial) {
    std::string bytes = RandomBytes(rng, rng.NextBounded(32));
    Decoder dec(bytes);
    // Interleave random reads; must never read past the buffer.
    while (!dec.empty()) {
      switch (rng.NextBounded(5)) {
        case 0: {
          uint32_t v;
          if (!dec.GetFixed32(&v)) goto done;
          break;
        }
        case 1: {
          uint64_t v;
          if (!dec.GetFixed64(&v)) goto done;
          break;
        }
        case 2: {
          uint64_t v;
          if (!dec.GetVarint64(&v)) goto done;
          break;
        }
        case 3: {
          int64_t v;
          if (!dec.GetVarsint64(&v)) goto done;
          break;
        }
        case 4: {
          std::string_view s;
          if (!dec.GetLengthPrefixed(&s)) goto done;
          break;
        }
      }
    }
  done:;
  }
  SUCCEED();
}

TEST_P(DecoderFuzzTest, AtomicSetRecordsRoundTrip) {
  Rng rng(GetParam() + 4'242);
  for (int trial = 0; trial < 500; ++trial) {
    TxnCommitRec rec;
    rec.txn = TxnId(rng.NextU64() >> 1);
    rec.ts_packed = rng.NextU64() >> 1;
    size_t n = 2 + rng.NextBounded(4);
    for (size_t i = 0; i < n; ++i) {
      rec.writes.push_back(FragmentWrite{
          ItemId(uint32_t(rng.NextBounded(1 << 20))),
          rng.NextInt(-1'000'000, 1'000'000), rng.NextInt(-1'000, 1'000),
          rng.NextU64() >> 1});
    }
    rec.atomic_set = rng.NextBounded(2) == 1;
    auto decoded = DecodeRecord(EncodeRecord(LogRecord(rec)));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(std::get<TxnCommitRec>(decoded.value()), rec);
  }
}

// ---- Atomic-set trailer: malformed frames must be REJECTED, never UB ----------
//
// The trailer is one optional varint that must be exactly 1. These tests
// doctor the body and re-stamp a VALID checksum, so rejection has to come
// from content validation, not from the CRC.

std::string WithFreshCrc(const std::string& body) {
  std::string out;
  PutFixed32(&out, Crc32c(body));
  out += body;
  return out;
}

std::string CommitBody(uint64_t txn, uint64_t ts) {
  std::string body;
  body.push_back(1);  // RecordType kTxnCommit
  PutVarint64(&body, txn);
  PutVarint64(&body, ts);
  PutVarint64(&body, 0);  // no writes
  return body;
}

TEST(AtomicTrailerTest, AbsentTrailerDecodesAsLegacyRecord) {
  auto decoded = DecodeRecord(WithFreshCrc(CommitBody(9, 40)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(std::get<TxnCommitRec>(decoded.value()).atomic_set);
}

TEST(AtomicTrailerTest, FlagOneDecodesAsAtomicSet) {
  std::string body = CommitBody(9, 40);
  PutVarint64(&body, 1);
  auto decoded = DecodeRecord(WithFreshCrc(body));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::get<TxnCommitRec>(decoded.value()).atomic_set);
}

TEST(AtomicTrailerTest, ZeroFlagIsRejected) {
  // A writer never emits flag=0 (absence IS false); a zero here means the
  // frame was corrupted or forged, and accepting it would silently change
  // what future encodings of this record look like.
  std::string body = CommitBody(9, 40);
  PutVarint64(&body, 0);
  auto decoded = DecodeRecord(WithFreshCrc(body));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("atomic-set trailer"),
            std::string::npos);
}

TEST(AtomicTrailerTest, FlagValuesOtherThanOneAreRejected) {
  for (uint64_t flag : {2ull, 7ull, 1ull << 40}) {
    std::string body = CommitBody(9, 40);
    PutVarint64(&body, flag);
    auto decoded = DecodeRecord(WithFreshCrc(body));
    EXPECT_FALSE(decoded.ok()) << "accepted trailer flag " << flag;
  }
}

TEST(AtomicTrailerTest, GarbageAfterFlagIsRejected) {
  std::string body = CommitBody(9, 40);
  PutVarint64(&body, 1);
  body.push_back('\x07');  // trailing junk after a well-formed flag
  auto decoded = DecodeRecord(WithFreshCrc(body));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("atomic-set trailer"),
            std::string::npos);
}

TEST(AtomicTrailerTest, TruncationsOfAtomicRecordAreRejected) {
  TxnCommitRec rec;
  rec.txn = TxnId(55);
  rec.ts_packed = 1'234;
  rec.writes = {FragmentWrite{ItemId(1), 90, -10, 77},
                FragmentWrite{ItemId(2), 60, 10, 77}};
  rec.atomic_set = true;
  std::string encoded = EncodeRecord(LogRecord(rec));
  // Every proper prefix fails — including the one that drops only the
  // trailer byte, which the checksum catches before it could silently
  // decode as a legacy non-atomic record.
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    auto decoded = DecodeRecord(encoded.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "accepted a record truncated to " << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---- Snapshot messages in the packet codec: same adversarial treatment -------
//
// The snapshot request/reply are ordinary envelope kinds of the packet codec
// (kind bytes 7 and 8). Arbitrary bytes, truncations and checksum-valid
// doctored frames must all surface as kCorruption.

proto::SnapshotReqMsg RandomReq(Rng& rng) {
  proto::SnapshotReqMsg req;
  req.txn = TxnId(rng.NextU64() >> 1);
  req.ts_packed = rng.NextU64() >> 1;
  req.origin = SiteId(uint32_t(rng.NextBounded(1000)));
  req.round = uint32_t(rng.NextBounded(33));
  size_t n = rng.NextBounded(5);
  for (size_t i = 0; i < n; ++i) {
    req.items.push_back(ItemId(uint32_t(rng.NextBounded(1 << 20))));
  }
  return req;
}

proto::SnapshotReplyMsg RandomReply(Rng& rng) {
  proto::SnapshotReplyMsg reply;
  reply.txn = TxnId(rng.NextU64() >> 1);
  reply.from = SiteId(uint32_t(rng.NextBounded(1000)));
  reply.round = uint32_t(rng.NextBounded(33));
  reply.ts_packed = rng.NextU64() >> 1;
  size_t n = rng.NextBounded(4);
  for (size_t i = 0; i < n; ++i) {
    proto::SnapshotEntry e;
    e.item = ItemId(uint32_t(rng.NextBounded(1 << 20)));
    e.fragment = rng.NextInt(-1'000'000, 1'000'000);
    e.frag_ts_packed = rng.NextU64() >> 1;
    e.created_count = rng.NextBounded(1 << 20);
    e.created_value = rng.NextInt(-1'000'000, 1'000'000);
    e.accepted_count = rng.NextBounded(1 << 20);
    e.accepted_value = rng.NextInt(-1'000'000, 1'000'000);
    e.closed_below = rng.NextBounded(1 << 20);
    reply.entries.push_back(e);
  }
  return reply;
}

constexpr char kKindSnapshotReq = 7;
constexpr char kKindSnapshotReply = 8;

/// A whole packet frame (valid CRC) whose only payload is `blob`, spelled
/// out field by field so a test can plant a doctored envelope in it.
std::string FrameAround(const std::string& blob) {
  std::string body;
  PutVarint64(&body, 0);  // src
  PutVarint64(&body, 1);  // dst
  body.push_back(0);      // reliability: datagram
  PutVarint64(&body, 0);  // epoch
  PutVarint64(&body, 0);  // seq
  PutVarint64(&body, 0);  // seq_base
  PutVarint64(&body, 0);  // has_ack
  PutVarint64(&body, 0);  // trace id
  PutVarint64(&body, 0);  // hint count
  PutLengthPrefixed(&body, blob);
  PutVarint64(&body, 0);  // rider count
  return WithFreshCrc(body);
}

class SnapshotCodecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotCodecFuzzTest, RandomBytesNeverCrashEitherDecoder) {
  Rng rng(GetParam() + 808);
  for (int trial = 0; trial < 2'000; ++trial) {
    std::string bytes = RandomBytes(rng, rng.NextBounded(64));
    // Random bodies behind each snapshot kind byte reach its decoder.
    for (char kind : {kKindSnapshotReq, kKindSnapshotReply}) {
      auto decoded = proto::DecodeEnvelope(std::string(1, kind) + bytes);
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
      }
    }
  }
}

TEST_P(SnapshotCodecFuzzTest, RandomMessagesRoundTrip) {
  Rng rng(GetParam() + 909);
  for (int trial = 0; trial < 500; ++trial) {
    proto::SnapshotReqMsg req = RandomReq(rng);
    req.trace_id = rng.NextU64() >> 1;
    auto dreq = proto::DecodeEnvelope(proto::EncodeEnvelope(req));
    ASSERT_TRUE(dreq.ok()) << dreq.status().ToString();
    ASSERT_EQ((*dreq)->Tag(), "SnapshotReq");
    EXPECT_EQ(static_cast<const proto::SnapshotReqMsg&>(**dreq), req);
    EXPECT_EQ((*dreq)->trace_id, req.trace_id);
    proto::SnapshotReplyMsg reply = RandomReply(rng);
    reply.trace_id = rng.NextU64() >> 1;
    auto drep = proto::DecodeEnvelope(proto::EncodeEnvelope(reply));
    ASSERT_TRUE(drep.ok()) << drep.status().ToString();
    ASSERT_EQ((*drep)->Tag(), "SnapshotReply");
    EXPECT_EQ(static_cast<const proto::SnapshotReplyMsg&>(**drep), reply);
    EXPECT_EQ((*drep)->trace_id, reply.trace_id);
  }
}

TEST_P(SnapshotCodecFuzzTest, TruncationsOfValidFramesAreRejected) {
  Rng rng(GetParam() + 1'010);
  std::string req = proto::EncodeEnvelope(RandomReq(rng));
  for (size_t cut = 0; cut < req.size(); ++cut) {
    EXPECT_FALSE(proto::DecodeEnvelope(req.substr(0, cut)).ok())
        << "accepted a request truncated to " << cut;
    // (An empty blob is a frame with no payload, a valid pure ack.)
    EXPECT_TRUE(cut == 0 ||
                !proto::DecodePacket(FrameAround(req.substr(0, cut))).ok())
        << "accepted a frame around a request truncated to " << cut;
  }
  std::string reply = proto::EncodeEnvelope(RandomReply(rng));
  for (size_t cut = 0; cut < reply.size(); ++cut) {
    EXPECT_FALSE(proto::DecodeEnvelope(reply.substr(0, cut)).ok())
        << "accepted a reply truncated to " << cut;
    // (An empty blob is a frame with no payload, a valid pure ack.)
    EXPECT_TRUE(cut == 0 ||
                !proto::DecodePacket(FrameAround(reply.substr(0, cut))).ok())
        << "accepted a frame around a reply truncated to " << cut;
  }
}

TEST(SnapshotCodecTest, KindBytesAreNotInterchangeable) {
  // The kind byte alone tells the two apart, so a request's body behind the
  // reply kind (and the reverse) must fail to decode: a request's items are
  // too few varints for reply entries, and a reply's entries leave trailing
  // bytes or over-wide ids behind a request header.
  Rng rng(7);
  proto::SnapshotReqMsg req_msg = RandomReq(rng);
  req_msg.items.push_back(ItemId(5));
  std::string req = proto::EncodeEnvelope(req_msg);
  ASSERT_EQ(req[0], kKindSnapshotReq);
  req[0] = kKindSnapshotReply;
  EXPECT_FALSE(proto::DecodeEnvelope(req).ok());
  EXPECT_FALSE(proto::DecodePacket(FrameAround(req)).ok());

  proto::SnapshotReplyMsg reply_msg = RandomReply(rng);
  reply_msg.entries.push_back(proto::SnapshotEntry{ItemId(5), 10, 1, 0, 0,
                                                   0, 0, 0});
  std::string reply = proto::EncodeEnvelope(reply_msg);
  ASSERT_EQ(reply[0], kKindSnapshotReply);
  reply[0] = kKindSnapshotReq;
  EXPECT_FALSE(proto::DecodeEnvelope(reply).ok());
  EXPECT_FALSE(proto::DecodePacket(FrameAround(reply)).ok());
}

TEST(SnapshotCodecTest, TrailingJunkWithValidCrcIsRejected) {
  // The frame's checksum is valid over the junk: rejection has to come from
  // content validation, not the CRC.
  Rng rng(11);
  for (std::string blob :
       {proto::EncodeEnvelope(RandomReq(rng)), proto::EncodeEnvelope(RandomReply(rng))}) {
    blob.push_back('\x07');
    auto decoded = proto::DecodePacket(FrameAround(blob));
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().ToString().find("trailing bytes"),
              std::string::npos);
  }
}

TEST(SnapshotCodecTest, ForgedHugeCountIsRejectedWithoutAllocating) {
  // A count field claiming more entries (or items) than the frame has bytes
  // must be rejected up front (never trusted for an allocation).
  for (char kind : {kKindSnapshotReq, kKindSnapshotReply}) {
    std::string blob(1, kind);
    PutVarint64(&blob, 0);   // trace id
    PutVarint64(&blob, 9);   // txn
    PutVarint64(&blob, 1);   // req: ts / reply: from
    PutVarint64(&blob, 1);   // req: origin / reply: round
    PutVarint64(&blob, 40);  // req: round / reply: ts
    PutVarint64(&blob, uint64_t{1} << 50);  // item / entry count
    auto decoded = proto::DecodePacket(FrameAround(blob));
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().ToString().find("count exceeds frame"),
              std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotCodecFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---- Packet codec (proto/packet_codec.h) ------------------------------------
//
// The real runtime's UDP conduit decodes whatever arrives on a socket, so
// the whole-packet decoder gets the same adversarial treatment as the WAL
// and snapshot decoders: arbitrary bytes and truncations must surface as
// kCorruption, and every envelope kind must round-trip bit-exactly.

net::Packet RandomPacket(Rng& rng) {
  net::Packet p;
  p.src = SiteId(uint32_t(rng.NextBounded(64)));
  p.dst = SiteId(uint32_t(rng.NextBounded(64)));
  p.reliability = rng.NextBool(0.5) ? net::Reliability::kReliable
                                    : net::Reliability::kDatagram;
  p.epoch = rng.NextBounded(1 << 20);
  p.seq = MsgSeq(rng.NextU64() >> 1);
  p.seq_base = rng.NextBounded(1 << 20);
  p.has_ack = rng.NextBool(0.5);
  if (p.has_ack) {
    p.ack_epoch = rng.NextBounded(1 << 20);
    p.ack_cum = rng.NextBounded(1 << 20);
  }
  p.trace_id = rng.NextU64() >> 1;
  size_t n_hints = rng.NextBounded(3);
  for (size_t i = 0; i < n_hints; ++i) {
    p.hints.push_back(net::PlacementHint{
        ItemId(uint32_t(rng.NextBounded(1 << 20))),
        rng.NextInt(-1'000'000, 1'000'000),
        rng.NextInt(-1'000'000, 1'000'000), rng.NextU64() >> 1});
  }
  switch (rng.NextBounded(5)) {
    case 0:
      break;  // pure ack: no payload
    case 1: {
      auto m = net::MakeEnvelope<proto::RequestMsg>();
      m->txn = TxnId(rng.NextU64() >> 1);
      m->ts_packed = rng.NextU64() >> 1;
      m->origin = SiteId(uint32_t(rng.NextBounded(64)));
      m->round = uint32_t(rng.NextBounded(8)) + 1;
      m->want_surplus_nack = rng.NextBool(0.5);
      m->atomic_set = rng.NextBool(0.5);
      size_t parts = rng.NextBounded(4);
      for (size_t i = 0; i < parts; ++i) {
        m->parts.push_back(proto::RequestPart{
            ItemId(uint32_t(rng.NextBounded(1 << 20))),
            rng.NextInt(-1'000, 1'000), rng.NextBool(0.3)});
      }
      p.payload = std::move(m);
      break;
    }
    case 2: {
      auto m = net::MakeEnvelope<proto::VmTransferMsg>();
      m->vm = VmId(rng.NextU64() >> 1);
      m->src = SiteId(uint32_t(rng.NextBounded(64)));
      m->item = ItemId(uint32_t(rng.NextBounded(1 << 20)));
      m->amount = rng.NextInt(-1'000'000, 1'000'000);
      m->for_txn = TxnId(rng.NextU64() >> 1);
      m->ts_packed = rng.NextU64() >> 1;
      m->closed_below = rng.NextBounded(1 << 20);
      m->is_read_reply = rng.NextBool(0.3);
      m->round = uint32_t(rng.NextBounded(8));
      m->accept_count = rng.NextBounded(1 << 20);
      m->create_count = rng.NextBounded(1 << 20);
      p.payload = std::move(m);
      break;
    }
    case 3: {
      auto m = net::MakeEnvelope<proto::SnapshotReqMsg>();
      *m = RandomReq(rng);
      p.payload = std::move(m);
      break;
    }
    case 4: {
      auto m = net::MakeEnvelope<proto::SnapshotReplyMsg>();
      *m = RandomReply(rng);
      p.payload = std::move(m);
      break;
    }
  }
  size_t n_extra = rng.NextBounded(3);
  for (size_t i = 0; i < n_extra; ++i) {
    auto m = net::MakeEnvelope<proto::VmAckMsg>();
    m->vm = VmId(rng.NextU64() >> 1);
    m->from = SiteId(uint32_t(rng.NextBounded(64)));
    m->ts_packed = rng.NextU64() >> 1;
    p.extra.push_back(net::SubMsg{net::Reliability::kReliable,
                                  MsgSeq(rng.NextU64() >> 1), std::move(m)});
  }
  return p;
}

class PacketCodecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PacketCodecFuzzTest, RandomBytesNeverCrashDecodePacket) {
  Rng rng(GetParam() + 2'020);
  for (int trial = 0; trial < 2'000; ++trial) {
    std::string bytes = RandomBytes(rng, rng.NextBounded(128));
    auto p = proto::DecodePacket(bytes);
    if (!p.ok()) {
      EXPECT_EQ(p.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST_P(PacketCodecFuzzTest, RandomPacketsRoundTrip) {
  Rng rng(GetParam() + 3'030);
  for (int trial = 0; trial < 300; ++trial) {
    net::Packet p = RandomPacket(rng);
    std::string frame = proto::EncodePacket(p);
    // The append API the UDP conduit stages frames with must be
    // byte-identical to the fresh-string encoder for every packet shape the
    // fuzzer can produce, whatever is already in the buffer.
    std::string appended = "prefix";
    std::string scratch;
    proto::EncodePacketTo(p, &appended, &scratch);
    EXPECT_EQ(appended.substr(6), frame);
    auto rt = proto::DecodePacket(frame);
    ASSERT_TRUE(rt.ok()) << rt.status().ToString();
    EXPECT_EQ(rt->src, p.src);
    EXPECT_EQ(rt->dst, p.dst);
    EXPECT_EQ(rt->reliability, p.reliability);
    EXPECT_EQ(rt->epoch, p.epoch);
    EXPECT_EQ(rt->seq, p.seq);
    EXPECT_EQ(rt->seq_base, p.seq_base);
    EXPECT_EQ(rt->has_ack, p.has_ack);
    EXPECT_EQ(rt->ack_epoch, p.ack_epoch);
    EXPECT_EQ(rt->ack_cum, p.ack_cum);
    EXPECT_EQ(rt->trace_id, p.trace_id);
    ASSERT_EQ(rt->hints.size(), p.hints.size());
    for (size_t i = 0; i < p.hints.size(); ++i) {
      EXPECT_EQ(rt->hints[i].item, p.hints[i].item);
      EXPECT_EQ(rt->hints[i].surplus, p.hints[i].surplus);
      EXPECT_EQ(rt->hints[i].demand, p.hints[i].demand);
      EXPECT_EQ(rt->hints[i].stamp, p.hints[i].stamp);
    }
    EXPECT_EQ(rt->payload != nullptr, p.payload != nullptr);
    if (p.payload) {
      // Envelope identity via the wire: same tag, same codec length.
      EXPECT_EQ(rt->payload->Tag(), p.payload->Tag());
      EXPECT_EQ(rt->payload->EncodedSize(), p.payload->EncodedSize());
      EXPECT_EQ(rt->payload->trace_id, p.payload->trace_id);
    }
    ASSERT_EQ(rt->extra.size(), p.extra.size());
    for (size_t i = 0; i < p.extra.size(); ++i) {
      EXPECT_EQ(rt->extra[i].seq, p.extra[i].seq);
      auto* a = static_cast<const proto::VmAckMsg*>(rt->extra[i].payload.get());
      auto* b = static_cast<const proto::VmAckMsg*>(p.extra[i].payload.get());
      EXPECT_EQ(a->vm, b->vm);
      EXPECT_EQ(a->ts_packed, b->ts_packed);
    }
  }
}

TEST_P(PacketCodecFuzzTest, TruncationsOfValidFramesAreRejected) {
  Rng rng(GetParam() + 4'040);
  std::string frame = proto::EncodePacket(RandomPacket(rng));
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_FALSE(proto::DecodePacket(frame.substr(0, cut)).ok())
        << "accepted a packet truncated to " << cut;
  }
}

/// Every envelope kind the wire knows, dressed with the full set of
/// per-frame extras (piggyback ack, placement hints, coalesced riders): the
/// append APIs must match the fresh-string encoder byte for byte, and the
/// destination-patching fan-out encoder must differ from a per-destination
/// fresh encode in no byte at all.
TEST(PacketCodecAppendTest, AllEnvelopeKindsEncodeIdenticallyViaAppendApis) {
  Rng rng(77);
  std::vector<net::EnvelopePtr> payloads;
  {
    auto m = net::MakeEnvelope<proto::RequestMsg>();
    m->txn = TxnId(101);
    m->ts_packed = 5'000;
    m->origin = SiteId(1);
    m->round = 2;
    m->want_surplus_nack = true;
    m->parts.push_back(proto::RequestPart{ItemId(7), 40, false});
    payloads.push_back(std::move(m));
  }
  {
    auto m = net::MakeEnvelope<proto::VmTransferMsg>();
    m->vm = VmId(55);
    m->src = SiteId(2);
    m->item = ItemId(7);
    m->amount = -12;
    m->for_txn = TxnId(101);
    m->ts_packed = 5'001;
    m->closed_below = 44;
    m->accept_count = 9;
    m->create_count = 8;
    payloads.push_back(std::move(m));
  }
  {
    auto m = net::MakeEnvelope<proto::VmAckMsg>();
    m->vm = VmId(55);
    m->from = SiteId(3);
    m->ts_packed = 5'002;
    payloads.push_back(std::move(m));
  }
  {
    auto m = net::MakeEnvelope<proto::VmClosureMsg>();
    m->src = SiteId(0);
    m->closed_below = 56;
    payloads.push_back(std::move(m));
  }
  {
    auto m = net::MakeEnvelope<proto::CcNackMsg>();
    m->from = SiteId(2);
    m->ts_packed = 5'003;
    payloads.push_back(std::move(m));
  }
  {
    auto m = net::MakeEnvelope<proto::SurplusNackMsg>();
    m->from = SiteId(1);
    m->item = ItemId(7);
    m->ts_packed = 5'004;
    payloads.push_back(std::move(m));
  }
  {
    auto m = net::MakeEnvelope<proto::SnapshotReqMsg>();
    *m = RandomReq(rng);
    payloads.push_back(std::move(m));
  }
  {
    auto m = net::MakeEnvelope<proto::SnapshotReplyMsg>();
    *m = RandomReply(rng);
    payloads.push_back(std::move(m));
  }
  ASSERT_EQ(payloads.size(), 8u);

  for (size_t k = 0; k < payloads.size(); ++k) {
    net::Packet p;
    p.src = SiteId(0);
    p.dst = SiteId(1);
    p.reliability = net::Reliability::kReliable;
    p.epoch = 3;
    p.seq = MsgSeq(900 + k);
    p.seq_base = 890;
    p.has_ack = true;
    p.ack_epoch = 2;
    p.ack_cum = 777;
    p.payload = payloads[k];
    p.trace_id = p.payload->trace_id;
    p.hints.push_back(net::PlacementHint{ItemId(7), 30, -4, 1'234});
    p.hints.push_back(net::PlacementHint{ItemId(9), 0, 12, 1'235});
    {
      auto rider = net::MakeEnvelope<proto::VmAckMsg>();
      rider->vm = VmId(60 + k);
      rider->from = SiteId(0);
      rider->ts_packed = 6'000 + k;
      p.extra.push_back(net::SubMsg{net::Reliability::kReliable,
                                    MsgSeq(901 + k), std::move(rider)});
    }

    const std::string fresh = proto::EncodePacket(p);
    std::string appended, scratch;
    proto::EncodePacketTo(p, &appended, &scratch);
    EXPECT_EQ(appended, fresh) << "kind " << p.payload->Tag();
    auto rt = proto::DecodePacket(appended);
    ASSERT_TRUE(rt.ok()) << rt.status().ToString();
    EXPECT_EQ(rt->payload->Tag(), p.payload->Tag());
  }
}

// A 32-bit id that arrives wider than 32 bits is corruption, never narrowed
// onto another id (a site id of 2^32 would otherwise decode as site 0).
TEST(PacketCodecIdTest, IdsWiderThanTheirTypeAreRejected) {
  auto ack_from = [](uint64_t from) {
    std::string blob(1, '\x03');  // kind: VmAck
    PutVarint64(&blob, 0);         // trace id
    PutVarint64(&blob, 55);        // vm
    PutVarint64(&blob, from);
    PutVarint64(&blob, 9);  // ts
    return blob;
  };
  auto widest = proto::DecodeEnvelope(ack_from(uint64_t{0xffffffff}));
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(static_cast<const proto::VmAckMsg&>(**widest).from,
            SiteId(0xffffffff));
  EXPECT_FALSE(proto::DecodeEnvelope(ack_from(uint64_t{1} << 32)).ok());
  EXPECT_FALSE(proto::DecodePacket(FrameAround(ack_from(uint64_t{1} << 32)))
                   .ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketCodecFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace dvp::wal
