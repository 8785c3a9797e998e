// Unit tests for the WAL: encoding primitives, record round-trips, checksum
// protection, stable storage semantics.
#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "wal/encoding.h"
#include "wal/record.h"
#include "wal/stable_storage.h"

namespace dvp::wal {
namespace {

// ---- Encoding primitives ------------------------------------------------------

TEST(EncodingTest, Fixed32RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed32(&buf, 0);
  Decoder dec(buf);
  uint32_t a, b;
  ASSERT_TRUE(dec.GetFixed32(&a));
  ASSERT_TRUE(dec.GetFixed32(&b));
  EXPECT_EQ(a, 0xdeadbeefu);
  EXPECT_EQ(b, 0u);
  EXPECT_TRUE(dec.empty());
}

TEST(EncodingTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0x0123456789abcdefULL);
  Decoder dec(buf);
  uint64_t v;
  ASSERT_TRUE(dec.GetFixed64(&v));
  EXPECT_EQ(v, 0x0123456789abcdefULL);
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, Unsigned) {
  std::string buf;
  PutVarint64(&buf, GetParam());
  Decoder dec(buf);
  uint64_t v;
  ASSERT_TRUE(dec.GetVarint64(&v));
  EXPECT_EQ(v, GetParam());
  EXPECT_TRUE(dec.empty());
}

INSTANTIATE_TEST_SUITE_P(
    EdgeValues, VarintRoundTrip,
    ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                      (1ULL << 32) - 1, 1ULL << 32, (1ULL << 56) + 123,
                      std::numeric_limits<uint64_t>::max()));

class VarsintRoundTrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(VarsintRoundTrip, Signed) {
  std::string buf;
  PutVarsint64(&buf, GetParam());
  Decoder dec(buf);
  int64_t v;
  ASSERT_TRUE(dec.GetVarsint64(&v));
  EXPECT_EQ(v, GetParam());
}

INSTANTIATE_TEST_SUITE_P(EdgeValues, VarsintRoundTrip,
                         ::testing::Values(0LL, 1LL, -1LL, 63LL, -64LL, 64LL,
                                           -65LL, 1'000'000LL, -1'000'000LL,
                                           std::numeric_limits<int64_t>::max(),
                                           std::numeric_limits<int64_t>::min()));

TEST(EncodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  Decoder dec(buf);
  std::string_view a, b;
  ASSERT_TRUE(dec.GetLengthPrefixed(&a));
  ASSERT_TRUE(dec.GetLengthPrefixed(&b));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
}

TEST(EncodingTest, DecoderUnderflowFails) {
  Decoder dec("ab");
  uint32_t v32;
  uint64_t v64;
  EXPECT_FALSE(dec.GetFixed32(&v32));
  EXPECT_FALSE(dec.GetFixed64(&v64));
}

TEST(EncodingTest, TruncatedVarintFails) {
  std::string buf;
  PutVarint64(&buf, 1ULL << 40);
  buf.resize(buf.size() - 1);
  Decoder dec(buf);
  uint64_t v;
  EXPECT_FALSE(dec.GetVarint64(&v));
}

TEST(EncodingTest, Crc32cKnownVector) {
  // RFC 3720 test vector: 32 bytes of zero.
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8a9136aau);
}

TEST(EncodingTest, Crc32cCheckValue) {
  // The CRC-32C catalogue's check value.
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
}

/// Bit-at-a-time CRC-32C: the definition the sliced implementation must
/// agree with.
uint32_t ReferenceCrc32c(std::string_view data) {
  uint32_t crc = 0xffffffff;
  for (char c : data) {
    crc ^= static_cast<uint8_t>(c);
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78 : crc >> 1;
    }
  }
  return crc ^ 0xffffffff;
}

// Every start alignment 0-7 and lengths 0-4096 (the short tails, the eight-
// byte body, and both together), against the reference.
TEST(EncodingTest, Crc32cMatchesTheBitwiseReference) {
  Rng rng(20261019);
  std::string buf(4096 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.NextU64() & 0xff);
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len : {0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 4095, 4096}) {
      std::string_view v(buf.data() + align, len);
      ASSERT_EQ(Crc32c(v), ReferenceCrc32c(v)) << align << "+" << len;
    }
    for (int trial = 0; trial < 64; ++trial) {
      size_t len = rng.NextU64() % 4097;
      std::string_view v(buf.data() + align, len);
      ASSERT_EQ(Crc32c(v), ReferenceCrc32c(v)) << align << "+" << len;
    }
  }
}

TEST(EncodingTest, CrcDetectsSingleBitFlip) {
  std::string data = "the quick brown fox";
  uint32_t before = Crc32c(data);
  data[3] ^= 0x01;
  EXPECT_NE(Crc32c(data), before);
}

// ---- Record round-trips -----------------------------------------------------------

LogRecord SampleRecord(int kind) {
  switch (kind) {
    case 0: {
      TxnCommitRec r;
      r.txn = TxnId(999);
      r.ts_packed = 12345;
      r.writes = {FragmentWrite{ItemId(1), 100, -5, 777},
                  FragmentWrite{ItemId(2), -3, 3, 0}};
      return r;
    }
    case 1: {
      TxnCommitRec r;  // atomic-set commit: carries the trailing flag
      r.txn = TxnId(1000);
      r.ts_packed = 54321;
      r.writes = {FragmentWrite{ItemId(1), 95, -5, 778},
                  FragmentWrite{ItemId(2), 5, 5, 778}};
      r.atomic_set = true;
      return r;
    }
    case 2: {
      VmCreateRec r;
      r.vm = VmId(0x0001000000000042ULL);
      r.dst = SiteId(3);
      r.item = ItemId(7);
      r.amount = 55;
      r.for_txn = TxnId(12);
      r.write = FragmentWrite{ItemId(7), 45, -55, 99};
      return r;
    }
    case 3: {
      VmAcceptRec r;
      r.vm = VmId(17);
      r.src = SiteId(1);
      r.item = ItemId(7);
      r.amount = 55;
      r.for_txn = TxnId(12);
      r.write = FragmentWrite{ItemId(7), 100, 55, 98};
      return r;
    }
    case 4:
      return VmAckedRec{VmId(17)};
    case 5:
      return RecoveryRec{3, 424242};
    case 6:
      return CheckpointRec{};
    case 7: {
      PrepareRec r;
      r.txn = TxnId(5);
      r.coordinator = SiteId(2);
      r.writes = {FragmentWrite{ItemId(0), 10, -1, 4}};
      return r;
    }
    case 8:
      return DecisionRec{TxnId(5), true};
    default:
      return CheckpointRec{};
  }
}

class RecordRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RecordRoundTrip, EncodeDecode) {
  LogRecord original = SampleRecord(GetParam());
  std::string encoded = EncodeRecord(original);
  auto decoded = DecodeRecord(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), original);
}

TEST_P(RecordRoundTrip, CorruptionIsDetectedAtEveryByte) {
  LogRecord original = SampleRecord(GetParam());
  std::string encoded = EncodeRecord(original);
  for (size_t i = 0; i < encoded.size(); ++i) {
    std::string damaged = encoded;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x20);
    auto decoded = DecodeRecord(damaged);
    // Either detected as corruption or (never) silently equal.
    if (decoded.ok()) {
      EXPECT_FALSE(decoded.value() == original)
          << "undetected corruption at byte " << i;
    }
  }
}

TEST_P(RecordRoundTrip, PrinterProducesNonEmptyText) {
  EXPECT_FALSE(RecordToString(SampleRecord(GetParam())).empty());
}

INSTANTIATE_TEST_SUITE_P(AllRecordTypes, RecordRoundTrip,
                         ::testing::Range(0, 9));

TEST(RecordTest, DecodeRejectsShortBuffer) {
  EXPECT_FALSE(DecodeRecord("ab").ok());
  EXPECT_FALSE(DecodeRecord("").ok());
}

TEST(RecordTest, DecodeRejectsUnknownType) {
  // 99 was never a tag; 2 is retired and must not decode as anything else.
  for (char type : {char(99), char(2)}) {
    std::string body(1, type);
    body.push_back(char(7));
    std::string buf;
    PutFixed32(&buf, Crc32c(body));
    buf += body;
    auto decoded = DecodeRecord(buf);
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

// ---- StableStorage ---------------------------------------------------------------

TEST(StableStorageTest, AppendAssignsDenseLsns) {
  StableStorage storage((SiteId(0)));
  EXPECT_EQ(storage.Append(CheckpointRec{}).value(), 0u);
  EXPECT_EQ(storage.Append(VmAckedRec{VmId(1)}).value(), 1u);
  EXPECT_EQ(storage.log_size(), 2u);
  EXPECT_EQ(storage.forces(), 2u);
  EXPECT_GT(storage.log_bytes(), 0u);
}

TEST(StableStorageTest, ReadDecodesByLsn) {
  StableStorage storage((SiteId(0)));
  storage.Append(VmAckedRec{VmId(7)});
  auto rec = storage.Read(Lsn(0));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(std::get<VmAckedRec>(rec.value()).vm, VmId(7));
  EXPECT_FALSE(storage.Read(Lsn(5)).ok());
}

TEST(StableStorageTest, ScanVisitsSuffixInOrder) {
  StableStorage storage((SiteId(0)));
  for (uint64_t i = 0; i < 5; ++i) storage.Append(VmAckedRec{VmId(i)});
  std::vector<uint64_t> seen;
  ASSERT_TRUE(storage
                  .Scan(2,
                        [&](Lsn lsn, const LogRecord& rec) {
                          seen.push_back(lsn.value());
                          EXPECT_EQ(std::get<VmAckedRec>(rec).vm.value(),
                                    lsn.value());
                        })
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{2, 3, 4}));
}

TEST(StableStorageTest, ScanReportsCorruption) {
  StableStorage storage((SiteId(0)));
  storage.Append(VmAckedRec{VmId(1)});
  ASSERT_TRUE(storage.CorruptRecordForTest(Lsn(0), 5).ok());
  Status s = storage.Scan(0, [](Lsn, const LogRecord&) {});
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(StableStorageTest, ImageAndCheckpointWatermark) {
  StableStorage storage((SiteId(1)));
  storage.WriteImage(ItemId(0), 42, 7);
  storage.Append(CheckpointRec{});
  storage.set_checkpoint_upto(1);
  EXPECT_EQ(storage.checkpoint_upto(), 1u);
  EXPECT_EQ(storage.image().at(ItemId(0)).value, 42);
  EXPECT_EQ(storage.image().at(ItemId(0)).ts_packed, 7u);
}

TEST(StableStorageTest, PostAppendHookFires) {
  StableStorage storage((SiteId(0)));
  int fired = 0;
  storage.set_post_append_hook([&](Lsn lsn, const LogRecord&) {
    EXPECT_EQ(lsn.value(), uint64_t(fired));
    ++fired;
  });
  storage.Append(CheckpointRec{});
  storage.Append(CheckpointRec{});
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace dvp::wal
