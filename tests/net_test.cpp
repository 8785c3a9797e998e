// Unit tests for the network substrate: partition oracle, link fault model,
// routing semantics, broadcast ordering, transport retransmission.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "net/backoff.h"
#include "net/network.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "proto/packet_codec.h"
#include "proto/wire.h"
#include "sim/kernel.h"

namespace dvp::net {
namespace {

struct TestMsg final : public Envelope {
  explicit TestMsg(int v) : value(v) {}
  int value;
  std::string_view Tag() const override { return "Test"; }
};

// ---- PartitionOracle ---------------------------------------------------------

TEST(PartitionOracleTest, StartsFullyConnected) {
  PartitionOracle oracle(4);
  EXPECT_FALSE(oracle.IsPartitioned());
  EXPECT_EQ(oracle.num_groups(), 1u);
  for (uint32_t a = 0; a < 4; ++a) {
    for (uint32_t b = 0; b < 4; ++b) {
      EXPECT_TRUE(oracle.Connected(SiteId(a), SiteId(b)));
    }
  }
}

TEST(PartitionOracleTest, SplitSeparatesGroups) {
  PartitionOracle oracle(4);
  ASSERT_TRUE(oracle.Split({{SiteId(0), SiteId(1)}, {SiteId(2), SiteId(3)}})
                  .ok());
  EXPECT_TRUE(oracle.IsPartitioned());
  EXPECT_EQ(oracle.num_groups(), 2u);
  EXPECT_TRUE(oracle.Connected(SiteId(0), SiteId(1)));
  EXPECT_TRUE(oracle.Connected(SiteId(2), SiteId(3)));
  EXPECT_FALSE(oracle.Connected(SiteId(0), SiteId(2)));
  EXPECT_FALSE(oracle.Connected(SiteId(1), SiteId(3)));
}

TEST(PartitionOracleTest, SelfIsAlwaysConnected) {
  PartitionOracle oracle(2);
  ASSERT_TRUE(oracle.Split({{SiteId(0)}, {SiteId(1)}}).ok());
  EXPECT_TRUE(oracle.Connected(SiteId(0), SiteId(0)));
}

TEST(PartitionOracleTest, HealRestores) {
  PartitionOracle oracle(3);
  ASSERT_TRUE(oracle.Split({{SiteId(0)}, {SiteId(1), SiteId(2)}}).ok());
  uint64_t v = oracle.version();
  oracle.Heal();
  EXPECT_GT(oracle.version(), v);
  EXPECT_FALSE(oracle.IsPartitioned());
  EXPECT_TRUE(oracle.Connected(SiteId(0), SiteId(2)));
}

TEST(PartitionOracleTest, SplitValidatesCoverage) {
  PartitionOracle oracle(3);
  EXPECT_FALSE(oracle.Split({{SiteId(0)}, {SiteId(1)}}).ok());  // missing 2
  EXPECT_FALSE(
      oracle.Split({{SiteId(0), SiteId(0)}, {SiteId(1), SiteId(2)}}).ok());
  EXPECT_FALSE(oracle.Split({{SiteId(0), SiteId(7)}, {SiteId(1), SiteId(2)}})
                   .ok());  // out of range
}

TEST(PartitionOracleTest, IsolateCutsOneSite) {
  PartitionOracle oracle(4);
  ASSERT_TRUE(oracle.Isolate(SiteId(2)).ok());
  EXPECT_FALSE(oracle.Connected(SiteId(2), SiteId(0)));
  EXPECT_TRUE(oracle.Connected(SiteId(0), SiteId(1)));
  EXPECT_TRUE(oracle.Connected(SiteId(0), SiteId(3)));
}

TEST(PartitionOracleTest, ThreeWaySplit) {
  PartitionOracle oracle(4);
  ASSERT_TRUE(
      oracle.Split({{SiteId(0)}, {SiteId(1)}, {SiteId(2), SiteId(3)}}).ok());
  EXPECT_EQ(oracle.num_groups(), 3u);
  EXPECT_FALSE(oracle.Connected(SiteId(0), SiteId(1)));
  EXPECT_TRUE(oracle.Connected(SiteId(2), SiteId(3)));
}

// ---- Link ---------------------------------------------------------------------

TEST(LinkTest, SynchronousIsDeterministic) {
  Link link(LinkParams::Synchronous(500), Rng(1));
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(link.SampleLoss());
    EXPECT_FALSE(link.SampleDuplicate());
    EXPECT_EQ(link.SampleDelay(), 500);
  }
}

TEST(LinkTest, AlwaysLossyDropsEverything) {
  LinkParams p;
  p.loss_prob = 1.0;
  Link link(p, Rng(2));
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(link.SampleLoss());
}

TEST(LinkTest, JitterAddsToBaseDelay) {
  LinkParams p;
  p.base_delay_us = 100;
  p.jitter_mean_us = 50;
  Link link(p, Rng(3));
  for (int i = 0; i < 100; ++i) EXPECT_GE(link.SampleDelay(), 100);
}

// ---- Network --------------------------------------------------------------------

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : network_(&kernel_, 3, LinkParams::Synchronous(1000), Rng(5)) {
    for (uint32_t s = 0; s < 3; ++s) {
      network_.RegisterEndpoint(
          SiteId(s),
          [this, s](const Packet& p) {
            received_[s].push_back(
                static_cast<const TestMsg*>(p.payload.get())->value);
          },
          [this, s]() { return up_[s]; });
    }
  }

  void Send(uint32_t from, uint32_t to, int value) {
    Packet p;
    p.src = SiteId(from);
    p.dst = SiteId(to);
    p.payload = std::make_shared<TestMsg>(value);
    network_.Send(std::move(p));
  }

  sim::Kernel kernel_;
  Network network_;
  std::vector<int> received_[3];
  bool up_[3] = {true, true, true};
};

TEST_F(NetworkTest, DeliversAfterLinkDelay) {
  Send(0, 1, 42);
  EXPECT_TRUE(received_[1].empty());
  kernel_.Run();
  EXPECT_EQ(received_[1], (std::vector<int>{42}));
  EXPECT_EQ(kernel_.Now(), 1000);
}

TEST_F(NetworkTest, LoopbackIsImmediate) {
  Send(2, 2, 9);
  kernel_.Run();
  EXPECT_EQ(received_[2], (std::vector<int>{9}));
  EXPECT_EQ(kernel_.Now(), 0);
}

TEST_F(NetworkTest, DropsAcrossPartition) {
  ASSERT_TRUE(
      network_.partition().Split({{SiteId(0)}, {SiteId(1), SiteId(2)}}).ok());
  Send(0, 1, 1);
  kernel_.Run();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(network_.stats().packets_lost_partition, 1u);
}

TEST_F(NetworkTest, InFlightPacketDiesWhenPartitionStrikes) {
  Send(0, 1, 7);  // arrives at t=1000
  kernel_.Schedule(500, [this]() {
    ASSERT_TRUE(network_.partition()
                    .Split({{SiteId(0)}, {SiteId(1), SiteId(2)}})
                    .ok());
  });
  kernel_.Run();
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(NetworkTest, HealedInFlightStillDelivered) {
  ASSERT_TRUE(
      network_.partition().Split({{SiteId(0)}, {SiteId(1), SiteId(2)}}).ok());
  network_.partition().Heal();
  Send(0, 1, 5);
  kernel_.Run();
  EXPECT_EQ(received_[1], (std::vector<int>{5}));
}

TEST_F(NetworkTest, DownDestinationLosesPacket) {
  up_[1] = false;
  Send(0, 1, 3);
  kernel_.Run();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(network_.stats().packets_lost_down, 1u);
}

TEST_F(NetworkTest, BroadcastReachesAllOthersSimultaneously) {
  network_.Broadcast(SiteId(0), std::make_shared<TestMsg>(11));
  kernel_.Run();
  EXPECT_EQ(received_[1], (std::vector<int>{11}));
  EXPECT_EQ(received_[2], (std::vector<int>{11}));
  EXPECT_TRUE(received_[0].empty());
}

TEST_F(NetworkTest, BroadcastsFromTwoSitesArriveInSameOrderEverywhere) {
  // Order-synchronous property required by Conc2 (§6.2).
  network_.Broadcast(SiteId(0), std::make_shared<TestMsg>(100));
  network_.Broadcast(SiteId(1), std::make_shared<TestMsg>(200));
  kernel_.Run();
  EXPECT_EQ(received_[2], (std::vector<int>{100, 200}));
}

TEST_F(NetworkTest, FullyLossyLinkDropsAll) {
  LinkParams lossy;
  lossy.loss_prob = 1.0;
  network_.SetLinkParams(SiteId(0), SiteId(1), lossy);
  for (int i = 0; i < 10; ++i) Send(0, 1, i);
  kernel_.Run();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(network_.stats().packets_lost_link, 10u);
  // The reverse direction is unaffected.
  Send(1, 0, 1);
  kernel_.Run();
  EXPECT_EQ(received_[0].size(), 1u);
}

TEST_F(NetworkTest, DuplicationDeliversTwice) {
  LinkParams dupl;
  dupl.duplicate_prob = 1.0;
  dupl.jitter_mean_us = 0;
  network_.SetLinkParams(SiteId(0), SiteId(1), dupl);
  Send(0, 1, 8);
  kernel_.Run();
  EXPECT_EQ(received_[1].size(), 2u);
  EXPECT_EQ(network_.stats().packets_duplicated, 1u);
}

// ---- Modeled byte accounting -------------------------------------------------

TEST(WireBytesTest, SumsHeaderAckHintsPayloadAndRiders) {
  Packet p;
  p.src = SiteId(0);
  p.dst = SiteId(1);
  EXPECT_EQ(WireBytes(p), kPacketHeaderBytes);  // pure header, no payload
  p.payload = std::make_shared<TestMsg>(1);     // default envelope size
  EXPECT_EQ(WireBytes(p), kPacketHeaderBytes + kEnvelopeHeaderBytes);
  p.has_ack = true;
  p.hints.resize(2);
  SubMsg rider;
  rider.payload = std::make_shared<TestMsg>(2);
  p.extra.push_back(rider);
  EXPECT_EQ(WireBytes(p), kPacketHeaderBytes + kAckBytes + 2 * kHintBytes +
                              kEnvelopeHeaderBytes + kSubMsgHeaderBytes +
                              kEnvelopeHeaderBytes);
}

// A proto envelope's price is its packet-codec encoding, byte for byte, so
// the sim charges exactly the envelope bytes the UDP runtime sends. Every
// kind, every RequestMsg flag combination, and 0, 1 and many parts, items
// and entries; field values are large enough to need multi-byte varints.
TEST(WireBytesTest, ProtoEnvelopePriceIsItsCodecLength) {
  std::vector<std::shared_ptr<proto::Message>> msgs;
  for (size_t n : {size_t{0}, size_t{1}, size_t{40}}) {
    for (bool surplus : {false, true}) {
      for (bool atomic : {false, true}) {
        auto m = std::make_shared<proto::RequestMsg>();
        m->txn = TxnId(uint64_t{1} << 40);
        m->ts_packed = 99'999'999;
        m->origin = SiteId(3);
        m->round = 300;
        m->want_surplus_nack = surplus;
        m->atomic_set = atomic;
        for (size_t i = 0; i < n; ++i) {
          m->parts.push_back(proto::RequestPart{
              ItemId(static_cast<uint32_t>(i * 40'961)),
              -static_cast<int64_t>(i) * 1'000, i % 2 == 0});
        }
        msgs.push_back(std::move(m));
      }
    }
    auto req = std::make_shared<proto::SnapshotReqMsg>();
    req->txn = TxnId(7);
    req->ts_packed = uint64_t{1} << 50;
    req->origin = SiteId(1);
    req->round = 2;
    for (size_t i = 0; i < n; ++i) {
      req->items.push_back(ItemId(static_cast<uint32_t>(i * 70'001)));
    }
    msgs.push_back(std::move(req));
    auto reply = std::make_shared<proto::SnapshotReplyMsg>();
    reply->txn = TxnId(7);
    reply->from = SiteId(4);
    reply->round = 2;
    reply->ts_packed = uint64_t{1} << 50;
    for (size_t i = 0; i < n; ++i) {
      reply->entries.push_back(proto::SnapshotEntry{
          ItemId(static_cast<uint32_t>(i * 70'001)),
          -static_cast<int64_t>(i) * 77'777, uint64_t{1} << 45, i * 1'000,
          static_cast<int64_t>(i) * 300, i, -static_cast<int64_t>(i), i * 9});
    }
    msgs.push_back(std::move(reply));
  }
  for (bool read_reply : {false, true}) {
    auto m = std::make_shared<proto::VmTransferMsg>();
    m->vm = VmId(uint64_t{1} << 33);
    m->src = SiteId(2);
    m->item = ItemId(123'456);
    m->amount = -4'000'000;
    m->for_txn = TxnId(uint64_t{1} << 40);
    m->ts_packed = uint64_t{1} << 50;
    m->closed_below = 1'000'000;
    m->is_read_reply = read_reply;
    m->round = 17;
    m->accept_count = 1 << 20;
    m->create_count = 1 << 21;
    msgs.push_back(std::move(m));
  }
  {
    auto m = std::make_shared<proto::VmAckMsg>();
    m->vm = VmId(uint64_t{1} << 33);
    m->from = SiteId(1);
    m->ts_packed = uint64_t{1} << 50;
    msgs.push_back(std::move(m));
  }
  {
    auto m = std::make_shared<proto::VmClosureMsg>();
    m->src = SiteId(0);
    m->closed_below = 1'000'000;
    msgs.push_back(std::move(m));
  }
  for (auto reason : {proto::GatherNackMsg::Reason::kCc,
                      proto::GatherNackMsg::Reason::kEmpty}) {
    auto m = std::make_shared<proto::GatherNackMsg>();
    m->from = SiteId(2);
    m->reason = reason;
    m->item = ItemId(123'456);
    m->ts_packed = uint64_t{1} << 50;
    msgs.push_back(std::move(m));
  }
  std::set<std::string_view> kinds;
  for (const auto& m : msgs) {
    m->trace_id = uint64_t{1} << 42;
    const std::string blob = proto::EncodeEnvelope(*m);
    ASSERT_FALSE(blob.empty()) << m->Tag();
    EXPECT_EQ(m->WireSize(), blob.size()) << m->Tag();
    // A decoded copy, as the receiving site holds it, costs the same.
    auto decoded = proto::DecodeEnvelope(blob);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ((*decoded)->WireSize(), blob.size()) << m->Tag();
    kinds.insert(m->Tag());
  }
  EXPECT_EQ(kinds.size(), 7u);  // every kind the codec knows
}

// The multi-op flag rides bit 1 of the SAME flags byte as want_surplus_nack
// (bit 0). Whatever flag combination is set, a request encodes to the same
// length, and its blob differs from the no-flag blob in that one byte only.
TEST(WireBytesTest, RequestFlagsShareOneByteAndNeverChangeTheSize) {
  for (size_t parts : {size_t{0}, size_t{1}, size_t{2}, size_t{5}}) {
    std::string plain;
    for (bool surplus : {false, true}) {
      for (bool atomic : {false, true}) {
        proto::RequestMsg msg;
        msg.txn = TxnId(7);
        msg.ts_packed = 99;
        msg.origin = SiteId(0);
        msg.want_surplus_nack = surplus;
        msg.atomic_set = atomic;
        for (size_t i = 0; i < parts; ++i) {
          msg.parts.push_back(proto::RequestPart{
              ItemId(static_cast<uint32_t>(i)), 5, false});
        }
        const std::string blob = proto::EncodeEnvelope(msg);
        EXPECT_EQ(msg.EncodedSize(), blob.size());
        if (!surplus && !atomic) {
          plain = blob;
          continue;
        }
        ASSERT_EQ(blob.size(), plain.size())
            << "surplus=" << surplus << " atomic=" << atomic
            << " parts=" << parts;
        size_t differing = 0;
        for (size_t i = 0; i < blob.size(); ++i) {
          if (blob[i] != plain[i]) ++differing;
        }
        EXPECT_EQ(differing, 1u) << "surplus=" << surplus
                                 << " atomic=" << atomic
                                 << " parts=" << parts;
      }
    }
  }
}

// A legacy single-item frame (no flags, small ids) has a pinned price: kind,
// trace id, txn, ts, origin, round, flags, part count, then item, amount and
// read_all, one byte each. Byte-ledger regressions in E12/E13 would
// otherwise masquerade as protocol traffic changes.
TEST(WireBytesTest, LegacyRequestFrameCostIsPinned) {
  proto::RequestMsg msg;
  msg.txn = TxnId(1);
  msg.origin = SiteId(0);
  msg.parts.push_back(proto::RequestPart{ItemId(0), 0, false});
  EXPECT_EQ(msg.EncodedSize(), 11u);

  Packet p;
  p.src = SiteId(0);
  p.dst = SiteId(1);
  p.payload = std::make_shared<proto::RequestMsg>(msg);
  EXPECT_EQ(WireBytes(p), kPacketHeaderBytes + 11);
}

// The snapshot-read messages' prices are pinned the same way: a request is
// 7 bytes plus one per small item id, a reply 7 bytes plus 8 per entry of
// small fields. E5b's byte ledger is built on these figures.
TEST(WireBytesTest, SnapshotFrameCostsArePinned) {
  proto::SnapshotReqMsg req;
  req.txn = TxnId(7);
  req.origin = SiteId(0);
  EXPECT_EQ(req.EncodedSize(), 7u);
  for (uint32_t i = 0; i < 3; ++i) req.items.push_back(ItemId(i));
  EXPECT_EQ(req.EncodedSize(), 7u + 3 * 1);

  proto::SnapshotReplyMsg reply;
  reply.txn = TxnId(7);
  reply.from = SiteId(0);
  EXPECT_EQ(reply.EncodedSize(), 7u);
  for (uint32_t i = 0; i < 2; ++i) {
    proto::SnapshotEntry e;
    e.item = ItemId(i);
    reply.entries.push_back(e);
  }
  EXPECT_EQ(reply.EncodedSize(), 7u + 2 * 8);
}

// The shared backoff arithmetic is pinned: the transport's retransmission
// schedule and the read paths' retry pacing both ride these exact values,
// and the jitter must be a pure function of its salt (no RNG stream).
TEST(BackoffTest, IntervalDoublesAndCollapsesToTheCap) {
  EXPECT_EQ(backoff::Interval(10'000, 320'000, 0), 10'000);
  EXPECT_EQ(backoff::Interval(10'000, 320'000, 1), 20'000);
  EXPECT_EQ(backoff::Interval(10'000, 320'000, 5), 320'000);
  EXPECT_EQ(backoff::Interval(10'000, 320'000, 6), 320'000);   // past cap
  EXPECT_EQ(backoff::Interval(10'000, 320'000, 63), 320'000);  // clamped exp
  EXPECT_EQ(backoff::Interval(1, 2'000'000'000, 30), 1 << 30);
}

// Regression: the old probe computed `base_us << exp` before its overflow
// guard — a signed left shift that overflows (UB, caught by UBSan) for large
// bases. The pre-shift test must collapse these straight to the cap.
TEST(BackoffTest, IntervalHugeBaseCollapsesToCapWithoutOverflow) {
  EXPECT_EQ(backoff::Interval(int64_t{1} << 40, 1'000'000, 30), 1'000'000);
  EXPECT_EQ(backoff::Interval(int64_t{1} << 62, 320'000, 5), 320'000);
  EXPECT_EQ(backoff::Interval(kSimTimeMax, kSimTimeMax, 1), kSimTimeMax);
  // Degenerate inputs still collapse to the cap (the old `<= 0` guard).
  EXPECT_EQ(backoff::Interval(0, 320'000, 5), 320'000);
  EXPECT_EQ(backoff::Interval(-10, 320'000, 0), 320'000);
}

TEST(BackoffTest, JitterIsDeterministicAndBounded) {
  constexpr SimTime kMax = 10'000'000;
  for (SimTime interval : {SimTime{4}, SimTime{10'000}, SimTime{320'000}}) {
    for (uint64_t salt = 0; salt < 64; ++salt) {
      SimTime a = backoff::Jittered(interval, kMax, salt);
      SimTime b = backoff::Jittered(interval, kMax, salt);
      EXPECT_EQ(a, b);  // pure function of (interval, max, salt)
      EXPECT_GE(a, interval);
      EXPECT_LE(a, interval + interval / 4);
    }
  }
  // Distinct salts actually spread (the anti-thundering-herd point).
  EXPECT_NE(backoff::Jittered(320'000, kMax, 1),
            backoff::Jittered(320'000, kMax, 2));
}

// Regression: jitter on top of an already-capped interval used to stretch
// the wait to 1.25 * max_us. A maxed-out retrier now waits exactly the cap.
TEST(BackoffTest, JitterNeverExceedsTheCap) {
  for (uint64_t salt = 0; salt < 64; ++salt) {
    EXPECT_EQ(backoff::Jittered(320'000, 320'000, salt), 320'000);
    EXPECT_LE(backoff::Jittered(300'000, 320'000, salt), 320'000);
  }
}

// WireSize is computed once and cached; flipping a flag afterwards must not
// re-cost the envelope (payloads are immutable once sent — the cache is the
// contract that retransmissions and duplicates charge the original figure).
TEST(WireBytesTest, WireSizeIsCachedAtFirstUse) {
  proto::RequestMsg msg;
  msg.parts.resize(2);
  const size_t first = msg.WireSize();
  msg.parts.resize(5);  // mutation after first costing: cache must hold
  EXPECT_EQ(msg.WireSize(), first);
}

TEST_F(NetworkTest, ByteCountersFollowPacketCounters) {
  Send(0, 1, 1);
  Send(1, 2, 2);
  kernel_.Run();
  constexpr uint64_t kPerPacket = kPacketHeaderBytes + kEnvelopeHeaderBytes;
  EXPECT_EQ(network_.stats().bytes_sent, 2 * kPerPacket);
  EXPECT_EQ(network_.stats().bytes_delivered, 2 * kPerPacket);
}

TEST_F(NetworkTest, DuplicateChargesDeliveredBytesNotSentBytes) {
  // Mirrors packets_sent / packets_delivered: the sender paid for one send,
  // the link manufactured the second copy, the receiver absorbed both.
  LinkParams dupl;
  dupl.duplicate_prob = 1.0;
  dupl.jitter_mean_us = 0;
  network_.SetLinkParams(SiteId(0), SiteId(1), dupl);
  Send(0, 1, 8);
  kernel_.Run();
  constexpr uint64_t kPerPacket = kPacketHeaderBytes + kEnvelopeHeaderBytes;
  EXPECT_EQ(network_.stats().bytes_sent, kPerPacket);
  EXPECT_EQ(network_.stats().bytes_delivered, 2 * kPerPacket);
}

TEST(EnvelopePoolTest, MakeEnvelopeCountsAndRecycles) {
  EnvelopePoolStats before = PoolStats();
  for (int i = 0; i < 100; ++i) {
    auto e = MakeEnvelope<TestMsg>(i);
    EXPECT_EQ(e->value, i);
  }  // each envelope dies here and its block returns to the pool
  EnvelopePoolStats after = PoolStats();
  EXPECT_EQ(after.envelopes - before.envelopes, 100u);
  // Recycling is the point: 100 sequential alloc/free cycles must not cost
  // anywhere near 100 heap trips.
  EXPECT_LT(after.upstream_allocations - before.upstream_allocations, 10u);
}

// ---- Transport -------------------------------------------------------------------

class TransportTest : public ::testing::Test {
 protected:
  TransportTest() { Build(LinkParams::Synchronous(1000)); }

  void Build(LinkParams link, bool coalesce = false,
             uint32_t max_frame_msgs = 8) {
    network_ = std::make_unique<Network>(&kernel_, 2, link, Rng(6));
    Transport::Options opts;
    opts.rto_us = 10'000;
    opts.ack_delay_us = 2'000;
    opts.coalesce = coalesce;
    opts.max_frame_msgs = max_frame_msgs;
    for (uint32_t s = 0; s < 2; ++s) {
      transport_[s] = std::make_unique<Transport>(&kernel_, network_.get(),
                                                  SiteId(s), &counters_[s],
                                                  opts);
      Transport* t = transport_[s].get();
      network_->RegisterEndpoint(
          SiteId(s),
          [this, s, t](const Packet& p) {
            if (p.payload && p.reliability == Reliability::kReliable) {
              wire_seqs_[s].push_back(p.seq.value());
            }
            t->OnPacket(p);
          },
          []() { return true; });
      transport_[s]->set_deliver_fn([this, s](SiteId, EnvelopePtr payload) {
        received_[s].push_back(
            static_cast<const TestMsg*>(payload.get())->value);
        return consume_[s];
      });
      transport_[s]->set_ack_fn(
          [this, s](uint64_t token) { acked_[s].push_back(token); });
    }
  }

  sim::Kernel kernel_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<Transport> transport_[2];
  obs::MetricsRegistry counters_[2];
  std::vector<int> received_[2];
  std::vector<uint64_t> wire_seqs_[2];  // reliable seqs seen on the wire
  std::vector<uint64_t> acked_[2];      // tokens completed by cumulative ack
  bool consume_[2] = {true, true};
};

TEST_F(TransportTest, DatagramDelivers) {
  transport_[0]->SendDatagram(SiteId(1), std::make_shared<TestMsg>(1));
  kernel_.Run();
  EXPECT_EQ(received_[1], (std::vector<int>{1}));
}

TEST_F(TransportTest, CumulativeAckStopsRetransmissionAndCompletesToken) {
  transport_[0]->SendReliable(SiteId(1), 77, std::make_shared<TestMsg>(2));
  EXPECT_EQ(transport_[0]->outstanding(), 1u);
  kernel_.Run(100'000);
  // Consumed on first delivery; the delayed pure ack (no reverse traffic)
  // completed the send before the first retransmission round.
  EXPECT_EQ(received_[1], (std::vector<int>{2}));
  EXPECT_EQ(transport_[0]->retransmissions(), 0u);
  EXPECT_EQ(transport_[0]->outstanding(), 0u);
  EXPECT_EQ(acked_[0], (std::vector<uint64_t>{77}));
  EXPECT_EQ(transport_[1]->pure_acks(), 1u);
}

TEST_F(TransportTest, PiggybackAckOnReverseTrafficBeatsPureAck) {
  transport_[0]->SendReliable(SiteId(1), 4, std::make_shared<TestMsg>(2));
  // Reverse datagram leaves after delivery (t=1000) but before the pure-ack
  // delay (2000) expires; the ack rides it.
  kernel_.Schedule(1'500, [this]() {
    transport_[1]->SendDatagram(SiteId(0), std::make_shared<TestMsg>(9));
  });
  kernel_.Run(100'000);
  EXPECT_EQ(acked_[0], (std::vector<uint64_t>{4}));
  EXPECT_EQ(transport_[1]->pure_acks(), 0u);
  EXPECT_EQ(transport_[1]->piggyback_acks(), 1u);
  EXPECT_EQ(transport_[0]->outstanding(), 0u);
}

TEST_F(TransportTest, ReliableRetransmitsUntilCancelled) {
  consume_[1] = false;  // receiver refuses: no ack, no dedup
  transport_[0]->SendReliable(SiteId(1), 77, std::make_shared<TestMsg>(2));
  kernel_.Run(60'000);  // several backoff rounds
  EXPECT_GE(received_[1].size(), 3u);  // original + >= 2 re-offers
  EXPECT_GE(transport_[0]->retransmissions(), 2u);
  transport_[0]->CancelReliable(77);
  size_t so_far = received_[1].size();
  kernel_.Run(kernel_.Now() + 200'000);
  EXPECT_EQ(received_[1].size(), so_far);  // silence after cancel
  EXPECT_EQ(transport_[0]->outstanding(), 0u);
}

TEST_F(TransportTest, RetransmissionsReuseTheOriginalSeq) {
  consume_[1] = false;
  transport_[0]->SendReliable(SiteId(1), 8, std::make_shared<TestMsg>(3));
  kernel_.Run(80'000);
  ASSERT_GE(wire_seqs_[1].size(), 3u);
  for (uint64_t seq : wire_seqs_[1]) EXPECT_EQ(seq, wire_seqs_[1][0]);
  // Once the receiver consumes, exactly one more credit happens and the
  // duplicate window holds the rest.
  consume_[1] = true;
  size_t before = received_[1].size();
  kernel_.Run(kernel_.Now() + 2'000'000);
  EXPECT_EQ(received_[1].size(), before + 1);
  EXPECT_EQ(transport_[0]->outstanding(), 0u);
}

TEST_F(TransportTest, DuplicateDroppedAtTransport) {
  LinkParams dupl = LinkParams::Synchronous(1000);
  dupl.duplicate_prob = 1.0;
  Build(dupl);
  transport_[0]->SendReliable(SiteId(1), 3, std::make_shared<TestMsg>(6));
  kernel_.Run(100'000);
  // Two copies hit the wire; the payload reached the upper layer once.
  EXPECT_EQ(received_[1], (std::vector<int>{6}));
  EXPECT_GE(transport_[1]->dup_drops(), 1u);
  EXPECT_GE(counters_[1].Get("transport.dup_drop"), 1u);
  EXPECT_EQ(transport_[0]->outstanding(), 0u);
}

TEST_F(TransportTest, ReliableSurvivesTotalLossUntilHeal) {
  ASSERT_TRUE(network_->partition().Split({{SiteId(0)}, {SiteId(1)}}).ok());
  transport_[0]->SendReliable(SiteId(1), 5, std::make_shared<TestMsg>(3));
  kernel_.Run(50'000);
  EXPECT_TRUE(received_[1].empty());
  network_->partition().Heal();
  // Backoff may have stretched the retry interval; give it a few rounds.
  kernel_.Run(kernel_.Now() + 1'000'000);
  EXPECT_EQ(received_[1], (std::vector<int>{3}));
  EXPECT_EQ(transport_[0]->outstanding(), 0u);  // ack flowed back after heal
}

TEST_F(TransportTest, BackoffKillsRetransmissionStormDuringPartition) {
  ASSERT_TRUE(network_->partition().Split({{SiteId(0)}, {SiteId(1)}}).ok());
  for (uint64_t t = 0; t < 20; ++t) {
    transport_[0]->SendReliable(SiteId(1), 100 + t,
                                std::make_shared<TestMsg>(int(t)));
  }
  kernel_.Run(300'000);
  // A fixed-RTO transport re-fires every pending send each tick: 20 sends *
  // 30 ticks = 600 packets over this window. Exponential backoff with a
  // burst cap sends a handful of probe rounds instead.
  EXPECT_LE(transport_[0]->retransmissions(), 60u);
  EXPECT_GE(transport_[0]->retransmissions(), 8u);  // still probing
}

TEST_F(TransportTest, CrashClearsOutstanding) {
  transport_[0]->SendReliable(SiteId(1), 9, std::make_shared<TestMsg>(4));
  transport_[0]->Crash();
  EXPECT_EQ(transport_[0]->outstanding(), 0u);
  size_t delivered_before = received_[1].size();
  kernel_.Run(100'000);
  // Only the single pre-crash send can arrive; no retransmissions.
  EXPECT_LE(received_[1].size() - delivered_before, 1u);
}

TEST_F(TransportTest, NewEpochResetsTheReceiverChannel) {
  transport_[0]->SendReliable(SiteId(1), 1, std::make_shared<TestMsg>(10));
  kernel_.Run(100'000);
  ASSERT_EQ(received_[1], (std::vector<int>{10}));

  // Reborn sender: fresh epoch, seq numbering restarts at 1. The receiver
  // must not mistake the new seq 1 for the old consumed seq 1.
  transport_[0]->Crash();
  transport_[0]->set_epoch(1);
  transport_[0]->SendReliable(SiteId(1), 2, std::make_shared<TestMsg>(11));
  kernel_.Run(kernel_.Now() + 100'000);
  EXPECT_EQ(received_[1], (std::vector<int>{10, 11}));
}

TEST_F(TransportTest, StaleEpochPacketsAreDropped) {
  // Receiver tracks epoch 1...
  transport_[0]->set_epoch(1);
  transport_[0]->SendReliable(SiteId(1), 1, std::make_shared<TestMsg>(20));
  kernel_.Run(100'000);
  ASSERT_EQ(received_[1].size(), 1u);
  // ...then a leftover packet from the sender's previous life limps in.
  Packet stale;
  stale.src = SiteId(0);
  stale.dst = SiteId(1);
  stale.reliability = Reliability::kReliable;
  stale.epoch = 0;
  stale.seq = MsgSeq(9);
  stale.payload = std::make_shared<TestMsg>(21);
  network_->Send(std::move(stale));
  kernel_.Run(kernel_.Now() + 100'000);
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(counters_[1].Get("transport.stale_epoch_drop"), 1u);
}

TEST_F(TransportTest, CancelUnknownTokenIsNoOp) {
  transport_[0]->CancelReliable(424242);  // no crash
  EXPECT_EQ(transport_[0]->outstanding(), 0u);
}

// ---- Coalescing ------------------------------------------------------------
//
// With Options::coalesce on, sends stage per destination for one zero-delay
// event tick and ride a single frame: the first message is the Packet's
// primary, the rest go in Packet::extra. Channel state (epoch, seq_base,
// piggyback ack) is frame-wide; dedup and delivery remain per message.

TEST_F(TransportTest, CoalescedBurstToOnePeerRidesOneFrame) {
  Build(LinkParams::Synchronous(1000), /*coalesce=*/true);
  transport_[0]->SendDatagram(SiteId(1), std::make_shared<TestMsg>(1));
  transport_[0]->SendReliable(SiteId(1), 10, std::make_shared<TestMsg>(2));
  transport_[0]->SendReliable(SiteId(1), 11, std::make_shared<TestMsg>(3));
  EXPECT_EQ(network_->stats().packets_sent, 0u);  // staged, not yet on wire
  kernel_.Run(100'000);
  EXPECT_EQ(received_[1], (std::vector<int>{1, 2, 3}));  // send order kept
  EXPECT_EQ(transport_[0]->coalesced_frames(), 1u);
  EXPECT_EQ(transport_[0]->coalesced_riders(), 2u);
  EXPECT_EQ(acked_[0], (std::vector<uint64_t>{10, 11}));
  // Exactly one data frame plus the receiver's one delayed pure ack.
  EXPECT_EQ(network_->stats().packets_sent, 2u);
  EXPECT_EQ(transport_[0]->outstanding(), 0u);
}

TEST_F(TransportTest, MaxFrameMsgsChunksTheBurst) {
  Build(LinkParams::Synchronous(1000), /*coalesce=*/true,
        /*max_frame_msgs=*/4);
  for (int i = 0; i < 10; ++i) {
    transport_[0]->SendDatagram(SiteId(1), std::make_shared<TestMsg>(i));
  }
  kernel_.Run();
  EXPECT_EQ(received_[1],
            (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(network_->stats().packets_sent, 3u);  // 4 + 4 + 2
  EXPECT_EQ(transport_[0]->coalesced_frames(), 3u);
  EXPECT_EQ(transport_[0]->coalesced_riders(), 7u);
}

TEST_F(TransportTest, DuplicatedFrameDedupsEverySubMessage) {
  LinkParams dupl = LinkParams::Synchronous(1000);
  dupl.duplicate_prob = 1.0;
  Build(dupl, /*coalesce=*/true);
  transport_[0]->SendReliable(SiteId(1), 20, std::make_shared<TestMsg>(2));
  transport_[0]->SendReliable(SiteId(1), 21, std::make_shared<TestMsg>(3));
  transport_[0]->SendReliable(SiteId(1), 22, std::make_shared<TestMsg>(4));
  kernel_.Run(100'000);
  // The duplicated frame re-offers all three subs; each is dropped by its
  // own seq, not by a frame-level filter.
  EXPECT_EQ(received_[1], (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(transport_[1]->dup_drops(), 3u);
  EXPECT_EQ(acked_[0], (std::vector<uint64_t>{20, 21, 22}));
  EXPECT_EQ(transport_[0]->outstanding(), 0u);
}

TEST_F(TransportTest, RetransmissionRoundsCoalesceToo) {
  Build(LinkParams::Synchronous(1000), /*coalesce=*/true);
  consume_[1] = false;  // receiver refuses: every round re-offers the burst
  transport_[0]->SendReliable(SiteId(1), 30, std::make_shared<TestMsg>(5));
  transport_[0]->SendReliable(SiteId(1), 31, std::make_shared<TestMsg>(6));
  transport_[0]->SendReliable(SiteId(1), 32, std::make_shared<TestMsg>(7));
  kernel_.Run(60'000);  // several backoff rounds
  EXPECT_GE(transport_[0]->retransmissions(), 3u);
  // Every round (initial and retransmit alike) is one 3-message frame.
  EXPECT_GE(transport_[0]->coalesced_frames(), 2u);
  EXPECT_EQ(transport_[0]->coalesced_riders(),
            transport_[0]->coalesced_frames() * 2);
  EXPECT_EQ(received_[1].size(), transport_[0]->coalesced_frames() * 3);
}

// The satellite fix this PR pins: when reverse traffic (coalesced or not)
// carries the ack, the armed pure-ack timer is CANCELLED, not left to fire
// into its ack_owed re-check.
TEST_F(TransportTest, CoalescedReverseTrafficCancelsThePendingPureAck) {
  Build(LinkParams::Synchronous(1000), /*coalesce=*/true);
  transport_[0]->SendReliable(SiteId(1), 4, std::make_shared<TestMsg>(2));
  // Reverse datagram staged after delivery (t=1000) but before the pure-ack
  // delay (3000) expires; the ack attaches at its flush.
  kernel_.Schedule(1'500, [this]() {
    transport_[1]->SendDatagram(SiteId(0), std::make_shared<TestMsg>(9));
  });
  kernel_.Run(100'000);
  EXPECT_EQ(acked_[0], (std::vector<uint64_t>{4}));
  EXPECT_EQ(transport_[1]->pure_acks(), 0u);
  EXPECT_EQ(transport_[1]->piggyback_acks(), 1u);
  EXPECT_EQ(transport_[0]->outstanding(), 0u);
}

TEST_F(TransportTest, CrashDropsStagedMessages) {
  Build(LinkParams::Synchronous(1000), /*coalesce=*/true);
  transport_[0]->SendDatagram(SiteId(1), std::make_shared<TestMsg>(1));
  transport_[0]->Crash();  // before the zero-delay flush event runs
  kernel_.Run(100'000);
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(network_->stats().packets_sent, 0u);
}

// ---- Byte-level transport (codec on every send) ------------------------------
//
// A conduit that serializes like the UDP conduit: every packet it is handed
// is encoded with the codec's append API, recorded, and delivered to the
// destination as the decoded bytes. What a peer sees is exactly what the
// wire carried.
class RecordingConduit final : public Conduit {
 public:
  explicit RecordingConduit(sim::Kernel* kernel) : kernel_(kernel) {}

  struct Record {
    SiteId src;
    SiteId dst;
    std::string bytes;  // what went on the wire
  };

  void RegisterEndpoint(SiteId site, DeliveryFn deliver,
                        std::function<bool()> /*is_up*/) override {
    if (endpoints_.size() <= site.value()) {
      endpoints_.resize(site.value() + 1);
      drop_next_to_.resize(site.value() + 1, 0);
    }
    endpoints_[site.value()] = std::move(deliver);
  }

  void Send(Packet p) override {
    Record rec{p.src, p.dst, {}};
    std::string scratch;
    proto::EncodePacketTo(p, &rec.bytes, &scratch);
    uint32_t d = p.dst.value();
    std::string bytes = rec.bytes;
    sent_.push_back(std::move(rec));
    if (d >= endpoints_.size()) return;
    if (drop_next_to_[d] > 0) {
      --drop_next_to_[d];
      return;
    }
    kernel_->Schedule(1'000, [this, d, bytes = std::move(bytes)]() {
      auto decoded = proto::DecodePacket(bytes);
      if (!decoded.ok()) {
        ++decode_failures_;
        return;
      }
      endpoints_[d](*decoded);
    });
  }

  void Broadcast(SiteId, EnvelopePtr) override {}
  uint32_t num_sites() const override {
    return static_cast<uint32_t>(endpoints_.size());
  }

  sim::Kernel* kernel_;
  std::vector<DeliveryFn> endpoints_;
  std::vector<uint64_t> drop_next_to_;
  std::vector<Record> sent_;
  uint64_t decode_failures_ = 0;
};

class ByteTransportTest : public ::testing::Test {
 protected:
  ByteTransportTest() {
    Transport::Options opts;
    opts.rto_us = 10'000;
    opts.ack_delay_us = 2'000;
    for (uint32_t s = 0; s < 2; ++s) {
      transport_[s] = std::make_unique<Transport>(
          &kernel_, &conduit_, SiteId(s), &counters_[s], opts);
      Transport* t = transport_[s].get();
      conduit_.RegisterEndpoint(
          SiteId(s), [t](const Packet& p) { t->OnPacket(p); },
          []() { return true; });
      transport_[s]->set_deliver_fn([this, s](SiteId, EnvelopePtr payload) {
        received_[s].push_back(static_cast<int>(
            static_cast<const proto::VmAckMsg*>(payload.get())->vm.value()));
        return true;
      });
    }
  }

  static EnvelopePtr Msg(int v) {
    auto m = MakeEnvelope<proto::VmAckMsg>();
    m->vm = VmId(uint64_t(v));
    m->from = SiteId(0);
    m->ts_packed = 100 + uint64_t(v);
    return m;
  }

  /// Decoded frames site `src` put on the wire carrying reliable `seq`.
  std::vector<Packet> FramesWithSeq(uint32_t src, uint64_t seq) {
    std::vector<Packet> out;
    for (const auto& rec : conduit_.sent_) {
      if (rec.src != SiteId(src)) continue;
      auto p = proto::DecodePacket(rec.bytes);
      EXPECT_TRUE(p.ok()) << p.status().ToString();
      if (p.ok() && p->payload && p->reliability == Reliability::kReliable &&
          p->seq.value() == seq) {
        out.push_back(std::move(*p));
      }
    }
    return out;
  }

  sim::Kernel kernel_;
  RecordingConduit conduit_{&kernel_};
  std::unique_ptr<Transport> transport_[2];
  obs::MetricsRegistry counters_[2];
  std::vector<int> received_[2];
};

// A retransmission carries the channel state of the moment it is sent, not
// of the first send: the piggybacked ack that became owed since, and the
// seq_base that moved when an older send was cancelled.
TEST_F(ByteTransportTest, RetransmissionCarriesCurrentAckAndSeqBase) {
  conduit_.drop_next_to_[1] = 2;  // lose the first copies of A and B
  transport_[0]->SendReliable(SiteId(1), 7, Msg(1));  // A, seq 1
  transport_[0]->SendReliable(SiteId(1), 8, Msg(2));  // B, seq 2
  kernel_.Schedule(3'000, [this]() {
    // Reverse reliable traffic: site 0 now owes site 1 an ack.
    transport_[1]->SendReliable(SiteId(0), 9, Msg(3));
    // A is cancelled above the transport, so B is the oldest pending send.
    transport_[0]->CancelReliable(7);
  });
  kernel_.Run(200'000);
  EXPECT_EQ(received_[1], (std::vector<int>{2}));
  EXPECT_EQ(received_[0], (std::vector<int>{3}));
  EXPECT_EQ(conduit_.decode_failures_, 0u);
  EXPECT_GE(transport_[0]->retransmissions(), 1u);

  std::vector<Packet> frames = FramesWithSeq(0, 2);
  ASSERT_GE(frames.size(), 2u);
  // First send: A still pending below B, nothing received yet to ack.
  EXPECT_EQ(frames.front().seq_base, 1u);
  EXPECT_FALSE(frames.front().has_ack);
  // The retransmission is stamped anew.
  const Packet& re = frames.back();
  EXPECT_EQ(re.seq_base, 2u);
  EXPECT_TRUE(re.has_ack);
  EXPECT_EQ(re.ack_epoch, transport_[1]->epoch());
  EXPECT_EQ(re.ack_cum, 1u);
}

TEST(TransportDeathTest, TokenCollisionFailsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Kernel kernel;
  Network network(&kernel, 2, LinkParams::Synchronous(1000), Rng(6));
  obs::MetricsRegistry counters;
  Transport transport(&kernel, &network, SiteId(0), &counters,
                      Transport::Options{});
  transport.SendReliable(SiteId(1), 42, std::make_shared<TestMsg>(1));
  EXPECT_DEATH(
      transport.SendReliable(SiteId(1), 42, std::make_shared<TestMsg>(2)),
      "already a live reliable send");
}

}  // namespace
}  // namespace dvp::net
