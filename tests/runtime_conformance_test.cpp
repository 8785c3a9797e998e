// Conformance suite for the runtime seam: the contract runtime/runtime.h
// documents, pinned against BOTH backends — the deterministic sim kernel and
// the real event loop — through the same test bodies. If a backend drifts
// (timer ordering, cancellation semantics, storage prefix durability), it
// fails here before any protocol-level symptom appears.
//
// The real-only tests at the bottom exercise what the sim cannot: actual
// threads, actual loopback UDP, actual loss — and check that the transport's
// retransmission/dedup machinery delivers reliable payloads exactly once
// across an injected-drop conduit.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "net/transport.h"
#include "obs/metrics.h"
#include "proto/packet_codec.h"
#include "proto/wire.h"
#include "runtime/real.h"
#include "runtime/runtime.h"
#include "sim/kernel.h"
#include "system/real_cluster.h"
#include "wal/encoding.h"
#include "wal/record.h"
#include "wal/stable_storage.h"

namespace dvp {
namespace {

enum class Backend { kSim, kReal };

std::string BackendName(const ::testing::TestParamInfo<Backend>& info) {
  return info.param == Backend::kSim ? "Sim" : "Real";
}

/// Offsets used by the timer tests: far enough apart that the real loop
/// (poll granularity ~1 ms) orders them robustly, small enough that the
/// whole suite stays fast.
constexpr SimTime kTickUs = 20'000;

class RuntimeConformanceTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == Backend::kSim) {
      kernel_ = std::make_unique<sim::Kernel>();
    } else {
      loop_ = std::make_unique<runtime::EventLoop>(
          runtime::EventLoop::Clock::now(), "conformance");
      loop_->Start();
    }
  }

  void TearDown() override {
    if (loop_) loop_->Stop();
  }

  runtime::Runtime& rt() {
    return kernel_ ? static_cast<runtime::Runtime&>(*kernel_)
                   : static_cast<runtime::Runtime&>(*loop_);
  }

  /// Advances the backend until `pred` holds or `max_us` of backend time
  /// passes. Sim: steps the kernel. Real: sleeps while the loop thread works.
  bool WaitUntil(const std::function<bool()>& pred, SimTime max_us) {
    if (kernel_) {
      SimTime deadline = kernel_->Now() + max_us;
      while (!pred()) {
        if (kernel_->NextEventTime() > deadline) return pred();
        if (!kernel_->Step()) return pred();
      }
      return true;
    }
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::microseconds(max_us);
    while (!pred()) {
      if (std::chrono::steady_clock::now() >= deadline) return pred();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  std::unique_ptr<sim::Kernel> kernel_;
  std::unique_ptr<runtime::EventLoop> loop_;
};

TEST_P(RuntimeConformanceTest, NowIsMonotone) {
  SimTime a = rt().Now();
  SimTime b = rt().Now();
  EXPECT_LE(a, b);
}

TEST_P(RuntimeConformanceTest, TimersFireInDeadlineOrderWithFifoTies) {
  std::mutex mu;
  std::vector<int> order;
  auto record = [&](int i) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(i);
  };
  std::atomic<int> fired{0};
  SimTime base = rt().Now();
  // Scheduled out of deadline order; 3, 4, 5 share one deadline and must
  // fire in schedule order (the FIFO tie-break both backends promise).
  rt().ScheduleAt(base + 3 * kTickUs, [&] { record(6); ++fired; });
  rt().ScheduleAt(base + 1 * kTickUs, [&] { record(0); ++fired; });
  rt().ScheduleAt(base + 2 * kTickUs, [&] { record(3); ++fired; });
  rt().ScheduleAt(base + 2 * kTickUs, [&] { record(4); ++fired; });
  rt().ScheduleAt(base + 2 * kTickUs, [&] { record(5); ++fired; });
  rt().ScheduleAt(base + 1 * kTickUs + 1, [&] { record(1); ++fired; });
  rt().ScheduleAt(base + 1 * kTickUs + 2, [&] { record(2); ++fired; });
  ASSERT_TRUE(WaitUntil([&] { return fired.load() == 7; }, 10 * kTickUs));
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

TEST_P(RuntimeConformanceTest, CancelPreventsFiring) {
  std::atomic<bool> doomed_fired{false};
  std::atomic<bool> sentinel_fired{false};
  runtime::TimerHandle doomed =
      rt().Schedule(kTickUs, [&] { doomed_fired = true; });
  doomed.Cancel();
  EXPECT_TRUE(doomed.cancelled());
  rt().Schedule(2 * kTickUs, [&] { sentinel_fired = true; });
  ASSERT_TRUE(WaitUntil([&] { return sentinel_fired.load(); }, 10 * kTickUs));
  EXPECT_FALSE(doomed_fired.load());
}

TEST_P(RuntimeConformanceTest, CancelAfterFireIsHarmlessAndIdempotent) {
  std::atomic<int> fired{0};
  runtime::TimerHandle h = rt().Schedule(kTickUs / 2, [&] { ++fired; });
  ASSERT_TRUE(WaitUntil([&] { return fired.load() == 1; }, 10 * kTickUs));
  h.Cancel();
  h.Cancel();  // idempotent
  std::atomic<bool> sentinel{false};
  rt().Schedule(kTickUs, [&] { sentinel = true; });
  ASSERT_TRUE(WaitUntil([&] { return sentinel.load(); }, 10 * kTickUs));
  EXPECT_EQ(fired.load(), 1);
}

TEST_P(RuntimeConformanceTest, CancelFromCallbackSuppressesPendingTimers) {
  std::atomic<bool> same_tick_fired{false};
  std::atomic<bool> later_fired{false};
  std::atomic<bool> done{false};
  SimTime base = rt().Now();
  runtime::TimerHandle same_tick;
  runtime::TimerHandle later;
  // The first timer at `base + tick` cancels a timer sharing its own
  // deadline (already due, not yet run) and one strictly later — neither
  // may fire. This is the ack-timer-superseded-by-piggyback pattern.
  rt().ScheduleAt(base + kTickUs, [&] {
    same_tick.Cancel();
    later.Cancel();
  });
  same_tick = rt().ScheduleAt(base + kTickUs, [&] { same_tick_fired = true; });
  later = rt().ScheduleAt(base + 2 * kTickUs, [&] { later_fired = true; });
  rt().ScheduleAt(base + 3 * kTickUs, [&] { done = true; });
  ASSERT_TRUE(WaitUntil([&] { return done.load(); }, 10 * kTickUs));
  EXPECT_FALSE(same_tick_fired.load());
  EXPECT_FALSE(later_fired.load());
}

TEST_P(RuntimeConformanceTest, HandlesOutliveTheRuntime) {
  runtime::TimerHandle survivor;
  {
    auto scratch = std::make_unique<sim::Kernel>();
    runtime::Runtime& scratch_rt = *scratch;
    survivor = scratch_rt.Schedule(kTickUs, [] {});
  }  // runtime destroyed with the timer still queued
  survivor.Cancel();  // must not touch freed memory (ASan-visible if it did)
  EXPECT_TRUE(survivor.cancelled());
}

// Storage prefix semantics, driven from the backend's own execution context
// (a timer callback — i.e. the loop thread on the real backend): everything
// appended-buffered after the last force dies with a crash, everything
// before it survives. GroupCommitLog's correctness rests on exactly this.
TEST_P(RuntimeConformanceTest, StorageForceThenCrashKeepsDurablePrefix) {
  wal::StableStorage storage((SiteId(0)));
  std::atomic<int> stage{0};
  rt().Schedule(kTickUs / 4, [&] {
    wal::LogRecord rec = wal::VmAckedRec{VmId(1)};
    storage.Append(rec);          // forced: durable
    storage.AppendBuffered(rec);  // tail: volatile
    storage.AppendBuffered(rec);
    stage = 1;
  });
  ASSERT_TRUE(WaitUntil([&] { return stage.load() == 1; }, 10 * kTickUs));
  EXPECT_EQ(storage.log_size(), 3u);
  EXPECT_EQ(storage.durable_size(), 1u);

  rt().Schedule(kTickUs / 4, [&] {
    storage.ForceTail();  // closes the gap
    storage.AppendBuffered(wal::LogRecord{wal::VmAckedRec{VmId(2)}});
    stage = 2;
  });
  ASSERT_TRUE(WaitUntil([&] { return stage.load() == 2; }, 10 * kTickUs));
  EXPECT_EQ(storage.durable_size(), 3u);
  EXPECT_EQ(storage.unforced_records(), 1u);

  uint64_t dropped = storage.DropUnforcedTail();  // the crash
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(storage.log_size(), 3u);
  EXPECT_EQ(storage.durable_size(), 3u);
}

// Mass arm-and-cancel, from the test thread (a non-loop thread on the real
// backend): the ack-timer churn a busy transport produces. Most timers die
// before their deadline, so the queue compacts its tombstones on the next
// arm — without reordering the survivors, which still fire in deadline
// order with FIFO ties, and without letting one cancelled timer through.
TEST_P(RuntimeConformanceTest, MassCancelLeavesSurvivorsInDeadlineFifoOrder) {
  constexpr int kTimers = 1200;
  std::mutex mu;
  std::vector<int> order;
  std::atomic<int> live_fired{0};
  std::atomic<int> cancelled_fired{0};
  std::atomic<bool> done{false};
  SimTime first = rt().Now() + 10 * kTickUs;
  std::vector<runtime::TimerHandle> handles;
  std::vector<std::pair<SimTime, int>> expected;
  for (int i = 0; i < kTimers; ++i) {
    SimTime when = first + (i % 10) * 1000;
    bool keep = i % 5 == 0;
    handles.push_back(rt().ScheduleAt(when, [&, i, keep] {
      if (!keep) {
        ++cancelled_fired;
        return;
      }
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      ++live_fired;
    }));
    if (keep) expected.emplace_back(when, i);
  }
  for (int i = 0; i < kTimers; ++i) {
    if (i % 5 != 0) handles[i].Cancel();
  }
  rt().ScheduleAt(first + 10 * 1000, [&] { done = true; });
  ASSERT_TRUE(WaitUntil([&] { return done.load(); }, 40 * kTickUs));
  std::sort(expected.begin(), expected.end());  // (deadline, schedule order)
  std::vector<int> want;
  for (const auto& e : expected) want.push_back(e.second);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(live_fired.load(), kTimers / 5);
  EXPECT_EQ(cancelled_fired.load(), 0);
  EXPECT_EQ(order, want);
}

INSTANTIATE_TEST_SUITE_P(Backends, RuntimeConformanceTest,
                         ::testing::Values(Backend::kSim, Backend::kReal),
                         BackendName);

// ---- Real-runtime-only: the transport over actual lossy UDP ----------------

TEST(RealTransportTest, ReliableSendsDeliverExactlyOnceUnderUdpDrops) {
  constexpr uint32_t kMessages = 40;
  runtime::Real::Options opts;
  opts.net.drop_one_in = 3;  // every third datagram vanishes before the wire
  runtime::Real real(2, opts);

  obs::MetricsRegistry metrics0, metrics1;
  net::Transport::Options topts;
  topts.rto_us = 20'000;  // retransmit fast so the test settles quickly
  topts.rto_max_us = 100'000;
  net::Transport t0(&real.loop(SiteId(0)), &real.conduit(), SiteId(0),
                    &metrics0, topts);
  net::Transport t1(&real.loop(SiteId(1)), &real.conduit(), SiteId(1),
                    &metrics1, topts);

  std::mutex mu;
  std::vector<uint64_t> delivered;  // vm ids in delivery order
  t1.set_deliver_fn([&](SiteId from, net::EnvelopePtr payload) {
    EXPECT_EQ(from, SiteId(0));
    auto* ack = static_cast<const proto::VmAckMsg*>(payload.get());
    std::lock_guard<std::mutex> lock(mu);
    delivered.push_back(ack->vm.value());
    return true;
  });
  t0.set_deliver_fn([](SiteId, net::EnvelopePtr) { return true; });

  std::atomic<uint32_t> acked{0};
  t0.set_ack_fn([&](uint64_t) { acked.fetch_add(1); });

  real.conduit().RegisterEndpoint(
      SiteId(0), [&t0](const net::Packet& p) { t0.OnPacket(p); },
      [] { return true; });
  real.conduit().RegisterEndpoint(
      SiteId(1), [&t1](const net::Packet& p) { t1.OnPacket(p); },
      [] { return true; });
  real.Start();

  // All sends from site 0's loop thread — the transport is single-threaded
  // per site by design, exactly like every other protocol component.
  for (uint32_t i = 0; i < kMessages; ++i) {
    real.loop(SiteId(0)).Post([&t0, i] {
      auto msg = net::MakeEnvelope<proto::VmAckMsg>();
      msg->vm = VmId(i);
      msg->from = SiteId(0);
      t0.SendReliable(SiteId(1), /*token=*/i, std::move(msg));
    });
  }

  // Settled = every payload acked back to the sender (so retransmission
  // stopped), not merely delivered.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (acked.load() < kMessages &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  uint64_t outstanding = 1;
  real.RunOn(SiteId(0), [&] { outstanding = t0.outstanding(); });
  real.Stop();

  EXPECT_EQ(acked.load(), kMessages);
  EXPECT_EQ(outstanding, 0u);
  // Exactly once: all messages present, none twice, despite ~1/3 loss.
  std::set<uint64_t> unique(delivered.begin(), delivered.end());
  EXPECT_EQ(delivered.size(), kMessages);
  EXPECT_EQ(unique.size(), kMessages);
  for (uint32_t i = 0; i < kMessages; ++i) EXPECT_TRUE(unique.count(i));
  // The drop injector actually bit: some datagrams were eaten, and the
  // transport visibly retransmitted around them.
  EXPECT_GT(real.conduit().stats().datagrams_dropped_injected, 0u);
  EXPECT_GT(t0.retransmissions(), 0u);
  // Every send encodes its packet; nothing is replayed.
  EXPECT_EQ(real.conduit().stats().frame_cache_hits, 0u);
}

// Conc2 needs the sim's atomic ordered broadcast; the UDP conduit's is a
// best-effort fan-out, so a real cluster refuses the scheme outright.
TEST(RealClusterDeathTest, RefusesConc2AtConstruction) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::Catalog catalog;
  catalog.AddItem("stock", core::CountDomain::Instance(), 100);
  system::RealClusterOptions opts;
  opts.num_sites = 2;
  opts.site.txn.scheme = cc::CcScheme::kConc2;
  EXPECT_DEATH({ system::RealCluster cluster(&catalog, opts); }, "Conc2");
}

// Any local socket can send the conduit a CRC-valid frame. One that names a
// site outside the cluster, or is addressed to another site, must be
// dropped and counted before it reaches the transport: delivered, it would
// owe the stranger an ack, or ship a Vm to a forged request's origin (and
// UdpConduit::Send indexes its per-site state by that id).
TEST(UdpConduitTest, DropsFramesNamingSitesOutsideTheCluster) {
  runtime::Real real(2);
  std::mutex mu;
  std::vector<net::Packet> delivered;
  real.conduit().RegisterEndpoint(
      SiteId(0),
      [&](const net::Packet& p) {
        std::lock_guard<std::mutex> lock(mu);
        delivered.push_back(p);
      },
      [] { return true; });
  real.conduit().RegisterEndpoint(
      SiteId(1), [](const net::Packet&) {}, [] { return true; });
  real.Start();

  auto request_from = [](uint32_t src, uint32_t dst, uint32_t origin) {
    net::Packet p;
    p.src = SiteId(src);
    p.dst = SiteId(dst);
    auto req = net::MakeEnvelope<proto::RequestMsg>();
    req->txn = TxnId(5);
    req->origin = SiteId(origin);
    req->parts.push_back(proto::RequestPart{ItemId(0), 3, false});
    p.payload = std::move(req);
    return proto::EncodePacket(p);
  };
  // src = 2^32: the frame of a valid src-0 packet with its one-byte src
  // varint replaced and the checksum recomputed. Narrowed, it would be 0.
  std::string wide_body = request_from(0, 0, 0).substr(5);
  std::string wide_src;
  wal::PutVarint64(&wide_src, uint64_t{1} << 32);
  wide_body = wide_src + wide_body;
  std::string wide;
  wal::PutFixed32(&wide, wal::Crc32c(wide_body));
  wide += wide_body;

  const std::vector<std::string> forged = {
      request_from(7, 0, 7),  // src is no site of the cluster
      request_from(1, 1, 1),  // addressed to site 1, arrived at site 0
      request_from(1, 0, 9),  // a Vm for the request would go to site 9
      wide,
  };
  const std::string genuine = request_from(1, 0, 1);

  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  to.sin_port = htons(real.conduit().port(SiteId(0)));
  for (const std::string* frame : {&forged[0], &forged[1], &forged[2],
                                   &forged[3], &genuine}) {
    ASSERT_EQ(::sendto(fd, frame->data(), frame->size(), 0,
                       reinterpret_cast<sockaddr*>(&to), sizeof to),
              static_cast<ssize_t>(frame->size()));
  }
  ::close(fd);

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (real.conduit().stats().datagrams_received < forged.size() + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  real.Stop();

  EXPECT_EQ(real.conduit().stats().datagrams_received, forged.size() + 1);
  EXPECT_EQ(real.conduit().stats().decode_errors, forged.size());
  ASSERT_EQ(delivered.size(), 1u);  // only the genuine frame
  EXPECT_EQ(delivered[0].src, SiteId(1));
}

// A send to a site id outside the cluster is lost and counted in every
// build, never used as an index into the per-site ports.
TEST(UdpConduitTest, SendToNoClusterSiteIsCountedAsASendError) {
  runtime::Real real(2);
  net::Packet p;
  p.src = SiteId(0);
  p.dst = SiteId(9);
  auto ack = net::MakeEnvelope<proto::VmAckMsg>();
  ack->from = SiteId(0);
  p.payload = std::move(ack);
  real.conduit().Send(std::move(p));
  EXPECT_EQ(real.conduit().stats().send_errors, 1u);
  EXPECT_EQ(real.conduit().stats().datagrams_sent, 0u);
}

// A syscall the real runtime cannot work without is refused in every build
// type, naming the call: without its wakeup pipe a loop would wake only on
// its poll ceiling, without its socket a site would never receive, and a
// failing poll() would end the loop thread and leave its site dead. Each
// case lowers the descriptor limit inside the death-test child only.
void LimitOpenFiles(rlim_t n) {
  // First build one runtime with the limit intact: UBSan's vptr check probes
  // memory through a pipe the first time it meets a class, and caches the
  // answer, so it must meet the runtime's classes while fds remain.
  { runtime::Real warm(1); }
  rlimit rl{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &rl), 0);
  rl.rlim_cur = n;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &rl), 0);
}

TEST(RealRuntimeDeathTest, AbortsWhenTheWakeupPipeCannotBeMade) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        LimitOpenFiles(0);
        runtime::Real real(1);
      },
      "pipe\\(\\) failed");
}

TEST(RealRuntimeDeathTest, AbortsWhenASiteSocketCannotBeMade) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        runtime::EventLoop loop(runtime::EventLoop::Clock::now(), "site-0");
        LimitOpenFiles(0);
        runtime::UdpConduit conduit({&loop}, {});
      },
      "socket\\(\\) failed");
}

TEST(RealRuntimeDeathTest, AbortsWhenPollFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        runtime::Real real(1);
        real.Start();
        // poll() refuses more descriptors than the limit (EINVAL): the
        // loop's next wait fails with its wakeup pipe and socket polled.
        LimitOpenFiles(1);
        std::this_thread::sleep_for(std::chrono::seconds(5));
      },
      "poll\\(\\) failed");
}

// The packet byte codec round-trips the wire shapes the conduit ships. (The
// fuzz suite hammers the decoder; this pins the happy path end to end.)
TEST(PacketCodecTest, RoundTripsACoalescedFrameWithAcksAndHints) {
  net::Packet p;
  p.src = SiteId(2);
  p.dst = SiteId(0);
  p.reliability = net::Reliability::kReliable;
  p.epoch = 7;
  p.seq = MsgSeq(41);
  p.seq_base = 40;
  p.has_ack = true;
  p.ack_epoch = 3;
  p.ack_cum = 99;
  p.trace_id = 1234;
  p.hints.push_back(net::PlacementHint{ItemId(5), 100, -20, 77});
  auto transfer = net::MakeEnvelope<proto::VmTransferMsg>();
  transfer->vm = VmId(9000);
  transfer->src = SiteId(2);
  transfer->item = ItemId(5);
  transfer->amount = -12;
  transfer->for_txn = TxnId(55);
  transfer->ts_packed = 424242;
  transfer->closed_below = 8999;
  transfer->trace_id = 1234;
  p.payload = std::move(transfer);
  auto rider = net::MakeEnvelope<proto::GatherNackMsg>();
  rider->from = SiteId(2);
  rider->reason = proto::GatherNackMsg::Reason::kCc;
  rider->item = ItemId(5);
  rider->ts_packed = 31337;
  p.extra.push_back(
      net::SubMsg{net::Reliability::kDatagram, MsgSeq(0), std::move(rider)});

  std::string frame = proto::EncodePacket(p);
  StatusOr<net::Packet> rt = proto::DecodePacket(frame);
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  EXPECT_EQ(rt->src, p.src);
  EXPECT_EQ(rt->dst, p.dst);
  EXPECT_EQ(rt->reliability, net::Reliability::kReliable);
  EXPECT_EQ(rt->epoch, 7u);
  EXPECT_EQ(rt->seq, MsgSeq(41));
  EXPECT_EQ(rt->seq_base, 40u);
  EXPECT_TRUE(rt->has_ack);
  EXPECT_EQ(rt->ack_cum, 99u);
  EXPECT_EQ(rt->trace_id, 1234u);
  ASSERT_EQ(rt->hints.size(), 1u);
  EXPECT_EQ(rt->hints[0].surplus, 100);
  EXPECT_EQ(rt->hints[0].demand, -20);
  ASSERT_TRUE(rt->payload);
  auto* out = static_cast<const proto::VmTransferMsg*>(rt->payload.get());
  EXPECT_EQ(out->vm, VmId(9000));
  EXPECT_EQ(out->amount, -12);
  EXPECT_EQ(out->closed_below, 8999u);
  EXPECT_EQ(out->trace_id, 1234u);
  ASSERT_EQ(rt->extra.size(), 1u);
  auto* nack =
      static_cast<const proto::GatherNackMsg*>(rt->extra[0].payload.get());
  EXPECT_EQ(nack->reason, proto::GatherNackMsg::Reason::kCc);
  EXPECT_EQ(nack->item, ItemId(5));
  EXPECT_EQ(nack->ts_packed, 31337u);

  // Defensive decode: flip a byte anywhere and the checksum rejects it.
  std::string corrupt = frame;
  corrupt[frame.size() / 2] ^= 0x40;
  EXPECT_FALSE(proto::DecodePacket(corrupt).ok());
  EXPECT_FALSE(proto::DecodePacket(std::string_view(frame).substr(0, 3)).ok());
}

}  // namespace
}  // namespace dvp
