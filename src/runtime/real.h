// The real backend of the runtime seam: one OS thread per site, a monotonic
// steady clock, poll()-driven timers, and loopback UDP datagrams framed with
// the packet byte codec. The protocol sources that run here are byte-for-byte
// the ones the sim kernel runs — the seam (runtime::Runtime, net::Conduit)
// is the only thing that changes underneath them.
//
// What carries over from the sim and what does not:
//  * Per-site single-threadedness carries over: every timer, every delivery
//    for a site runs on that site's one loop thread, so the protocol state
//    stays lock-free exactly as in the kernel.
//  * Loss, reordering, and duplication are real now; the transport's
//    retransmission/dedup machinery — exercised for years under the sim's
//    fault models — is what makes the system correct on top of them.
//  * Determinism does NOT carry over. A real run is not replayable; the
//    kernel remains the correctness oracle (chaos swarm, pinned benches).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.h"
#include "net/conduit.h"
#include "runtime/runtime.h"

namespace dvp::obs {
class MetricsRegistry;
}

namespace dvp::runtime {

/// One site's runtime: a thread, a timer heap, and a poll() loop over a
/// wakeup pipe plus any registered sockets. Implements the Runtime seam with
/// a monotonic steady clock (microseconds since a shared epoch, so every
/// loop in one process agrees on Now() to within clock-read jitter).
///
/// Thread model: ScheduleAt and TimerHandle::Cancel are safe from any
/// thread; callbacks (timers and fd handlers) run on the loop thread only,
/// one at a time. RegisterFd must happen before Start().
class EventLoop final : public Runtime {
 public:
  using Clock = std::chrono::steady_clock;

  EventLoop(Clock::time_point epoch, std::string name);
  ~EventLoop() override;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Microseconds since the shared epoch. Monotone by construction.
  SimTime Now() const override;

  /// Schedules `fn` at absolute time `when` (clamped to now if already
  /// past). Thread-safe; wakes the loop when the new timer becomes the
  /// earliest. Timers with equal deadlines fire in schedule order (FIFO
  /// tie-break, matching the kernel).
  TimerHandle ScheduleAt(SimTime when, std::function<void()> fn) override;

  /// Runs `fn` on the loop thread as soon as possible. The marshalling
  /// primitive: cross-thread calls into a site's protocol state go through
  /// here (submission from a driver thread, deliveries from a peer's loop in
  /// tests).
  void Post(std::function<void()> fn) { ScheduleAt(0, std::move(fn)); }

  /// Registers a readable-event handler for `fd` (a nonblocking socket).
  /// Must be called before Start(); the handler runs on the loop thread.
  void RegisterFd(int fd, std::function<void()> on_readable);

  /// Registers a pre-poll hook: runs on the loop thread once per loop
  /// iteration, after due timers have fired and before the loop blocks in
  /// poll(). The UDP conduit drains its staged datagrams here, so everything
  /// a timer quantum produced leaves in one batched syscall. Must be called
  /// before Start().
  void AddFlushFn(std::function<void()> fn);

  /// Starts the loop thread. Timers scheduled before Start() fire after it.
  void Start();

  /// Stops and joins the loop thread. Idempotent; safe from any thread
  /// except the loop thread itself (a callback asking its own loop to stop
  /// would self-join). Pending timers are discarded.
  void Stop();

  bool running() const { return started_.load(std::memory_order_acquire); }
  bool OnLoopThread() const {
    return std::this_thread::get_id() == thread_.get_id();
  }
  const std::string& name() const { return name_; }

  /// Timer callbacks executed (loop thread writes, anyone reads).
  uint64_t timers_fired() const {
    return timers_fired_.load(std::memory_order_relaxed);
  }

 private:
  struct Timer {
    SimTime when;
    uint64_t seq;  // FIFO tie-break; unique, so the order is total
    std::function<void()> fn;
    std::shared_ptr<TimerState> state;
  };
  /// "a fires later than b" — min-heap via std::push_heap/pop_heap.
  struct Later {
    bool operator()(const Timer& a, const Timer& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void Run();
  void Wake();
  /// Pops the next due live timer (cancelled tops are retired and
  /// discarded). Returns false and reports the next deadline (or
  /// kSimTimeMax) when nothing is due.
  bool PopDue(SimTime now, Timer* out, SimTime* next_when);

  const Clock::time_point epoch_;
  const std::string name_;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [0] polled, [1] written
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  std::atomic<uint64_t> timers_fired_{0};

  mutable std::mutex mu_;
  std::vector<Timer> heap_;  // guarded by mu_
  uint64_t next_seq_ = 0;    // guarded by mu_
  struct FdHandler {
    int fd;
    std::function<void()> on_readable;
  };
  std::vector<FdHandler> fd_handlers_;  // set before Start, read by the loop
  std::vector<std::function<void()>> flush_fns_;  // ditto
};

/// The transport endpoint of the real runtime: one loopback UDP socket per
/// site, packets framed by proto::EncodePacket/DecodePacket. A site's
/// datagrams are received and decoded on that site's own loop thread, so
/// delivery lands in the protocol exactly where a kernel delivery event
/// would. Loss is real (and injectable); a frame that fails to decode, or
/// names a site outside the cluster, is dropped silently — precisely the
/// paper's lossy-channel model.
class UdpConduit final : public net::Conduit {
 public:
  struct Options {
    /// Drop every Nth outgoing datagram before it reaches the socket
    /// (0 = off). Counter-based, so a fixed workload sees a fixed drop
    /// pattern — the real-runtime analogue of the sim's loss probability.
    uint64_t drop_one_in = 0;
    /// Batched syscalls: stage outgoing datagrams per loop iteration and
    /// drain them through one sendmmsg() before the loop blocks; read with
    /// recvmmsg() into a reused buffer set. Off = one sendto()/recv() per
    /// datagram (the portability fallback, also the PR 9 baseline the
    /// latency bench compares against). Non-Linux builds always take the
    /// single-shot path regardless of this flag.
    bool batch_io = true;
    /// Encode-once: answer WantsFrameCache so the transport attaches a
    /// FrameCache to reliable sends (retransmissions replay the first
    /// encoding), encode broadcast fan-outs once and patch only the
    /// destination, and reuse per-site scratch buffers so the steady-state
    /// datagram path allocates nothing. Off = every send encodes into a
    /// fresh heap string (the PR 9 baseline).
    bool frame_cache = true;
  };

  struct Stats {
    uint64_t datagrams_sent = 0;
    uint64_t datagrams_dropped_injected = 0;
    uint64_t send_errors = 0;       ///< hard send failures, and sends to
                                    ///< no cluster site (silent loss)
    uint64_t send_soft_errors = 0;  ///< EAGAIN/ENOBUFS backpressure drops
    uint64_t oversize_frames = 0;   ///< frames > kMaxDatagram, never sent
    uint64_t datagrams_received = 0;
    uint64_t decode_errors = 0;  ///< frames rejected by the codec, or
                                 ///< naming a site outside the cluster
    uint64_t dropped_down = 0;   ///< destination's is_up() said no
    uint64_t send_syscalls = 0;  ///< sendto + sendmmsg calls
    uint64_t recv_syscalls = 0;  ///< recv + recvmmsg calls
    uint64_t frames_encoded = 0;     ///< actual EncodePacket* executions
    uint64_t frame_cache_hits = 0;   ///< sends that replayed cached bytes
    uint64_t broadcast_legs = 0;     ///< fan-out destinations attempted
    uint64_t broadcast_payload_encodes = 0;  ///< shared tails built (once
                                             ///< per fan-out, not per leg)
    uint64_t frame_buffer_allocs = 0;  ///< frame/batch buffer heap growths
  };

  /// One loop per site; sockets are created (bound to 127.0.0.1, ephemeral
  /// ports) and registered on their site's loop here, before any Start().
  UdpConduit(std::vector<EventLoop*> loops, Options options);
  ~UdpConduit() override;

  UdpConduit(const UdpConduit&) = delete;
  UdpConduit& operator=(const UdpConduit&) = delete;

  void RegisterEndpoint(SiteId site, net::DeliveryFn deliver,
                        std::function<bool()> is_up) override;
  void Send(net::Packet packet) override;
  /// Best-effort datagram fan-out. NOT the sim's loss-free atomic ordered
  /// broadcast — Conc2 soundness does not carry over (see net/conduit.h).
  /// With Options::frame_cache the shared body is encoded once and only the
  /// destination field (and checksum) is patched per leg.
  void Broadcast(SiteId src, net::EnvelopePtr payload) override;
  uint32_t num_sites() const override {
    return static_cast<uint32_t>(loops_.size());
  }
  bool WantsFrameCache() const override { return options_.frame_cache; }

  uint16_t port(SiteId site) const;
  Stats stats() const;
  /// Publishes a stats() snapshot into `metrics` as "udp.*" gauges. Pull
  /// style on purpose: the counters are atomics fed from every loop thread,
  /// while MetricsRegistry handles are unsynchronized — call this from one
  /// thread at quiescence (end of run), not from the hot path. Idempotent.
  void ExportStats(obs::MetricsRegistry* metrics) const;

 private:
  struct Endpoint {
    net::DeliveryFn deliver;
    std::function<bool()> is_up;
  };

  /// Per-site send-side scratch, touched only from that site's loop thread
  /// (every Transport action for a site runs there). All buffers are
  /// clear()ed, never shrunk, so their capacities warm up once and the
  /// steady-state path stops allocating.
  struct SendState {
    /// Staged outgoing datagrams, contiguous. Frames are copied in at stage
    /// time (not referenced) so a pending-send cache entry freed before the
    /// flush — cum-acked or cancelled — can never dangle under an iovec.
    std::string batch;
    struct Range {
      size_t off;
      size_t len;
      uint32_t dst;
    };
    std::vector<Range> staged;
    std::string frame;        ///< encode target for uncached frames
    std::string env_scratch;  ///< nested envelope blobs (codec scratch)
    std::string bcast_tail;   ///< shared broadcast body (after dst field)
  };

  /// Reads every pending datagram off `site`'s socket (loop thread only).
  void DrainSocket(uint32_t site);
  /// Decode + deliver one received frame (shared by both I/O modes).
  void HandleFrame(uint32_t site, const char* data, size_t len);
  /// True when the packet was claimed by injected drop (counter bumped).
  bool DropInjected();
  /// Stages `len` bytes for dst (batched mode on the loop thread) or sends
  /// them immediately (fallback mode, foreign threads, stopped loops).
  void StageOrSend(uint32_t src, uint32_t dst, const char* data, size_t len);
  /// One classified sendto: EINTR retried, EAGAIN/ENOBUFS soft, rest hard.
  void SendNow(uint32_t src, uint32_t dst, const char* data, size_t len);
  /// Drains site's staged datagrams through sendmmsg (pre-poll hook).
  void FlushSends(uint32_t site);
  /// Tracks capacity growth of a reused buffer across an append/encode.
  void NoteBufferGrowth(size_t cap_before, size_t cap_after);

  std::vector<EventLoop*> loops_;
  Options options_;
  std::vector<int> fds_;
  std::vector<uint16_t> ports_;
  std::vector<Endpoint> endpoints_;
  std::vector<std::unique_ptr<SendState>> send_states_;
  /// Per-site recvmmsg buffer set, lazily sized on first drain.
  struct RecvState;
  std::vector<std::unique_ptr<RecvState>> recv_states_;
  std::atomic<uint64_t> send_counter_{0};

  std::atomic<uint64_t> datagrams_sent_{0};
  std::atomic<uint64_t> datagrams_dropped_injected_{0};
  std::atomic<uint64_t> send_errors_{0};
  std::atomic<uint64_t> send_soft_errors_{0};
  std::atomic<uint64_t> oversize_frames_{0};
  std::atomic<uint64_t> datagrams_received_{0};
  std::atomic<uint64_t> decode_errors_{0};
  std::atomic<uint64_t> dropped_down_{0};
  std::atomic<uint64_t> send_syscalls_{0};
  std::atomic<uint64_t> recv_syscalls_{0};
  std::atomic<uint64_t> frames_encoded_{0};
  std::atomic<uint64_t> frame_cache_hits_{0};
  std::atomic<uint64_t> broadcast_legs_{0};
  std::atomic<uint64_t> broadcast_payload_encodes_{0};
  std::atomic<uint64_t> frame_buffer_allocs_{0};
};

/// The whole real runtime for an n-site system: a shared clock epoch, one
/// EventLoop per site, and the UDP conduit wiring them together. Owns
/// nothing protocol-level — sites are composed on top exactly as they are on
/// the kernel (see system::RealCluster).
class Real {
 public:
  struct Options {
    UdpConduit::Options net;
  };

  explicit Real(uint32_t num_sites, Options options = {});
  ~Real();

  Real(const Real&) = delete;
  Real& operator=(const Real&) = delete;

  EventLoop& loop(SiteId site) { return *loops_[site.value()]; }
  UdpConduit& conduit() { return *conduit_; }
  uint32_t num_sites() const { return static_cast<uint32_t>(loops_.size()); }

  /// Microseconds since construction (the epoch every loop shares).
  SimTime Now() const;

  void Start();
  void Stop();

  /// Runs `fn` on `site`'s loop thread and blocks until it returns. The
  /// synchronous marshalling helper drivers use to touch protocol state.
  void RunOn(SiteId site, std::function<void()> fn);

 private:
  EventLoop::Clock::time_point epoch_;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::unique_ptr<UdpConduit> conduit_;
};

}  // namespace dvp::runtime
