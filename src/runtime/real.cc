#include "runtime/real.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <future>

#include "net/backoff.h"
#include "obs/metrics.h"
#include "proto/packet_codec.h"

namespace dvp::runtime {

namespace {

/// Largest UDP payload we ever put on the wire. Loopback takes close to
/// 64 KiB; coalesced DvP frames are a few hundred bytes, so a frame that
/// exceeds this is a bug upstream — it is dropped and counted, not split.
constexpr size_t kMaxDatagram = 65000;

/// poll() ceiling so the loop re-checks its stop flag even if a wakeup write
/// were ever lost; normal shutdown is pipe-driven and immediate.
constexpr int kMaxPollMs = 100;

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

// ---- EventLoop -------------------------------------------------------------

EventLoop::EventLoop(Clock::time_point epoch, std::string name)
    : epoch_(epoch), name_(std::move(name)) {
  [[maybe_unused]] int rc = ::pipe(wake_fds_);
  assert(rc == 0 && "pipe() failed");
  SetNonBlocking(wake_fds_[0]);
  SetNonBlocking(wake_fds_[1]);
}

EventLoop::~EventLoop() {
  Stop();
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

SimTime EventLoop::Now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch_)
      .count();
}

TimerHandle EventLoop::ScheduleAt(SimTime when, std::function<void()> fn) {
  auto state = std::make_shared<TimerState>();
  bool wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The new timer needs a wakeup only when it becomes the earliest —
    // otherwise the loop's current poll deadline already covers it.
    wake = heap_.empty() || when < heap_.front().when;
    heap_.push_back(Timer{when, next_seq_++, std::move(fn), state});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  if (wake && started_.load(std::memory_order_acquire) && !OnLoopThread()) {
    Wake();
  }
  return TimerHandle(std::move(state));
}

void EventLoop::RegisterFd(int fd, std::function<void()> on_readable) {
  assert(!running() && "RegisterFd must precede Start()");
  SetNonBlocking(fd);
  fd_handlers_.push_back(FdHandler{fd, std::move(on_readable)});
}

void EventLoop::AddFlushFn(std::function<void()> fn) {
  assert(!running() && "AddFlushFn must precede Start()");
  flush_fns_.push_back(std::move(fn));
}

void EventLoop::Start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) return;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
}

void EventLoop::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  assert(!OnLoopThread() && "a loop cannot join itself");
  stop_.store(true, std::memory_order_release);
  Wake();
  if (thread_.joinable()) thread_.join();
  started_.store(false, std::memory_order_release);
}

void EventLoop::Wake() {
  char byte = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

bool EventLoop::PopDue(SimTime now, Timer* out, SimTime* next_when) {
  std::lock_guard<std::mutex> lock(mu_);
  while (!heap_.empty()) {
    Timer& top = heap_.front();
    if (top.state->cancelled.load(std::memory_order_acquire)) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.back().state->Retire();
      heap_.pop_back();
      continue;
    }
    if (top.when > now) {
      *next_when = top.when;
      return false;
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    *out = std::move(heap_.back());
    heap_.pop_back();
    out->state->Retire();
    return true;
  }
  *next_when = kSimTimeMax;
  return false;
}

void EventLoop::Run() {
  std::vector<pollfd> pfds;
  pfds.reserve(1 + fd_handlers_.size());
  while (true) {
    // Drain every due timer, re-reading the clock as we go: a callback may
    // schedule an immediate follow-up that is due in the same pass.
    SimTime next_when = kSimTimeMax;
    Timer timer;
    while (PopDue(Now(), &timer, &next_when)) {
      // Cancelled-after-pop is indistinguishable from cancelled-after-fire
      // (the documented race); run it — PopDue filtered the settled cases.
      timer.fn();
      timers_fired_.fetch_add(1, std::memory_order_relaxed);
      if (stop_.load(std::memory_order_acquire)) return;
    }
    if (stop_.load(std::memory_order_acquire)) return;

    // Pre-poll flush: everything the timer quantum staged (e.g. the UDP
    // conduit's outgoing datagrams) leaves before the loop blocks. Work
    // staged by the fd handlers below reaches here on the next iteration,
    // still strictly before any blocking wait.
    for (const auto& flush : flush_fns_) flush();

    int timeout_ms = kMaxPollMs;
    if (next_when != kSimTimeMax) {
      SimTime delta_us = next_when - Now();
      if (delta_us <= 0) {
        timeout_ms = 0;
      } else {
        timeout_ms = static_cast<int>(
            std::min<SimTime>((delta_us + 999) / 1000, kMaxPollMs));
      }
    }

    pfds.clear();
    pfds.push_back(pollfd{wake_fds_[0], POLLIN, 0});
    for (const FdHandler& h : fd_handlers_) {
      pfds.push_back(pollfd{h.fd, POLLIN, 0});
    }
    int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      assert(false && "poll() failed");
      return;
    }
    if (pfds[0].revents & POLLIN) {
      char buf[64];
      while (::read(wake_fds_[0], buf, sizeof buf) > 0) {
      }
    }
    for (size_t i = 1; i < pfds.size(); ++i) {
      if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
        fd_handlers_[i - 1].on_readable();
        if (stop_.load(std::memory_order_acquire)) return;
      }
    }
  }
}

// ---- UdpConduit ------------------------------------------------------------

/// recvmmsg buffer set: enough for a burst without unbounded memory. Lazily
/// allocated per site on first drain, reused for the socket's lifetime.
struct UdpConduit::RecvState {
  static constexpr int kBatch = 8;
  static constexpr size_t kBufSize = 65536;
  std::vector<char> bufs;  // kBatch contiguous datagram buffers
#ifdef __linux__
  mmsghdr msgs[kBatch];
  iovec iovs[kBatch];
#endif
};

UdpConduit::UdpConduit(std::vector<EventLoop*> loops, Options options)
    : loops_(std::move(loops)), options_(options) {
  uint32_t n = num_sites();
  fds_.resize(n, -1);
  ports_.resize(n, 0);
  endpoints_.resize(n);
  send_states_.resize(n);
  recv_states_.resize(n);
  for (uint32_t s = 0; s < n; ++s) {
    send_states_[s] = std::make_unique<SendState>();
    recv_states_[s] = std::make_unique<RecvState>();
    int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    assert(fd >= 0 && "socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral
    [[maybe_unused]] int rc =
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    assert(rc == 0 && "bind() failed");
    socklen_t len = sizeof addr;
    rc = ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    assert(rc == 0 && "getsockname() failed");
    fds_[s] = fd;
    ports_[s] = ntohs(addr.sin_port);
    loops_[s]->RegisterFd(fd, [this, s] { DrainSocket(s); });
    loops_[s]->AddFlushFn([this, s] { FlushSends(s); });
  }
}

UdpConduit::~UdpConduit() {
  for (int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

bool UdpConduit::DropInjected() {
  if (options_.drop_one_in == 0) return false;
  // Hash the counter instead of taking it mod N: a plain modulus drops a
  // strictly periodic pattern, which can phase-lock with periodic traffic
  // (a fixed-size retransmit burst followed by one pure ack loses the ack
  // every round — a livelock no real network produces). The hash keeps the
  // 1/N rate and the determinism without the periodicity.
  uint64_t n = send_counter_.fetch_add(1, std::memory_order_relaxed);
  if (net::backoff::Mix(n) % options_.drop_one_in != 0) return false;
  datagrams_dropped_injected_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void UdpConduit::NoteBufferGrowth(size_t cap_before, size_t cap_after) {
  if (cap_after != cap_before) {
    frame_buffer_allocs_.fetch_add(1, std::memory_order_relaxed);
  }
}

void UdpConduit::SendNow(uint32_t src, uint32_t dst, const char* data,
                         size_t len) {
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  to.sin_port = htons(ports_[dst]);
  for (;;) {
    ssize_t n = ::sendto(fds_[src], data, len, 0,
                         reinterpret_cast<sockaddr*>(&to), sizeof to);
    send_syscalls_.fetch_add(1, std::memory_order_relaxed);
    if (n >= 0) {
      datagrams_sent_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
      // Backpressure: the kernel's buffers are full right now. Loss is
      // silent by contract; reliable classes ride retransmission.
      send_soft_errors_.fetch_add(1, std::memory_order_relaxed);
    } else {
      send_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
}

void UdpConduit::StageOrSend(uint32_t src, uint32_t dst, const char* data,
                             size_t len) {
#ifdef __linux__
  if (options_.batch_io && loops_[src]->running() &&
      loops_[src]->OnLoopThread()) {
    SendState& st = *send_states_[src];
    size_t cap_before = st.batch.capacity();
    size_t off = st.batch.size();
    st.batch.append(data, len);
    NoteBufferGrowth(cap_before, st.batch.capacity());
    st.staged.push_back(SendState::Range{off, len, dst});
    return;
  }
#endif
  SendNow(src, dst, data, len);
}

void UdpConduit::FlushSends(uint32_t site) {
  SendState& st = *send_states_[site];
  if (st.staged.empty()) return;
#ifdef __linux__
  // One loop thread per site, so thread_local arrays are per-site and their
  // capacity survives across flushes — no allocation in steady state.
  thread_local std::vector<mmsghdr> msgs;
  thread_local std::vector<iovec> iovs;
  thread_local std::vector<sockaddr_in> addrs;
  size_t n = st.staged.size();
  msgs.resize(n);
  iovs.resize(n);
  addrs.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const SendState::Range& r = st.staged[i];
    iovs[i].iov_base = st.batch.data() + r.off;
    iovs[i].iov_len = r.len;
    addrs[i] = sockaddr_in{};
    addrs[i].sin_family = AF_INET;
    addrs[i].sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addrs[i].sin_port = htons(ports_[r.dst]);
    msgs[i] = mmsghdr{};
    msgs[i].msg_hdr.msg_name = &addrs[i];
    msgs[i].msg_hdr.msg_namelen = sizeof addrs[i];
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
  }
  size_t done = 0;
  while (done < n) {
    int sent = ::sendmmsg(fds_[site], msgs.data() + done,
                          static_cast<unsigned>(n - done), 0);
    send_syscalls_.fetch_add(1, std::memory_order_relaxed);
    if (sent < 0) {
      if (errno == EINTR) continue;
      // The datagram at `done` failed. Classify it, drop it, press on with
      // the rest — one bad destination must not strand the whole batch.
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
        send_soft_errors_.fetch_add(1, std::memory_order_relaxed);
      } else {
        send_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      ++done;
      continue;
    }
    datagrams_sent_.fetch_add(static_cast<uint64_t>(sent),
                              std::memory_order_relaxed);
    if (sent == 0) ++done;  // defensive: never spin without progress
    done += static_cast<size_t>(sent);
  }
#else
  for (const SendState::Range& r : st.staged) {
    SendNow(site, r.dst, st.batch.data() + r.off, r.len);
  }
#endif
  st.staged.clear();
  st.batch.clear();
}

void UdpConduit::Send(net::Packet packet) {
  // Every build checks: dst indexes the per-site ports and state below.
  if (packet.dst.value() >= num_sites()) {
    send_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (DropInjected()) return;
  uint32_t src = packet.src.value();
  uint32_t dst = packet.dst.value();
  if (!options_.frame_cache || !loops_[src]->OnLoopThread()) {
    // Legacy path (also the thread-safe one for foreign-thread callers in
    // tests): fresh heap string per frame, exactly the PR 9 cost model the
    // latency bench uses as its baseline.
    std::string frame = proto::EncodePacket(packet);
    frames_encoded_.fetch_add(1, std::memory_order_relaxed);
    frame_buffer_allocs_.fetch_add(1, std::memory_order_relaxed);
    if (frame.size() > kMaxDatagram) {
      oversize_frames_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (loops_[src]->OnLoopThread()) {
      StageOrSend(src, dst, frame.data(), frame.size());
    } else {
      SendNow(src, dst, frame.data(), frame.size());
    }
    return;
  }
  SendState& st = *send_states_[src];
  net::FrameCache* fc = packet.frame_cache.get();
  const std::string* bytes;
  if (fc && !fc->bytes.empty()) {
    // Encode-once payoff: a retransmission whose channel-state fingerprint
    // still matches (the transport validated it in SendOnWire) replays the
    // first encoding byte for byte.
    frame_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    bytes = &fc->bytes;
  } else {
    std::string* out = fc ? &fc->bytes : &st.frame;
    size_t cap_before = out->capacity() + st.env_scratch.capacity();
    out->clear();
    proto::EncodePacketTo(packet, out, &st.env_scratch);
    NoteBufferGrowth(cap_before, out->capacity() + st.env_scratch.capacity());
    frames_encoded_.fetch_add(1, std::memory_order_relaxed);
    bytes = out;
  }
  if (bytes->size() > kMaxDatagram) {
    oversize_frames_.fetch_add(1, std::memory_order_relaxed);
    if (fc) fc->bytes.clear();  // never replay an unsendable frame
    return;
  }
  StageOrSend(src, dst, bytes->data(), bytes->size());
}

void UdpConduit::Broadcast(SiteId src, net::EnvelopePtr payload) {
  uint32_t s = src.value();
  if (!options_.frame_cache || !loops_[s]->OnLoopThread()) {
    for (uint32_t d = 0; d < num_sites(); ++d) {
      if (d == s) continue;
      broadcast_legs_.fetch_add(1, std::memory_order_relaxed);
      broadcast_payload_encodes_.fetch_add(1, std::memory_order_relaxed);
      net::Packet p;
      p.src = src;
      p.dst = SiteId(d);
      p.reliability = net::Reliability::kDatagram;
      p.trace_id = payload ? payload->trace_id : 0;
      p.payload = payload;
      Send(std::move(p));
    }
    return;
  }
  // Fast path: CRC | src | dst | rest — only dst and the checksum differ per
  // leg, so the rest (including the payload envelope) is encoded exactly
  // once into the shared tail and spliced per destination.
  SendState& st = *send_states_[s];
  net::Packet p;
  p.src = src;
  p.dst = src;  // template; the real destination is patched per leg
  p.reliability = net::Reliability::kDatagram;
  p.trace_id = payload ? payload->trace_id : 0;
  p.payload = std::move(payload);
  st.bcast_tail.clear();
  for (uint32_t d = 0; d < num_sites(); ++d) {
    if (d == s) continue;
    broadcast_legs_.fetch_add(1, std::memory_order_relaxed);
    if (DropInjected()) continue;
    size_t cap_before = st.frame.capacity() + st.bcast_tail.capacity() +
                        st.env_scratch.capacity();
    bool builds_tail = st.bcast_tail.empty();
    st.frame.clear();
    proto::EncodePacketWithDstTo(p, SiteId(d), &st.frame, &st.bcast_tail,
                                 &st.env_scratch);
    NoteBufferGrowth(cap_before, st.frame.capacity() +
                                     st.bcast_tail.capacity() +
                                     st.env_scratch.capacity());
    if (builds_tail) {
      broadcast_payload_encodes_.fetch_add(1, std::memory_order_relaxed);
    }
    frames_encoded_.fetch_add(1, std::memory_order_relaxed);
    if (st.frame.size() > kMaxDatagram) {
      oversize_frames_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    StageOrSend(s, d, st.frame.data(), st.frame.size());
  }
}

void UdpConduit::HandleFrame(uint32_t site, const char* data, size_t len) {
  datagrams_received_.fetch_add(1, std::memory_order_relaxed);
  StatusOr<net::Packet> packet =
      proto::DecodePacket(std::string_view(data, len));
  // Any socket can send a CRC-valid frame; one naming a site outside the
  // cluster must not reach the transport, which would ack it or ship a Vm.
  if (!packet.ok() ||
      !proto::AddressedWithin(*packet, SiteId(site), num_sites())) {
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const Endpoint& ep = endpoints_[site];
  if (!ep.deliver || (ep.is_up && !ep.is_up())) {
    dropped_down_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ep.deliver(*packet);
}

void UdpConduit::RegisterEndpoint(SiteId site, net::DeliveryFn deliver,
                                  std::function<bool()> is_up) {
  assert(site.value() < endpoints_.size());
  endpoints_[site.value()] =
      Endpoint{std::move(deliver), std::move(is_up)};
}

void UdpConduit::DrainSocket(uint32_t site) {
#ifdef __linux__
  if (options_.batch_io) {
    RecvState& rs = *recv_states_[site];
    if (rs.bufs.empty()) {
      // First drain on this socket: size the reused buffer set once.
      rs.bufs.resize(RecvState::kBatch * RecvState::kBufSize);
      for (int i = 0; i < RecvState::kBatch; ++i) {
        rs.iovs[i].iov_base = rs.bufs.data() + i * RecvState::kBufSize;
        rs.iovs[i].iov_len = RecvState::kBufSize;
        rs.msgs[i] = mmsghdr{};
        rs.msgs[i].msg_hdr.msg_iov = &rs.iovs[i];
        rs.msgs[i].msg_hdr.msg_iovlen = 1;
      }
    }
    for (;;) {
      int n = ::recvmmsg(fds_[site], rs.msgs, RecvState::kBatch, MSG_DONTWAIT,
                         nullptr);
      recv_syscalls_.fetch_add(1, std::memory_order_relaxed);
      if (n < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN (drained) or transient error: treat as loss
      }
      for (int i = 0; i < n; ++i) {
        HandleFrame(site,
                    rs.bufs.data() + static_cast<size_t>(i) *
                                         RecvState::kBufSize,
                    rs.msgs[i].msg_len);
      }
      if (n < RecvState::kBatch) return;  // socket drained
    }
  }
#endif
  char buf[65536];
  for (;;) {
    ssize_t n = ::recv(fds_[site], buf, sizeof buf, 0);
    recv_syscalls_.fetch_add(1, std::memory_order_relaxed);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient socket error: treat as loss
    }
    HandleFrame(site, buf, static_cast<size_t>(n));
  }
}

uint16_t UdpConduit::port(SiteId site) const {
  assert(site.value() < ports_.size());
  return ports_[site.value()];
}

UdpConduit::Stats UdpConduit::stats() const {
  Stats s;
  s.datagrams_sent = datagrams_sent_.load(std::memory_order_relaxed);
  s.datagrams_dropped_injected =
      datagrams_dropped_injected_.load(std::memory_order_relaxed);
  s.send_errors = send_errors_.load(std::memory_order_relaxed);
  s.send_soft_errors = send_soft_errors_.load(std::memory_order_relaxed);
  s.oversize_frames = oversize_frames_.load(std::memory_order_relaxed);
  s.datagrams_received = datagrams_received_.load(std::memory_order_relaxed);
  s.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  s.dropped_down = dropped_down_.load(std::memory_order_relaxed);
  s.send_syscalls = send_syscalls_.load(std::memory_order_relaxed);
  s.recv_syscalls = recv_syscalls_.load(std::memory_order_relaxed);
  s.frames_encoded = frames_encoded_.load(std::memory_order_relaxed);
  s.frame_cache_hits = frame_cache_hits_.load(std::memory_order_relaxed);
  s.broadcast_legs = broadcast_legs_.load(std::memory_order_relaxed);
  s.broadcast_payload_encodes =
      broadcast_payload_encodes_.load(std::memory_order_relaxed);
  s.frame_buffer_allocs = frame_buffer_allocs_.load(std::memory_order_relaxed);
  return s;
}

void UdpConduit::ExportStats(obs::MetricsRegistry* metrics) const {
  if (!metrics) return;
  Stats s = stats();
  auto set = [&](const char* name, uint64_t v) {
    metrics->gauge(name)->Set(static_cast<int64_t>(v));
  };
  set("udp.datagrams_sent", s.datagrams_sent);
  set("udp.datagrams_dropped_injected", s.datagrams_dropped_injected);
  set("udp.send_errors", s.send_errors);
  set("udp.send_soft_errors", s.send_soft_errors);
  set("udp.oversize_frames", s.oversize_frames);
  set("udp.datagrams_received", s.datagrams_received);
  set("udp.decode_errors", s.decode_errors);
  set("udp.dropped_down", s.dropped_down);
  set("udp.send_syscalls", s.send_syscalls);
  set("udp.recv_syscalls", s.recv_syscalls);
  set("udp.frames_encoded", s.frames_encoded);
  set("udp.frame_cache_hits", s.frame_cache_hits);
  set("udp.broadcast_legs", s.broadcast_legs);
  set("udp.broadcast_payload_encodes", s.broadcast_payload_encodes);
  set("udp.frame_buffer_allocs", s.frame_buffer_allocs);
}

// ---- Real ------------------------------------------------------------------

Real::Real(uint32_t num_sites, Options options)
    : epoch_(EventLoop::Clock::now()) {
  loops_.reserve(num_sites);
  std::vector<EventLoop*> raw;
  raw.reserve(num_sites);
  for (uint32_t s = 0; s < num_sites; ++s) {
    loops_.push_back(std::make_unique<EventLoop>(
        epoch_, "site-" + std::to_string(s)));
    raw.push_back(loops_.back().get());
  }
  conduit_ = std::make_unique<UdpConduit>(std::move(raw), options.net);
}

Real::~Real() { Stop(); }

SimTime Real::Now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             EventLoop::Clock::now() - epoch_)
      .count();
}

void Real::Start() {
  for (auto& loop : loops_) loop->Start();
}

void Real::Stop() {
  for (auto& loop : loops_) loop->Stop();
}

void Real::RunOn(SiteId site, std::function<void()> fn) {
  std::promise<void> done;
  std::future<void> wait = done.get_future();
  loop(site).Post([&fn, &done] {
    fn();
    done.set_value();
  });
  wait.get();
}

}  // namespace dvp::runtime
