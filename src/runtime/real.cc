#include "runtime/real.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
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

/// A syscall the runtime cannot do without failed. Refused in every build
/// type: a loop without its wakeup pipe would only wake on its poll ceiling,
/// a site without its socket would never receive, a loop whose poll() fails
/// would return and leave its site dead — each silently.
[[noreturn]] void DieOnSyscall(const char* call, const std::string& where) {
  int err = errno;
  std::fprintf(stderr, "runtime: %s: %s() failed: %s (errno %d)\n",
               where.c_str(), call, std::strerror(err), err);
  std::abort();
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

// ---- EventLoop -------------------------------------------------------------

EventLoop::EventLoop(Clock::time_point epoch, std::string name)
    : epoch_(epoch), name_(std::move(name)) {
  if (::pipe(wake_fds_) != 0) DieOnSyscall("pipe", name_);
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
  TimerHandle handle;
  bool wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The new timer needs a wakeup only when it becomes the earliest —
    // otherwise the loop's current poll deadline already covers it.
    wake = when < queue_.TopTime();
    handle = queue_.Push(when, std::move(fn));
  }
  if (wake && started_.load(std::memory_order_acquire) && !OnLoopThread()) {
    Wake();
  }
  return handle;
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

void EventLoop::Run() {
  // The polled set is fixed once the loop starts; poll() rewrites revents.
  std::vector<pollfd> pfds{pollfd{wake_fds_[0], POLLIN, 0}};
  for (const FdHandler& h : fd_handlers_) pfds.push_back({h.fd, POLLIN, 0});
  while (true) {
    // Drain every due timer, re-reading the clock as we go: a callback may
    // schedule an immediate follow-up that is due in the same pass.
    TimerQueue::Entry timer;
    SimTime next_when;
    while (true) {
      SimTime now = Now();
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!queue_.PopDue(now, &timer)) {
          next_when = queue_.NextTime();
          break;
        }
      }
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

    // Wait until the next deadline, rounded up to whole ms, at most the
    // ceiling (an empty queue's kSimTimeMax included).
    SimTime delta_us = std::min<SimTime>(next_when - Now(), kMaxPollMs * 1000);
    int timeout_ms =
        static_cast<int>(std::max<SimTime>((delta_us + 999) / 1000, 0));
    int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      DieOnSyscall("poll", name_);
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
    const std::string& where = loops_[s]->name();
    int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) DieOnSyscall("socket", where);
    fds_[s] = fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      DieOnSyscall("bind", where);
    }
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      DieOnSyscall("getsockname", where);
    }
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
  frames_encoded_.fetch_add(1, std::memory_order_relaxed);
  if (!loops_[src]->OnLoopThread()) {
    // Off the loop thread (a test driving the conduit directly, a stopped
    // loop) the per-site buffers are not ours to touch: encode into a local
    // string and send at once.
    std::string frame = proto::EncodePacket(packet);
    frame_buffer_allocs_.fetch_add(1, std::memory_order_relaxed);
    if (frame.size() > kMaxDatagram) {
      oversize_frames_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    SendNow(src, dst, frame.data(), frame.size());
    return;
  }
  // Encode in place behind the frames already staged this loop iteration;
  // FlushSends sends them all before the loop next blocks.
  SendState& st = *send_states_[src];
  size_t cap_before = st.batch.capacity() + st.env_scratch.capacity();
  size_t off = st.batch.size();
  proto::EncodePacketTo(packet, &st.batch, &st.env_scratch);
  NoteBufferGrowth(cap_before, st.batch.capacity() + st.env_scratch.capacity());
  size_t len = st.batch.size() - off;
  if (len > kMaxDatagram) {
    oversize_frames_.fetch_add(1, std::memory_order_relaxed);
    st.batch.resize(off);
    return;
  }
  st.staged.push_back(SendState::Range{off, len, dst});
}

void UdpConduit::Broadcast(SiteId src, net::EnvelopePtr payload) {
  for (uint32_t d = 0; d < num_sites(); ++d) {
    if (d == src.value()) continue;
    broadcast_legs_.fetch_add(1, std::memory_order_relaxed);
    net::Packet p;
    p.src = src;
    p.dst = SiteId(d);
    p.reliability = net::Reliability::kDatagram;
    p.trace_id = payload ? payload->trace_id : 0;
    p.payload = payload;
    Send(std::move(p));
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
                  rs.bufs.data() + static_cast<size_t>(i) * RecvState::kBufSize,
                  rs.msgs[i].msg_len);
    }
    if (n < RecvState::kBatch) return;  // socket drained
  }
#else
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
#endif
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
  s.broadcast_legs = broadcast_legs_.load(std::memory_order_relaxed);
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
  set("udp.broadcast_legs", s.broadcast_legs);
  set("udp.frame_buffer_allocs", s.frame_buffer_allocs);
}

// ---- Real ------------------------------------------------------------------

Real::Real(uint32_t num_sites, Options options) {
  const EventLoop::Clock::time_point epoch = EventLoop::Clock::now();
  loops_.reserve(num_sites);
  std::vector<EventLoop*> raw;
  raw.reserve(num_sites);
  for (uint32_t s = 0; s < num_sites; ++s) {
    loops_.push_back(std::make_unique<EventLoop>(
        epoch, "site-" + std::to_string(s)));
    raw.push_back(loops_.back().get());
  }
  conduit_ = std::make_unique<UdpConduit>(std::move(raw), options.net);
}

Real::~Real() { Stop(); }

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
