#include "net/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/metrics.hpp"
#include "support/clock.hpp"
#include "support/thread_name.hpp"

namespace bsk::net {

namespace {

// Process-wide dataplane counters, aggregated across every live transport
// (per-connection figures stay in TransportStats).
struct NetObs {
  obs::Counter& frames_sent =
      obs::counter("bsk_net_frames_sent_total", "frames written to the wire");
  obs::Counter& frames_received = obs::counter(
      "bsk_net_frames_received_total", "non-heartbeat frames decoded");
  obs::Counter& bytes_sent =
      obs::counter("bsk_net_bytes_sent_total", "payload bytes written (TCP)");
  obs::Counter& bytes_received = obs::counter(
      "bsk_net_bytes_received_total", "payload bytes read (TCP)");
  obs::Counter& crc_errors = obs::counter(
      "bsk_net_crc_errors_total", "frames dropped for checksum mismatch");
  obs::Counter& decode_errors = obs::counter(
      "bsk_net_decode_errors_total",
      "connections killed by an unrecoverable framing error");
};

NetObs& net_obs() {
  static NetObs o;
  return o;
}

}  // namespace

double wall_now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

// --------------------------------------------------------------- sendqueue

std::vector<std::uint8_t>& SendQueue::back_slab() {
  if (slabs_.empty() || slabs_.back().data.size() >= kSlabBytes) {
    Slab s;
    if (!spares_.empty()) {
      s.data = std::move(spares_.back());
      spares_.pop_back();
      s.data.clear();
    } else {
      s.data.reserve(kSlabBytes);
    }
    slabs_.push_back(std::move(s));
  }
  return slabs_.back().data;
}

void SendQueue::append_frame(const Frame& f) {
  auto& slab = back_slab();
  const std::size_t before = slab.size();
  encode_frame_into(f, slab);
  bytes_ += slab.size() - before;
}

void SendQueue::take_all(SendQueue& from) {
  while (!from.slabs_.empty()) {
    slabs_.push_back(std::move(from.slabs_.front()));
    from.slabs_.pop_front();
  }
  bytes_ += from.bytes_;
  from.bytes_ = 0;
}

void SendQueue::give_spares(SendQueue& to) {
  while (!spares_.empty() && to.spares_.size() < kMaxSpares) {
    to.spares_.push_back(std::move(spares_.back()));
    spares_.pop_back();
  }
  spares_.clear();
}

std::size_t SendQueue::gather(iovec* iov, std::size_t max) const {
  std::size_t n = 0;
  for (const Slab& s : slabs_) {
    if (n == max) break;
    const std::size_t len = s.data.size() - s.off;
    if (len == 0) continue;
    iov[n].iov_base = const_cast<std::uint8_t*>(s.data.data() + s.off);
    iov[n].iov_len = len;
    ++n;
  }
  return n;
}

void SendQueue::consume(std::size_t n) {
  bytes_ -= n;
  while (n > 0) {
    Slab& s = slabs_.front();
    const std::size_t len = s.data.size() - s.off;
    if (n < len) {
      s.off += n;
      return;
    }
    n -= len;
    if (spares_.size() < kMaxSpares) spares_.push_back(std::move(s.data));
    slabs_.pop_front();
  }
}

void SendQueue::clear() {
  slabs_.clear();
  spares_.clear();
  bytes_ = 0;
}

// --------------------------------------------------------------- transport

bool Transport::send_serialized(FrameType type, std::size_t n,
                                const SerializeFn& emit) {
  if (n == 0) return !closed();
  // Default path: materialize Frames and defer to send_many. Decorators
  // (chaos FaultInjector) inherit this, so zero-copy call sites still pass
  // through fault injection frame by frame.
  std::vector<Frame> fs(n);
  for (std::size_t i = 0; i < n; ++i) {
    fs[i].type = type;
    wire::Writer w;
    emit(i, w);
    fs[i].payload = w.take();
  }
  return send_many(fs.data(), n);
}

// ------------------------------------------------------------------ inproc

InprocTransport::Pair InprocTransport::make_pair(std::size_t capacity) {
  auto q1 = std::make_shared<Queue>(capacity);
  auto q2 = std::make_shared<Queue>(capacity);
  Pair p;
  p.a = std::shared_ptr<InprocTransport>(new InprocTransport(q1, q2));
  p.b = std::shared_ptr<InprocTransport>(new InprocTransport(q2, q1));
  return p;
}

bool InprocTransport::send(const Frame& f) {
  for (;;) {
    if (out_->closed.load(std::memory_order_acquire) ||
        in_->closed.load(std::memory_order_acquire))
      return false;
    // Serialize producers: the ring itself is strictly single-producer.
    while (out_->producer_lock.test_and_set(std::memory_order_acquire))
      std::this_thread::yield();
    const bool pushed = !out_->closed.load(std::memory_order_acquire) &&
                        out_->ring.push(f);
    out_->producer_lock.clear(std::memory_order_release);
    if (pushed) {
      frames_sent_.fetch_add(1, std::memory_order_relaxed);
      net_obs().frames_sent.inc();
      return true;
    }
    if (out_->closed.load(std::memory_order_acquire)) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(20));  // ring full
  }
}

RecvStatus InprocTransport::recv_until(Frame& out, bool bounded,
                                       double wall_seconds) {
  const double deadline = wall_now() + wall_seconds;
  for (;;) {
    if (auto f = in_->ring.pop()) {
      if (f->type == FrameType::Heartbeat) {
        heartbeats_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      out = std::move(*f);
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      net_obs().frames_received.inc();
      return RecvStatus::Ok;
    }
    if (in_->closed.load(std::memory_order_acquire) && in_->ring.empty())
      return RecvStatus::Closed;
    if (bounded && wall_now() >= deadline) return RecvStatus::TimedOut;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

RecvStatus InprocTransport::recv(Frame& out) {
  return recv_until(out, /*bounded=*/false, 0.0);
}

RecvStatus InprocTransport::recv_for(Frame& out, double wall_seconds) {
  return recv_until(out, /*bounded=*/true, wall_seconds);
}

void InprocTransport::close() {
  out_->closed.store(true, std::memory_order_release);
  in_->closed.store(true, std::memory_order_release);
}

bool InprocTransport::closed() const {
  return out_->closed.load(std::memory_order_acquire) ||
         in_->closed.load(std::memory_order_acquire);
}

TransportStats InprocTransport::stats() const {
  TransportStats s;
  s.frames_sent = frames_sent_.load();
  s.frames_received = frames_received_.load();
  s.heartbeats_seen = heartbeats_.load();
  return s;
}

// --------------------------------------------------------------------- tcp

namespace {

void set_nonblock(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

TcpTransport::TcpTransport(int fd, TcpOptions opts)
    : fd_(fd),
      opts_(opts),
      decoder_(opts.max_frame),
      inbound_(opts.inbound_capacity) {
  last_rx_wall_.store(wall_now());
  set_nonblock(fd_);
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (::pipe(wake_pipe_) == 0) {
    set_nonblock(wake_pipe_[0]);
    set_nonblock(wake_pipe_[1]);
  }
  io_ = std::jthread([this] {
    support::set_thread_name("tcp-io");
    io_loop();
  });
}

std::unique_ptr<TcpTransport> TcpTransport::connect(const std::string& host,
                                                    std::uint16_t port,
                                                    TcpOptions opts) {
  for (int attempt = 0; attempt <= opts.connect_retries; ++attempt) {
    if (attempt > 0)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(opts.retry_backoff_s));

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) continue;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      return nullptr;  // bad address: retrying cannot help
    }
    set_nonblock(fd);
    const int rc =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    if (rc == 0)
      return std::make_unique<TcpTransport>(fd, opts);
    if (errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      const int timeout_ms = static_cast<int>(opts.connect_timeout_s * 1000.0);
      if (::poll(&pfd, 1, timeout_ms) == 1) {
        int err = 0;
        socklen_t len = sizeof err;
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err == 0) return std::make_unique<TcpTransport>(fd, opts);
      }
    }
    ::close(fd);
  }
  return nullptr;
}

TcpTransport::~TcpTransport() {
  close();
  if (io_.joinable()) io_.join();
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void TcpTransport::wake() {
  if (wake_pipe_[1] >= 0) {
    const char c = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &c, 1);
  }
}

void TcpTransport::shutdown_fd() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

bool TcpTransport::send(const Frame& f) {
  return send_many(&f, 1);
}

bool TcpTransport::send_many(const Frame* fs, std::size_t n) {
  if (n == 0) return !closed_.load(std::memory_order_acquire);
  if (closed_.load(std::memory_order_acquire)) return false;
  {
    // Encode the whole batch straight into the send-queue slabs: one lock,
    // one wake, one (or few) kernel writes — the wire face of the
    // dataplane's credit-window pipelining.
    support::MutexLock lk(out_mu_);
    if (closed_.load(std::memory_order_acquire)) return false;
    for (std::size_t i = 0; i < n; ++i) outq_.append_frame(fs[i]);
  }
  frames_sent_.fetch_add(n, std::memory_order_relaxed);
  net_obs().frames_sent.inc(n);
  wake();
  return true;
}

bool TcpTransport::send_serialized(FrameType type, std::size_t n,
                                   const SerializeFn& emit) {
  if (n == 0) return !closed_.load(std::memory_order_acquire);
  if (closed_.load(std::memory_order_acquire)) return false;
  {
    // Zero-copy path: serializers write straight into the send slabs — no
    // Frame, no payload vector, no per-frame allocation once slabs warm up.
    support::MutexLock lk(out_mu_);
    if (closed_.load(std::memory_order_acquire)) return false;
    for (std::size_t i = 0; i < n; ++i)
      outq_.build_frame(type, [&](wire::Writer& w) { emit(i, w); });
  }
  frames_sent_.fetch_add(n, std::memory_order_relaxed);
  net_obs().frames_sent.inc(n);
  wake();
  return true;
}

void TcpTransport::io_loop() {
  // Private send queue: slabs are swapped out of outq_ under the lock, the
  // gather-write below runs lock-free, and drained slab storage is donated
  // back so steady-state sending allocates nothing.
  SendQueue pending;
  std::uint8_t rbuf[64 * 1024];
  double closing_since = -1.0;
  bool dead = false;

  while (!dead) {
    bool want_write;
    {
      support::MutexLock lk(out_mu_);
      if (pending.empty()) {
        pending.give_spares(outq_);
        if (!outq_.empty()) pending.take_all(outq_);
      }
      want_write = !pending.empty();
    }

    if (closed_.load(std::memory_order_acquire)) {
      if (!want_write) break;  // flushed: orderly shutdown
      if (closing_since < 0.0)
        closing_since = wall_now();
      else if (wall_now() - closing_since > 1.0)
        break;  // peer not draining; give up on the tail
    }

    pollfd fds[2] = {
        {fd_, static_cast<short>(POLLIN | (want_write ? POLLOUT : 0)), 0},
        {wake_pipe_[0], POLLIN, 0},
    };
    const int rc = ::poll(fds, 2, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }

    if (fds[1].revents & POLLIN) {
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof drain) > 0) {
      }
    }

    if (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
      for (;;) {
        const ssize_t n = ::read(fd_, rbuf, sizeof rbuf);
        if (n > 0) {
          bytes_received_.fetch_add(static_cast<std::uint64_t>(n),
                                    std::memory_order_relaxed);
          net_obs().bytes_received.inc(static_cast<std::uint64_t>(n));
          last_rx_wall_.store(wall_now(), std::memory_order_relaxed);
          decoder_.feed(rbuf, static_cast<std::size_t>(n));
          while (auto f = decoder_.next()) {
            if (f->type == FrameType::Heartbeat) {
              heartbeats_.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            frames_received_.fetch_add(1, std::memory_order_relaxed);
            net_obs().frames_received.inc();
            if (!inbound_.push(std::move(*f))) {
              dead = true;  // closed locally while we blocked
              break;
            }
          }
          if (decoder_.error() != DecodeError::None) {
            decode_error_.store(decoder_.error(), std::memory_order_relaxed);
            if (decoder_.error() == DecodeError::BadCrc)
              net_obs().crc_errors.inc();
            net_obs().decode_errors.inc();
            dead = true;  // corrupt stream: framing is untrustworthy
          }
          if (dead) break;
          continue;
        }
        if (n == 0) {  // EOF: peer closed
          dead = true;
          break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        dead = true;  // hard socket error
        break;
      }
    }

    if (!dead && want_write && (fds[0].revents & POLLOUT)) {
      // Scatter/gather flush: one sendmsg over every queued slab span.
      // (sendmsg, not writev — only sendmsg takes MSG_NOSIGNAL, and a peer
      // that vanished mid-write must surface as EPIPE here, never as a
      // process-killing SIGPIPE.) A short write consumes exactly what the
      // kernel accepted and the next POLLOUT resumes mid-span; EINTR
      // retries on the spot.
      for (;;) {
        iovec iov[SendQueue::kMaxIov];
        const std::size_t cnt = pending.gather(iov, SendQueue::kMaxIov);
        if (cnt == 0) break;
        std::size_t gathered = 0;
        for (std::size_t i = 0; i < cnt; ++i) gathered += iov[i].iov_len;
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = cnt;
        const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
        if (n > 0) {
          pending.consume(static_cast<std::size_t>(n));
          bytes_sent_.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
          net_obs().bytes_sent.inc(static_cast<std::uint64_t>(n));
          if (static_cast<std::size_t>(n) < gathered)
            break;   // short write: wait for the next POLLOUT
          continue;  // more slabs than iovecs: keep flushing
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) dead = true;
        break;
      }
    }
  }

  closed_.store(true, std::memory_order_release);
  inbound_.close();  // consumers drain parsed frames, then see Closed
  shutdown_fd();
}

RecvStatus TcpTransport::recv(Frame& out) {
  return inbound_.pop(out) == support::ChannelStatus::Ok ? RecvStatus::Ok
                                                         : RecvStatus::Closed;
}

RecvStatus TcpTransport::recv_for(Frame& out, double wall_seconds) {
  // Channel timeouts are simulated-time; scale so the wait is wall time.
  const auto d =
      support::SimDuration(wall_seconds * support::Clock::scale());
  switch (inbound_.pop_for(out, d)) {
    case support::ChannelStatus::Ok:
      return RecvStatus::Ok;
    case support::ChannelStatus::Closed:
      return RecvStatus::Closed;
    case support::ChannelStatus::TimedOut:
      return RecvStatus::TimedOut;
  }
  return RecvStatus::TimedOut;
}

void TcpTransport::close() {
  closed_.store(true, std::memory_order_release);
  inbound_.close();
  wake();
}

bool TcpTransport::closed() const {
  return closed_.load(std::memory_order_acquire);
}

double TcpTransport::idle_seconds() const {
  return wall_now() - last_rx_wall_.load(std::memory_order_relaxed);
}

TransportStats TcpTransport::stats() const {
  TransportStats s;
  s.frames_sent = frames_sent_.load();
  s.frames_received = frames_received_.load();
  s.bytes_sent = bytes_sent_.load();
  s.bytes_received = bytes_received_.load();
  s.heartbeats_seen = heartbeats_.load();
  return s;
}

// ---------------------------------------------------------------- listener

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd_, 64) != 0) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    port_ = ntohs(bound.sin_port);
}

TcpListener::~TcpListener() { close(); }

std::unique_ptr<TcpTransport> TcpListener::accept_for(double wall_seconds,
                                                      TcpOptions opts) {
  if (fd_ < 0) return nullptr;
  const int timeout_ms =
      wall_seconds < 0.0 ? -1 : static_cast<int>(wall_seconds * 1000.0);
  pollfd pfd{fd_, POLLIN, 0};
  const int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc != 1) return nullptr;
  const int cfd = ::accept(fd_, nullptr, nullptr);
  if (cfd < 0) return nullptr;
  return std::make_unique<TcpTransport>(cfd, opts);
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace bsk::net
