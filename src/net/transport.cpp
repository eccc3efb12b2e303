#include "net/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <optional>
#include <thread>

#include "net/reactor.hpp"
#include "obs/metrics.hpp"
#include "support/channel.hpp"
#include "support/clock.hpp"

namespace bsk::net {

namespace {

// Process-wide dataplane counters, aggregated across every live transport
// (per-connection figures stay in TransportStats).
struct NetObs {
  obs::Counter& frames_sent =
      obs::counter("bsk_net_frames_sent_total", "frames written to the wire");
  obs::Counter& frames_received = obs::counter(
      "bsk_net_frames_received_total", "non-heartbeat frames decoded");
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

// --------------------------------------------------------------------- tcp

namespace {

void set_nonblock(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

/// One TcpTransport's connection, shared by the transport and the loop so
/// the loop never touches a destroyed transport.
struct TcpConn : Link {
  TcpConn(int fd, const TcpOptions& o)
      : Link(fd, o.max_frame), inbound(o.inbound_capacity) {}

  support::Channel<Frame> inbound;
  std::optional<Frame> stalled;     ///< loop thread only: refused by inbound
  std::atomic<bool> paused{false};  ///< reads stopped until recv makes room
  std::atomic<bool> closed{false};
  std::atomic<DecodeError> decode_error{DecodeError::None};
  std::atomic<std::uint64_t> frames_sent{0};
  std::atomic<std::uint64_t> frames_received{0};
  std::atomic<std::uint64_t> heartbeats{0};

  /// The connection is over: recv drains what was parsed, then Closed.
  void end() {
    closed.store(true, std::memory_order_release);
    inbound.close();
  }
};

/// The loop every TcpTransport of the process registers on. The first
/// transport starts it; the last one to go joins it once every closing
/// connection has flushed or spent its grace. The loop runs no user code,
/// so it never drops the last reference itself.
class TcpReactor final : public Reactor {
 public:
  static std::shared_ptr<TcpReactor> acquire() {
    static support::Mutex mu{"TcpReactor.instance"};
    static std::weak_ptr<TcpReactor> current;
    support::MutexLock lk(mu);
    auto r = current.lock();
    if (!r) {
      r = std::make_shared<TcpReactor>();
      current = r;
    }
    return r;
  }

  TcpReactor() { start_loop("tcp-loop"); }
  ~TcpReactor() override { stop_loop(); }

  void add(const std::shared_ptr<TcpConn>& c) {
    if (!attach(c)) c->end();
  }

  /// Any thread: have the loop look at `c` (close() began, or recv made
  /// room in a full inbound queue).
  void poke(const std::shared_ptr<TcpConn>& c) {
    {
      support::MutexLock lk(mu_);
      pokes_.push_back(c);
    }
    wake();
  }

 private:
  void on_event(std::uint64_t tag, std::uint32_t events) override {
    auto c = std::static_pointer_cast<TcpConn>(link(tag));
    if (!c) return;  // reaped earlier in this batch
    if ((events & EPOLLOUT) && c->on_writable())
      reap(*c);
    else if (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR))
      read(*c);
  }

  int on_tick(double now) override {
    std::vector<std::shared_ptr<TcpConn>> pokes;
    {
      support::MutexLock lk(mu_);
      pokes.swap(pokes_);
    }
    for (auto& c : pokes) {
      read(*c);
      if (std::find(closing_.begin(), closing_.end(), c) == closing_.end())
        closing_.push_back(std::move(c));
    }
    std::erase_if(closing_, [&](const std::shared_ptr<TcpConn>& c) {
      {
        support::MutexLock lk(c->mu);
        if (c->fd < 0 || !c->want_close) return true;  // gone, or a recv poke
        c->flush_locked();
        if (!c->done_locked(now)) return false;  // flushing inside the grace
      }
      reap(*c);
      return true;
    });
    return closing_.empty() ? -1 : 10;
  }

  bool drained() override { return link_count() == 0; }

  /// Deliver decoded frames into the inbound queue until the socket runs
  /// dry or the queue fills; a full queue parks the connection (no further
  /// reads) until recv pokes it.
  void read(TcpConn& c) {
    if (c.reaped()) return;
    if (c.stalled) {
      Frame f = std::move(*c.stalled);
      c.stalled.reset();
      if (!deliver(c, f)) return;
    }
    const auto end = c.read([&](Frame& f) {
      if (f.type == FrameType::Heartbeat) {
        c.heartbeats.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      // Counted before it is queued: a recv that pops it sees it counted.
      c.frames_received.fetch_add(1, std::memory_order_relaxed);
      net_obs().frames_received.inc();
      return deliver(c, f);
    });
    if (end == Link::ReadEnd::Closed) {
      c.decode_error.store(c.decoder.error(), std::memory_order_relaxed);
      reap(c);
    }
  }

  /// Queue `f` for recv. False when the queue is full: `f` is parked in
  /// `stalled` and so is the connection.
  static bool deliver(TcpConn& c, Frame& f) {
    auto st = c.inbound.push_for(f, support::SimDuration(0));
    if (st == support::ChannelStatus::TimedOut) {  // full
      // Flag, then try once more: a recv that frees space after this
      // second try fails is ordered after it by the queue's mutex, so it
      // sees the flag and pokes the loop.
      c.paused.store(true);
      st = c.inbound.push_for(f, support::SimDuration(0));
      if (st == support::ChannelStatus::TimedOut) {
        c.stalled = std::move(f);
        return false;
      }
      c.paused.store(false);
    }
    return true;  // queued, or Closed: nobody will recv it
  }

  void reap(TcpConn& c) {
    if (!detach(c)) return;
    c.end();
    if (link_count() == 0) wake();  // a stopping loop exits once drained
  }

  support::Mutex mu_{"TcpReactor.pokes"};
  std::vector<std::shared_ptr<TcpConn>> pokes_ BSK_GUARDED_BY(mu_);
  std::vector<std::shared_ptr<TcpConn>> closing_;  // loop thread only
};

TcpTransport::TcpTransport(int fd, TcpOptions opts)
    : reactor_(TcpReactor::acquire()),
      conn_(std::make_shared<TcpConn>(fd, opts)) {
  set_nonblock(fd);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  reactor_->add(conn_);
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

TcpTransport::~TcpTransport() { close(); }

template <typename Encode>
bool TcpTransport::enqueue(std::size_t n, Encode&& encode) {
  if (conn_->closed.load(std::memory_order_acquire)) return false;
  if (n == 0) return true;
  if (!conn_->enqueue(encode)) {
    conn_->end();  // closing, reaped, or the flush hit a hard error
    return false;
  }
  conn_->frames_sent.fetch_add(n, std::memory_order_relaxed);
  net_obs().frames_sent.inc(n);
  return true;
}

bool TcpTransport::send(const Frame& f) { return send_many(&f, 1); }

bool TcpTransport::send_many(const Frame* fs, std::size_t n) {
  // The whole batch is encoded into the send slabs under one lock and
  // leaves in one flush — the wire face of the credit-window pipelining.
  return enqueue(n, [&](SendQueue& q) {
    for (std::size_t i = 0; i < n; ++i) q.append_frame(fs[i]);
  });
}

bool TcpTransport::send_serialized(FrameType type, std::size_t n,
                                   const SerializeFn& emit) {
  // Zero-copy path: serializers write straight into the send slabs — no
  // Frame, no payload vector, no per-frame allocation once slabs warm up.
  return enqueue(n, [&](SendQueue& q) {
    for (std::size_t i = 0; i < n; ++i)
      q.build_frame(type, [&](wire::Writer& w) { emit(i, w); });
  });
}

RecvStatus TcpTransport::recv(Frame& out) {
  const auto st = conn_->inbound.pop(out);
  made_room();
  return st == support::ChannelStatus::Ok ? RecvStatus::Ok
                                          : RecvStatus::Closed;
}

RecvStatus TcpTransport::recv_for(Frame& out, double wall_seconds) {
  // Channel timeouts are simulated-time; scale so the wait is wall time.
  const auto d =
      support::SimDuration(wall_seconds * support::Clock::scale());
  const auto st = conn_->inbound.pop_for(out, d);
  made_room();
  switch (st) {
    case support::ChannelStatus::Ok:
      return RecvStatus::Ok;
    case support::ChannelStatus::Closed:
      return RecvStatus::Closed;
    case support::ChannelStatus::TimedOut:
      return RecvStatus::TimedOut;
  }
  return RecvStatus::TimedOut;
}

void TcpTransport::made_room() {
  if (conn_->paused.load(std::memory_order_acquire) &&
      conn_->paused.exchange(false))
    reactor_->poke(conn_);  // re-arm the reads a full queue paused
}

void TcpTransport::close() {
  conn_->end();
  // The loop reaps once flushed or out of grace.
  if (conn_->begin_close()) reactor_->poke(conn_);
}

bool TcpTransport::closed() const {
  return conn_->closed.load(std::memory_order_acquire);
}

double TcpTransport::idle_seconds() const {
  return wall_now() - conn_->last_rx_wall.load(std::memory_order_relaxed);
}

TransportStats TcpTransport::stats() const {
  TransportStats s;
  s.frames_sent = conn_->frames_sent.load();
  s.frames_received = conn_->frames_received.load();
  s.bytes_sent = conn_->bytes_sent.load();
  s.bytes_received = conn_->bytes_received.load();
  s.heartbeats_seen = conn_->heartbeats.load();
  return s;
}

DecodeError TcpTransport::decode_error() const {
  return conn_->decode_error.load(std::memory_order_relaxed);
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
