#include "net/epoll_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include "obs/metrics.hpp"

namespace bsk::net {

namespace {

struct EpollObs {
  obs::Counter& accepts = obs::counter("bsk_net_epoll_accepts_total",
                                       "connections accepted by epoll loops");
  obs::Counter& frames_rx = obs::counter(
      "bsk_net_epoll_frames_received_total",
      "non-heartbeat frames decoded by epoll loops");
  obs::Counter& frames_tx = obs::counter("bsk_net_epoll_frames_sent_total",
                                         "frames queued by epoll servers");
  // The process-wide dataplane aggregates (shared with the transports).
  obs::Counter& net_tx =
      obs::counter("bsk_net_frames_sent_total", "frames written to the wire");
  obs::Counter& net_rx = obs::counter("bsk_net_frames_received_total",
                                      "non-heartbeat frames decoded");
  obs::Counter& accept_backoffs = obs::counter(
      "bsk_net_epoll_accept_backoffs_total",
      "accepts deferred because the process ran out of file descriptors");
};

EpollObs& epoll_obs() {
  static EpollObs o;
  return o;
}

constexpr std::uint64_t kListenerTag = 0;

}  // namespace

EpollServer::EpollServer(Handler& handler, EpollOptions opts)
    : handler_(handler), opts_(opts) {
  if (!reactor_valid()) return;

  lfd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (lfd_ < 0) return;
  int one = 1;
  ::setsockopt(lfd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.port);
  if (::bind(lfd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(lfd_, opts_.backlog) != 0) {
    ::close(lfd_);
    lfd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(lfd_, reinterpret_cast<sockaddr*>(&bound), &blen) == 0)
    port_ = ntohs(bound.sin_port);
  watch(lfd_, EPOLLIN | EPOLLET, kListenerTag);
}

void EpollServer::start() {
  if (valid() && !stopping_.load()) start_loop("epoll-loop");
}

EpollServer::~EpollServer() { stop(); }

void EpollServer::stop() {
  const bool first = !stopping_.exchange(true);
  stop_loop();
  if (!first) return;
  // Loop is gone: close every connection under its own mutex so in-flight
  // writer calls observe fd == -1 instead of racing a closed descriptor.
  for (auto& l : links()) detach(*l);
  if (lfd_ >= 0) {
    ::close(lfd_);
    lfd_ = -1;
  }
}

std::shared_ptr<EpollServer::Conn> EpollServer::find(ConnId c) const {
  return std::static_pointer_cast<Conn>(link(c));
}

std::size_t EpollServer::connections() const { return link_count(); }

// ------------------------------------------------------------------- sends

bool EpollServer::send(ConnId c, const Frame& f) {
  auto conn = find(c);
  if (!conn || !conn->enqueue([&](SendQueue& q) { q.append_frame(f); }))
    return false;
  epoll_obs().frames_tx.inc();
  epoll_obs().net_tx.inc();
  return true;
}

bool EpollServer::send_serialized(ConnId c, FrameType type, std::size_t n,
                                 const Transport::SerializeFn& emit) {
  auto conn = find(c);
  if (!conn || !conn->enqueue([&](SendQueue& q) {
        for (std::size_t i = 0; i < n; ++i)
          q.build_frame(type, [&](wire::Writer& w) { emit(i, w); });
      }))
    return false;
  epoll_obs().frames_tx.inc(n);
  epoll_obs().net_tx.inc(n);
  return true;
}

void EpollServer::close_conn(ConnId c) {
  auto conn = find(c);
  // Let the loop reap once the queue drains (or the grace expires).
  if (conn && conn->begin_close()) wake();
}

void EpollServer::set_heartbeat(ConnId c, double period_wall_s) {
  auto conn = find(c);
  if (!conn) return;
  {
    support::MutexLock lk(conn->mu);
    conn->hb_period = period_wall_s;
    conn->hb_next = period_wall_s > 0.0 ? wall_now() + period_wall_s : 0.0;
  }
  wake();  // re-evaluate the loop's timer horizon
}

// -------------------------------------------------------------------- loop

void EpollServer::accept_ready() {
  if (accept_backoff_until_ > 0.0 && wall_now() < accept_backoff_until_)
    return;  // still inside the fd-exhaustion backoff window
  accept_backoff_until_ = 0.0;
  for (;;) {
    const int cfd =
        ::accept4(lfd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of fds. An edge-triggered listener that just returns here
        // never gets another edge for the backlog it failed to drain, and
        // one that keeps looping spins at 100% CPU accepting nothing —
        // park the listener and let the timer pass retry once the window
        // (or a connection slot) opens.
        accept_backoff_until_ = wall_now() + opts_.accept_backoff_wall_s;
        accept_backoffs_.fetch_add(1, std::memory_order_relaxed);
        epoll_obs().accept_backoffs.inc();
        if (!accept_backoff_logged_) {
          accept_backoff_logged_ = true;
          std::fprintf(stderr,
                       "bsk.epoll: accept failed (%s); backing off %.0f ms "
                       "between retries (raise RLIMIT_NOFILE?)\n",
                       std::strerror(errno),
                       opts_.accept_backoff_wall_s * 1e3);
        }
        return;
      }
      return;  // EAGAIN or transient accept failure: wait for the next edge
    }
    int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    auto conn = std::make_shared<Conn>(cfd, opts_.max_frame);
    conn->opened_at = wall_now();
    if (!attach(conn)) continue;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    epoll_obs().accepts.inc();
  }
}

void EpollServer::read_ready(const std::shared_ptr<Conn>& conn) {
  if (conn->reaped()) return;  // earlier in this batch
  const auto end = conn->read([&](Frame& f) {
    if (f.type == FrameType::Heartbeat) return true;
    if (!conn->got_hello) {
      // First real frame must be the handshake; anything else is not a
      // bsk peer and is dropped without ceremony.
      auto h = parse_hello(f);
      if (f.type != FrameType::Hello || !h) return false;
      conn->got_hello = true;
      epoll_obs().frames_rx.inc();
      epoll_obs().net_rx.inc();
      handler_.on_hello(conn->id, *h);
      return true;
    }
    epoll_obs().frames_rx.inc();
    epoll_obs().net_rx.inc();
    handler_.on_frame(conn->id, std::move(f));
    return true;
  });
  if (end != Link::ReadEnd::Again) reap(conn);
}

int EpollServer::on_tick(double now) {
  if (accept_backoff_until_ > 0.0 && now >= accept_backoff_until_) {
    accept_backoff_until_ = 0.0;
    accept_ready();  // retry the backlog the exhausted accept left queued
  }
  // Timer horizon: the nearest heartbeat or close deadline, clamped to
  // [1, 100] ms so closed-flag and handshake-timeout checks stay prompt.
  int timeout_ms = accept_backoff_until_ > 0.0 ? 10 : 100;
  for (auto& l : links()) {
    const auto conn = std::static_pointer_cast<Conn>(l);
    bool dead = false;
    {
      support::MutexLock lk(conn->mu);
      if (conn->fd < 0) continue;
      if (conn->hb_period > 0.0 && now >= conn->hb_next) {
        const std::uint64_t seq = conn->hb_seq++;
        conn->out.build_frame(FrameType::Heartbeat, [&](wire::Writer& w) {
          w.u64(seq);
          w.f64(now);
        });
        conn->hb_next = now + conn->hb_period;
        conn->flush_locked();
      }
      dead = conn->done_locked(now);
      if (conn->hb_period > 0.0) {
        const int ms = static_cast<int>((conn->hb_next - now) * 1000.0);
        timeout_ms = std::max(1, std::min(timeout_ms, ms));
      }
      if (conn->want_close) timeout_ms = std::min(timeout_ms, 10);
    }
    if (!dead && !conn->got_hello &&
        now - conn->opened_at > opts_.handshake_timeout_wall_s)
      dead = true;  // never spoke: not a bsk peer
    if (dead) reap(conn);
  }
  return timeout_ms;
}

void EpollServer::reap(const std::shared_ptr<Conn>& conn) {
  if (detach(*conn) && conn->got_hello) handler_.on_closed(conn->id);
}

void EpollServer::on_event(std::uint64_t tag, std::uint32_t events) {
  if (tag == kListenerTag) {
    accept_ready();
    return;
  }
  auto conn = find(tag);
  if (!conn) return;  // reaped earlier in this batch
  if (events & (EPOLLHUP | EPOLLERR)) {
    // Drain any bytes still queued in the kernel before closing.
    read_ready(conn);
    reap(conn);
    return;
  }
  if ((events & EPOLLOUT) && conn->on_writable()) {
    reap(conn);
    return;
  }
  if (events & (EPOLLIN | EPOLLRDHUP)) read_ready(conn);
}

}  // namespace bsk::net
