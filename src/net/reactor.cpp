#include "net/reactor.hpp"

#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>

#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "support/thread_name.hpp"

namespace bsk::net {

namespace {

// Process-wide byte and corruption counters of every TCP link (transports
// and epoll servers alike).
struct LinkObs {
  obs::Counter& bytes_sent =
      obs::counter("bsk_net_bytes_sent_total", "payload bytes written (TCP)");
  obs::Counter& bytes_received = obs::counter(
      "bsk_net_bytes_received_total", "payload bytes read (TCP)");
  obs::Counter& crc_errors = obs::counter(
      "bsk_net_crc_errors_total", "frames dropped for checksum mismatch");
  obs::Counter& decode_errors = obs::counter(
      "bsk_net_decode_errors_total",
      "connections killed by an unrecoverable framing error");
  obs::Counter& wakeups = obs::counter("bsk_net_epoll_wakeups_total",
                                       "epoll_wait returns with events");
};

LinkObs& link_obs() {
  static LinkObs o;
  return o;
}

}  // namespace

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

// -------------------------------------------------------------------- link

Link::Link(int fd_in, std::size_t max_frame)
    : raw_fd(fd_in), decoder(max_frame) {
  last_rx_wall.store(wall_now(), std::memory_order_relaxed);
  support::MutexLock lk(mu);
  fd = fd_in;
}

bool Link::flush_locked() {
  while (!out.empty() && fd >= 0 && !broken) {
    iovec iov[SendQueue::kMaxIov];
    const std::size_t cnt = out.gather(iov, SendQueue::kMaxIov);
    std::size_t gathered = 0;
    for (std::size_t i = 0; i < cnt; ++i) gathered += iov[i].iov_len;
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = cnt;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      const auto sent = static_cast<std::uint64_t>(n);
      bytes_sent.fetch_add(sent, std::memory_order_relaxed);
      link_obs().bytes_sent.inc(sent);
      out.consume(static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < gathered) return true;  // short write
      continue;  // more slabs than iovecs: keep flushing
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    broken = true;
    ::shutdown(fd, SHUT_RDWR);
    return false;
  }
  return !broken;
}

bool Link::begin_close() {
  support::MutexLock lk(mu);
  if (fd < 0) return false;
  want_close = true;
  if (close_deadline < 0.0) close_deadline = wall_now() + 1.0;
  flush_locked();
  return true;
}

bool Link::on_writable() {
  support::MutexLock lk(mu);
  if (fd < 0) return false;
  flush_locked();
  return done_locked(wall_now());
}

Link::ReadEnd Link::fill() {
  std::uint8_t rbuf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(raw_fd, rbuf, sizeof rbuf);
    if (n > 0) {
      const auto got = static_cast<std::uint64_t>(n);
      bytes_received.fetch_add(got, std::memory_order_relaxed);
      link_obs().bytes_received.inc(got);
      last_rx_wall.store(wall_now(), std::memory_order_relaxed);
      decoder.feed(rbuf, static_cast<std::size_t>(n));
      return ReadEnd::More;
    }
    if (n == 0) return ReadEnd::Closed;  // EOF: peer closed
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadEnd::Again;
    return ReadEnd::Closed;  // hard socket error
  }
}

Link::ReadEnd Link::corrupt() {
  if (decoder.error() == DecodeError::BadCrc) link_obs().crc_errors.inc();
  link_obs().decode_errors.inc();
  return ReadEnd::Closed;
}

// ----------------------------------------------------------------- reactor

Reactor::Reactor()
    : epfd_(::epoll_create1(EPOLL_CLOEXEC)),
      wakefd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  watch(wakefd_, EPOLLIN, kWakeTag);
}

Reactor::~Reactor() {
  if (wakefd_ >= 0) ::close(wakefd_);
  if (epfd_ >= 0) ::close(epfd_);
}

void Reactor::start_loop(const char* thread_name) {
  if (!reactor_valid() || loop_.joinable()) return;
  loop_ = std::jthread([this, thread_name](const std::stop_token& st) {
    support::set_thread_name(thread_name);
    run(st);
  });
}

void Reactor::stop_loop() {
  loop_.request_stop();
  wake();
  if (loop_.joinable()) loop_.join();
}

void Reactor::wake() {
  if (wakefd_ < 0) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wakefd_, &one, sizeof one);
}

bool Reactor::watch(int fd, std::uint32_t events, std::uint64_t tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  return epfd_ >= 0 && ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool Reactor::attach(const std::shared_ptr<Link>& l) {
  {
    support::MutexLock lk(links_mu_);
    l->id = next_tag_++;
    links_.emplace(l->id, l);
  }
  // Edge-triggered reads and writes.
  if (watch(l->raw_fd, EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP, l->id))
    return true;
  detach(*l);
  return false;
}

bool Reactor::detach(Link& l) {
  {
    support::MutexLock lk(l.mu);
    if (l.fd < 0) return false;
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, l.fd, nullptr);
    ::close(l.fd);
    l.fd = -1;
  }
  support::MutexLock lk(links_mu_);
  links_.erase(l.id);
  return true;
}

std::shared_ptr<Link> Reactor::link(std::uint64_t tag) const {
  support::MutexLock lk(links_mu_);
  auto it = links_.find(tag);
  return it == links_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<Link>> Reactor::links() const {
  std::vector<std::shared_ptr<Link>> all;
  support::MutexLock lk(links_mu_);
  all.reserve(links_.size());
  for (auto& [tag, l] : links_) all.push_back(l);
  return all;
}

std::size_t Reactor::link_count() const {
  support::MutexLock lk(links_mu_);
  return links_.size();
}

void Reactor::run(const std::stop_token& st) {
  epoll_event evs[128];
  while (!(st.stop_requested() && drained())) {
    const int rc = ::epoll_wait(epfd_, evs, 128, on_tick(wall_now()));
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc > 0) link_obs().wakeups.inc();
    for (int i = 0; i < rc; ++i) {
      if (evs[i].data.u64 == kWakeTag) {
        std::uint64_t drain;
        while (::read(wakefd_, &drain, sizeof drain) > 0) {
        }
        continue;
      }
      on_event(evs[i].data.u64, evs[i].events);
    }
  }
}

}  // namespace bsk::net
