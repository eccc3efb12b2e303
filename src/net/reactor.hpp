#pragma once
// The one TCP event loop of bsk::net, and the per-socket framing state it
// drives.
//
//   SendQueue — slab-chained outbound bytes, gathered into one sendmsg().
//   Link      — one nonblocking stream socket: its FrameDecoder (read on
//               the loop thread), its SendQueue (under the link's mutex),
//               and the single read/decode and flush implementation.
//   Reactor   — one edge-triggered epoll loop thread over many Links. The
//               EpollServer (net::Daemon) runs one per server; every
//               TcpTransport of a process shares one (transport.cpp).
//
// Writers append under the link's mutex and flush on their own thread, so a
// frame never waits for a loop hop on its way out; an EPOLLOUT edge resumes
// a short write. Only the loop thread reads and only the loop thread closes
// a link's fd: a writer that hits a hard error shuts the socket down, and
// the loop reaps it from the resulting EPOLLHUP.

#include <sys/epoll.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <stop_token>
#include <thread>
#include <vector>

#include "net/wire.hpp"
#include "support/thread_annotations.hpp"

struct iovec;  // <sys/uio.h>; SendQueue::gather fills these

namespace bsk::net {

// --------------------------------------------------------------- sendqueue

/// Slab-chained send buffer. Writers serialize frames *directly* into the
/// back slab — zero intermediate Frame, zero per-frame heap traffic once
/// the slab pool is warm — and the flusher gathers the front slabs into an
/// iovec array for one sendmsg(), consuming exactly what the kernel
/// accepted so short writes resume where they stopped.
///
/// Not internally synchronized: Link::mu guards it.
class SendQueue {
 public:
  static constexpr std::size_t kSlabBytes = 64 * 1024;
  static constexpr std::size_t kMaxIov = 16;

  bool empty() const { return bytes_ == 0; }

  /// Serialize one frame into the back slab via build_frame_into. Returns
  /// the encoded size.
  template <typename EmitFn>
  std::size_t build_frame(FrameType type, EmitFn&& emit) {
    const std::size_t n =
        build_frame_into(back_slab(), type, std::forward<EmitFn>(emit));
    bytes_ += n;
    return n;
  }

  /// Append an already-materialized frame's wire bytes.
  void append_frame(const Frame& f);

  /// Fill up to `max` iovecs with the unconsumed front spans. Returns the
  /// count. The spans stay valid until the next mutating call.
  std::size_t gather(iovec* iov, std::size_t max) const;

  /// Drop `n` bytes from the front (what the kernel accepted).
  void consume(std::size_t n);

 private:
  static constexpr std::size_t kMaxSpares = 4;

  struct Slab {
    std::vector<std::uint8_t> data;
    std::size_t off = 0;  // consumed prefix
  };

  std::vector<std::uint8_t>& back_slab();

  std::deque<Slab> slabs_;
  std::vector<std::vector<std::uint8_t>> spares_;
  std::size_t bytes_ = 0;
};

// -------------------------------------------------------------------- link

/// One nonblocking, connected stream socket and its wire framing.
struct Link {
  Link(int fd, std::size_t max_frame);

  const int raw_fd;      ///< loop-thread read path (stable until reaped)
  std::uint64_t id = 0;  ///< epoll tag, set by Reactor::attach
  FrameDecoder decoder;  ///< loop thread only

  support::Mutex mu{"net.Link"};
  SendQueue out BSK_GUARDED_BY(mu);
  int fd BSK_GUARDED_BY(mu) = -1;  ///< -1 once reaped
  bool want_close BSK_GUARDED_BY(mu) = false;
  bool broken BSK_GUARDED_BY(mu) = false;  ///< a writer saw a hard error
  double close_deadline BSK_GUARDED_BY(mu) = -1.0;

  std::atomic<double> last_rx_wall{0.0};
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> bytes_received{0};

  bool reaped() {
    support::MutexLock lk(mu);
    return fd < 0;
  }

  /// Scatter/gather flush of `out`: one sendmsg over the queued spans. A
  /// short write leaves the tail for the next EPOLLOUT edge. On a hard
  /// error the socket is shut down (never closed: only the loop closes the
  /// fd) and false is returned. (sendmsg, not writev: only sendmsg takes
  /// MSG_NOSIGNAL, and a peer that vanished mid-write must surface as
  /// EPIPE here, never as a process-killing SIGPIPE.)
  bool flush_locked() BSK_REQUIRES(mu);

  /// Writer side: unless the link is closing or dead, run `encode(out)`
  /// and flush on the calling thread. False if the link refused the
  /// frames or the flush hit a hard error.
  template <typename Encode>
  bool enqueue(Encode&& encode) {
    support::MutexLock lk(mu);
    if (fd < 0 || broken || want_close) return false;
    encode(out);
    return flush_locked();
  }

  /// Stop accepting sends and start the close grace: the loop reaps the
  /// link once `out` drains or one second has passed. False if the link
  /// is reaped already.
  bool begin_close();

  /// Broken, or closing with `out` drained or out of grace: reap it.
  bool done_locked(double now) const BSK_REQUIRES(mu) {
    return broken || (want_close && (out.empty() || now >= close_deadline));
  }

  /// Loop thread, on an EPOLLOUT edge: resume the flush. True when the
  /// link is done (see done_locked).
  bool on_writable();

  /// How a read pass ended: the socket has no more bytes for now, the
  /// deliver callback asked to stop, or the stream is over (EOF, socket
  /// error, or corrupt framing — decoder.error() tells which). More is
  /// internal to read(): fill() got bytes.
  enum class ReadEnd { Again, Stopped, Closed, More };

  /// Loop thread: hand every frame already decoded, then every frame the
  /// socket yields until EAGAIN, to `deliver(Frame&)`. A false return stops
  /// the pass with the remaining bytes still buffered, so the next pass
  /// resumes exactly where this one stopped.
  template <typename Deliver>
  ReadEnd read(Deliver&& deliver) {
    for (;;) {
      while (auto f = decoder.next())
        if (!deliver(*f)) return ReadEnd::Stopped;
      if (decoder.error() != DecodeError::None) return corrupt();
      if (const ReadEnd e = fill(); e != ReadEnd::More) return e;
    }
  }

 private:
  ReadEnd fill();     ///< one read() into the decoder
  ReadEnd corrupt();  ///< count the decode error; the stream is over
};

// ----------------------------------------------------------------- reactor

/// One edge-triggered epoll loop thread. A subclass registers fds under
/// 64-bit tags (any value but kWakeTag) and receives every readiness edge
/// in on_event and a timer pass in on_tick, both on the loop thread.
class Reactor {
 public:
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

 protected:
  static constexpr std::uint64_t kWakeTag = ~std::uint64_t{0};

  Reactor();
  /// The subclass destructor must call stop_loop() first: the loop calls
  /// its virtuals.
  virtual ~Reactor();

  bool reactor_valid() const { return epfd_ >= 0 && wakefd_ >= 0; }

  /// Launch the loop thread. Idempotent.
  void start_loop(const char* thread_name);

  /// Ask the loop to exit once drained() and join it. Idempotent. Not for
  /// the loop thread: the loop runs no code that owns its reactor.
  void stop_loop();

  /// Interrupt epoll_wait so on_tick runs now.
  void wake();

  bool watch(int fd, std::uint32_t events, std::uint64_t tag);

  /// Register `l` under a fresh tag (>= 2). False if epoll refused it; the
  /// link is then closed.
  bool attach(const std::shared_ptr<Link>& l);
  /// Unregister and close `l`'s fd — on the loop thread, or by the owner
  /// once the loop is gone. False if it was closed already.
  bool detach(Link& l);
  std::shared_ptr<Link> link(std::uint64_t tag) const;
  std::vector<std::shared_ptr<Link>> links() const;
  std::size_t link_count() const;

  /// Loop thread: readiness `events` (EPOLL* bits) for `tag`.
  virtual void on_event(std::uint64_t tag, std::uint32_t events) = 0;

  /// Loop thread: runs before every wait. Returns the wait bound in ms
  /// (-1 = until the next event or wake()).
  virtual int on_tick(double now) = 0;

  /// Loop thread, after stop_loop(): true once the loop may exit.
  virtual bool drained() { return true; }

 private:
  void run(const std::stop_token& st);

  int epfd_ = -1;
  int wakefd_ = -1;
  mutable support::Mutex links_mu_{"Reactor.links"};
  std::map<std::uint64_t, std::shared_ptr<Link>> links_
      BSK_GUARDED_BY(links_mu_);
  std::uint64_t next_tag_ BSK_GUARDED_BY(links_mu_) = 2;
  std::jthread loop_;
};

}  // namespace bsk::net
