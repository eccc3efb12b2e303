#pragma once
// EpollServer: one edge-triggered epoll loop serving every inbound wire-v2
// connection — the C10K core net::Daemon (and so bskd) stands on.
//
// A Reactor (net/reactor.hpp) owns the loop thread; the server adds the
// listener and the connection table. Nonblocking accept4 drains the
// backlog; every connection is a Link, so reads run until EAGAIN through
// its FrameDecoder and writes flush its SendQueue with the same code the
// TCP transport uses.
//
// Threading contract:
//   - Handler callbacks (on_hello / on_frame / on_closed) run on the loop
//     thread and must not block — heavy work is handed to an executor,
//     which replies later through send()/send_serialized().
//   - send()/send_serialized()/close_conn() are safe from any thread: they
//     append under the connection's own mutex and try an immediate flush,
//     so replies don't wait for a loop tick. A connection that errors from
//     a writer thread is shut down (not closed — the fd number must stay
//     stable) and the loop reaps it via EPOLLHUP.
//   - The first non-heartbeat frame on a connection must parse as a Hello;
//     anything else closes the connection without a callback. on_closed
//     fires exactly once for every connection that reached on_hello.
//
// Heartbeats: set_heartbeat(conn, period) arms periodic heartbeat frames
// produced by the loop's timer pass (epoll_wait timeout), replacing the
// per-session heartbeat threads of the old daemon.

#include <atomic>
#include <cstdint>
#include <memory>

#include "net/reactor.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "support/thread_annotations.hpp"

namespace bsk::net {

struct EpollOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral, readable via port()
  std::size_t max_frame = kDefaultMaxFrame;
  double handshake_timeout_wall_s = 5.0;  ///< close conns that never Hello
  int backlog = 1024;
  /// Pause before retrying accept after fd exhaustion (EMFILE/ENFILE).
  /// An edge-triggered listener gets no further edge for the backlog it
  /// failed to drain, so the retry must come from the timer pass.
  double accept_backoff_wall_s = 0.05;
};

class EpollServer : private Reactor {
 public:
  using ConnId = std::uint64_t;

  /// Connection callbacks, all invoked on the loop thread (see the
  /// threading contract above).
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual void on_hello(ConnId c, const Hello& h) = 0;
    virtual void on_frame(ConnId c, Frame&& f) = 0;
    virtual void on_closed(ConnId c) = 0;
  };

  EpollServer(Handler& handler, EpollOptions opts = {});
  ~EpollServer() override;

  bool valid() const { return lfd_ >= 0 && reactor_valid(); }
  std::uint16_t port() const { return port_; }

  /// Launch the loop thread. Deliberately separate from construction: the
  /// handler typically stores a pointer back to this server, and callbacks
  /// may fire the moment the loop runs — call start() only once every
  /// pointer the callbacks read has been published. Idempotent; no
  /// callbacks fire before start().
  void start();

  /// Close the listener and every connection, then join the loop. No
  /// callbacks fire once stop() begins. Idempotent.
  void stop();

  /// Queue a frame on the connection and flush opportunistically. False if
  /// the connection is unknown or already dying.
  bool send(ConnId c, const Frame& f);

  /// Zero-copy variant: serialize `n` frames of `type` straight into the
  /// connection's send slabs.
  bool send_serialized(ConnId c, FrameType type, std::size_t n,
                       const Transport::SerializeFn& emit);

  /// Flush pending output (bounded by a grace period), then close the
  /// connection; on_closed fires on the loop thread.
  void close_conn(ConnId c);

  /// Arm periodic heartbeat frames on this connection (0 disables).
  void set_heartbeat(ConnId c, double period_wall_s);

  std::size_t connections() const;
  std::uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  /// Times the accept path hit fd exhaustion and armed the retry timer
  /// (the EMFILE regression test asserts this moves and recovery happens).
  std::uint64_t accept_backoffs() const {
    return accept_backoffs_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn : Link {
    Conn(int fd, std::size_t max_frame) : Link(fd, max_frame) {}
    bool got_hello = false;  // loop thread only
    double opened_at = 0.0;  // loop thread only
    // Heartbeat schedule (armed from any thread, driven by the timer pass).
    double hb_period BSK_GUARDED_BY(mu) = 0.0;
    double hb_next BSK_GUARDED_BY(mu) = 0.0;
    std::uint64_t hb_seq BSK_GUARDED_BY(mu) = 0;
  };

  void on_event(std::uint64_t tag, std::uint32_t events) override;
  int on_tick(double now) override;
  void accept_ready();
  void read_ready(const std::shared_ptr<Conn>& conn);
  void reap(const std::shared_ptr<Conn>& conn);
  std::shared_ptr<Conn> find(ConnId c) const;

  Handler& handler_;
  EpollOptions opts_;
  int lfd_ = -1;
  std::uint16_t port_ = 0;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> accept_backoffs_{0};
  std::atomic<bool> stopping_{false};
  // Loop-thread only: accept retry deadline after fd exhaustion (0 = none)
  // and the log-once latch for the condition.
  double accept_backoff_until_ = 0.0;
  bool accept_backoff_logged_ = false;
};

}  // namespace bsk::net
