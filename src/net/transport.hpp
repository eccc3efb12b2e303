#pragma once
// bsk::net transports: frame-oriented, bidirectional, connected endpoints.
//
// A Transport is one end of an established connection. Two backends:
//
//   ShmTransport (net/shm.hpp) — a shared-memory ring pair: the colocated
//     fast path, and, over an anonymous mapping (make_pair), the in-process
//     transport of tests and benches.
//
//   TcpTransport — a real loopback/LAN socket. Every TcpTransport of a
//     process is registered on one shared epoll loop thread (the Reactor,
//     net/reactor.hpp), which re-frames the inbound byte stream into a
//     bounded Channel<Frame>; send() encodes into the connection's send
//     queue and flushes on the caller's thread. connect() takes a timeout
//     and a bounded retry budget.
//
// Timeouts on the transport API are *wall* seconds: liveness and I/O pacing
// are properties of the real machine, not of the simulated clock. (Code
// that waits in simulated time converts with Clock::to_wall first.)
//
// Heartbeat frames are absorbed at this layer — they refresh idle_seconds()
// and are never surfaced to recv(), so every consumer gets liveness
// tracking without protocol noise.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/wire.hpp"

namespace bsk::net {

enum class RecvStatus { Ok, Closed, TimedOut };

struct TransportStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t heartbeats_seen = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Enqueue a frame for delivery. Thread-safe. False once the connection
  /// is closed (locally or by the peer).
  virtual bool send(const Frame& f) = 0;

  /// Enqueue `n` frames as one batch (writev-style coalescing: the TCP
  /// backend encodes the whole batch into its send buffer under a single
  /// lock and flushes once, so the frames leave in as few segments as the
  /// kernel allows). Default: send() per frame. Returns
  /// false once the connection is closed; frames before the failure may
  /// still be delivered.
  virtual bool send_many(const Frame* fs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
      if (!send(fs[i])) return false;
    return true;
  }

  /// Zero-copy batch send: serialize `n` frames of `type` straight into
  /// the transport's send buffer, `emit(i, w)` appending frame i's payload
  /// bytes through the Writer. The default materializes Frames and defers
  /// to send_many — which keeps decorators (chaos FaultInjector) and simple
  /// transports correct without overriding; the TCP/shm/epoll backends
  /// override to eliminate the per-frame heap allocation entirely.
  using SerializeFn = std::function<void(std::size_t, wire::Writer&)>;
  virtual bool send_serialized(FrameType type, std::size_t n,
                               const SerializeFn& emit);

  /// Block until a frame arrives or the connection closes and drains.
  virtual RecvStatus recv(Frame& out) = 0;

  /// recv with a wall-clock timeout (seconds).
  virtual RecvStatus recv_for(Frame& out, double wall_seconds) = 0;

  /// Close this end. recv on the peer drains buffered frames then reports
  /// Closed. Idempotent.
  virtual void close() = 0;

  /// True once either end has closed (peer death included).
  virtual bool closed() const = 0;

  /// Wall seconds since the last frame (heartbeats included) arrived from
  /// the peer — the liveness input of failure detection.
  virtual double idle_seconds() const = 0;

  /// Channel security state (flipped by the SecureReq/SecureAck exchange;
  /// stands in for a real TLS upgrade, which slots in behind this flag).
  bool secured() const { return secured_.load(std::memory_order_relaxed); }
  void mark_secured() { secured_.store(true, std::memory_order_relaxed); }

  virtual TransportStats stats() const = 0;

 protected:
  std::atomic<bool> secured_{false};
};

// --------------------------------------------------------------------- tcp

struct TcpOptions {
  double connect_timeout_s = 2.0;  ///< per-attempt, wall seconds
  int connect_retries = 10;        ///< bounded retry budget
  double retry_backoff_s = 0.05;   ///< pause between attempts, wall seconds
  std::size_t max_frame = kDefaultMaxFrame;
  /// Parsed-frame queue depth. When it is full the loop stops reading this
  /// connection (kernel flow control pushes back on the peer) until recv()
  /// makes room; other connections on the loop are unaffected.
  std::size_t inbound_capacity = 4096;
};

class TcpReactor;
struct TcpConn;

class TcpTransport final : public Transport {
 public:
  /// Adopt an already-connected socket (the accept side).
  explicit TcpTransport(int fd, TcpOptions opts = {});

  /// Connect to host:port with per-attempt timeout and bounded retry.
  /// Returns nullptr when the budget is exhausted.
  static std::unique_ptr<TcpTransport> connect(const std::string& host,
                                               std::uint16_t port,
                                               TcpOptions opts = {});

  ~TcpTransport() override;

  bool send(const Frame& f) override;
  bool send_many(const Frame* fs, std::size_t n) override;
  bool send_serialized(FrameType type, std::size_t n,
                       const SerializeFn& emit) override;
  RecvStatus recv(Frame& out) override;
  RecvStatus recv_for(Frame& out, double wall_seconds) override;
  void close() override;
  bool closed() const override;
  double idle_seconds() const override;
  TransportStats stats() const override;

  /// Why the inbound stream died, if it died to corruption (None while the
  /// connection is healthy or was closed cleanly).
  DecodeError decode_error() const;

 private:
  template <typename Encode>
  bool enqueue(std::size_t n, Encode&& encode);
  void made_room();

  std::shared_ptr<TcpReactor> reactor_;
  std::shared_ptr<TcpConn> conn_;
};

/// Listening socket. Port 0 binds an ephemeral port, readable via port().
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port = 0);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  bool valid() const { return fd_ >= 0; }
  std::uint16_t port() const { return port_; }

  /// Accept one connection, waiting at most `wall_seconds` (<0 = forever).
  std::unique_ptr<TcpTransport> accept_for(double wall_seconds,
                                           TcpOptions opts = {});

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Monotonic wall seconds (steady clock) — the transport liveness timebase.
double wall_now();

}  // namespace bsk::net
