#pragma once
// ShmTransport: wire-v2 frames over a shared-memory ring pair.
//
// The colocated fast path of the dataplane. One mapped segment holds two
// fixed-size byte rings (one per direction) plus cache-line-aligned control
// blocks; frames cross in their exact wire encoding — `[u32 len][u32 crc]
// [u8 type][payload]`, CRC checked on the receive side — so the shm path is
// bit-compatible with TCP: the chaos FaultInjector wraps it unchanged and a
// frame captured off either transport is the same bytes.
//
// Waiting adapts to the traffic: a short spin (peer is mid-write), then
// sched_yield while the wait is young and this endpoint's recent waits have
// been short (a round trip in flight; on a 1-CPU box yielding is what hands
// the core to the peer), otherwise a futex sleep on a sequence word
// (non-private futex: it lives in the shared mapping), woken by the producer
// only when the waiter count says someone is parked. An idle endpoint thus
// parks at once instead of burning a core between sparse frames. A
// frame is published with a single head-pointer store once fully written,
// so a consumer never observes a torn frame; frames larger than the ring
// stream through in chunks with progressive head/tail publication.
//
// Negotiation: a WorkerPool client that resolved its endpoint to the local
// machine sets want_shm in its Hello; bskd creates a named segment
// (shm_open), answers with the name in the HelloAck, and the client
// attaches and unlinks it. The TCP connection the handshake ran on stays
// open as the *anchor*: heartbeats and control frames (Leave, Shutdown at
// daemon stop) still travel over it, its EOF closes the shm transport, and
// idle_seconds() delegates to it — so failure detection is identical in
// both modes.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/transport.hpp"
#include "support/thread_annotations.hpp"

namespace bsk::net {

namespace shm_detail {
struct SegmentHdr;
struct RingCtl;

/// One mapped segment (anonymous for in-process pairs, shm_open-named for
/// cross-process negotiation). Unmaps — and unlinks, when it owns a name —
/// on destruction.
struct Mapping {
  void* mem = nullptr;
  std::size_t len = 0;
  std::string name;          ///< nonempty: POSIX shm object to unlink
  bool unlink_on_close = false;
  ~Mapping();
};
}  // namespace shm_detail

struct ShmOptions {
  std::size_t ring_bytes = 1u << 20;  ///< per-direction ring (pow2-rounded)
  std::size_t max_frame = kDefaultMaxFrame;
};

class ShmTransport final : public Transport {
 public:
  struct Pair {
    std::shared_ptr<ShmTransport> a;
    std::shared_ptr<ShmTransport> b;
  };

  /// Connected endpoint pair over one anonymous shared mapping — the
  /// in-process form (tests, benches): same rings, no shm name.
  static Pair make_pair(ShmOptions opts = {});

  /// Server side of the negotiation: create a named segment and return the
  /// transport plus its name (for the HelloAck). The name embeds the owner
  /// pid and a per-process epoch stamp ("/bsk.shm.<pid>.<epoch>.<n>") so a
  /// recycled pid can never collide with a dead owner's leftovers, and so
  /// reap_stale_shm_segments() can tell live segments from orphans.
  /// Nullptr on failure — the caller falls back to plain TCP.
  static std::shared_ptr<ShmTransport> create_named(std::string& name_out,
                                                    ShmOptions opts = {});

  /// Client side: attach to a named segment from a HelloAck. The segment
  /// name is unlinked once mapped. `anchor` is the TCP transport the
  /// session negotiated on (may be null); it remains the liveness/control
  /// channel. Nullptr on failure — the caller stays on TCP, which the
  /// server serves identically.
  static std::shared_ptr<ShmTransport> attach_named(
      const std::string& name, std::shared_ptr<Transport> anchor,
      ShmOptions opts = {});

  ~ShmTransport() override;

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

  /// Why the inbound stream died, if it died to corruption.
  DecodeError decode_error() const {
    return decode_error_.load(std::memory_order_relaxed);
  }

  /// True once the client side of a create_named/attach_named negotiation
  /// has mapped the segment. The daemon replies over shm only when this is
  /// set — before that (or if the client never attaches and stays on TCP)
  /// writing into the ring would fill a buffer nobody drains.
  bool peer_attached() const;

  std::size_t ring_bytes() const;

 private:
  ShmTransport(std::shared_ptr<shm_detail::Mapping> map, bool creator,
               std::shared_ptr<Transport> anchor, ShmOptions opts);

  shm_detail::SegmentHdr* hdr() const;
  shm_detail::RingCtl& tx_ctl() const;
  shm_detail::RingCtl& rx_ctl() const;
  std::uint8_t* tx_data() const;
  std::uint8_t* rx_data() const;

  bool wait_space_locked(std::uint64_t need) BSK_REQUIRES(send_mu_);
  void copy_in(std::uint64_t at, const std::uint8_t* p, std::size_t n)
      BSK_REQUIRES(send_mu_);
  void publish(std::uint64_t n) BSK_REQUIRES(send_mu_);
  bool ring_write(const std::uint8_t* p, std::size_t n)
      BSK_REQUIRES(send_mu_);
  bool wait_readable(std::size_t need, bool bounded, double deadline,
                     Frame* control_out, RecvStatus* control_status);
  RecvStatus recv_until(Frame& out, bool bounded, double wall_seconds);
  void read_span(std::uint64_t from, std::uint8_t* dst, std::size_t n) const;
  void consume(std::size_t n);
  void fail_decode(DecodeError e);

  std::shared_ptr<shm_detail::Mapping> map_;
  bool creator_ = false;  ///< selects which ring this end produces
  ShmOptions opts_;
  std::shared_ptr<Transport> anchor_;

  support::Mutex send_mu_{"ShmTransport.send"};  ///< serializes tx producers

  std::atomic<DecodeError> decode_error_{DecodeError::None};
  mutable std::atomic<double> last_rx_wall_{0.0};
  mutable std::atomic<std::uint64_t> last_rx_head_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> heartbeats_{0};
  /// Smoothed wait lengths (ns) steering the adaptive wait: receive side,
  /// and send side waiting for ring space.
  std::atomic<std::int64_t> rx_wait_ns_{0};
  std::atomic<std::int64_t> tx_wait_ns_{0};
};

/// Unlink every bsk shm segment in /dev/shm whose embedded owner pid is
/// dead (kill(pid, 0) == ESRCH). Normal lifecycle unlinks the name at
/// attach (or in the creator's destructor), but a SIGKILLed daemon leaks
/// whatever was mid-negotiation — run this at daemon startup so a fleet
/// that is killed and relaunched in a loop cannot slowly fill /dev/shm.
/// Segments owned by live processes (or by pids we cannot probe) are left
/// alone. Returns the number of segments removed.
std::size_t reap_stale_shm_segments();

}  // namespace bsk::net
