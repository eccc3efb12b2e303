#include "net/shm.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <linux/futex.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "obs/metrics.hpp"

namespace bsk::net {

namespace {

struct ShmObs {
  obs::Counter& frames_sent = obs::counter("bsk_net_shm_frames_sent_total",
                                           "frames written to shm rings");
  obs::Counter& frames_received = obs::counter(
      "bsk_net_shm_frames_received_total", "non-heartbeat frames read");
  obs::Counter& bytes_sent =
      obs::counter("bsk_net_shm_bytes_sent_total", "bytes written to rings");
  obs::Counter& bytes_received =
      obs::counter("bsk_net_shm_bytes_received_total", "bytes read from rings");
  obs::Counter& futex_waits = obs::counter(
      "bsk_net_shm_futex_waits_total",
      "ring waits that parked on the futex");
  obs::Counter& full_stalls = obs::counter(
      "bsk_net_shm_ring_full_stalls_total", "sends that waited for ring space");
  obs::Counter& segments =
      obs::counter("bsk_net_shm_segments_total", "shm segments created");
  obs::Counter& crc_errors = obs::counter(
      "bsk_net_crc_errors_total", "frames dropped for checksum mismatch");
  obs::Counter& decode_errors = obs::counter(
      "bsk_net_decode_errors_total",
      "connections killed by an unrecoverable framing error");
};

ShmObs& shm_obs() {
  static ShmObs o;
  return o;
}

constexpr std::uint32_t kShmMagic = 0x42534b4d;  // "BSKM"
constexpr std::uint32_t kShmVersion = 1;

// Non-private futex ops: the sequence words live in a MAP_SHARED segment
// and must wake waiters in the peer process.
long sys_futex(std::atomic<std::uint32_t>* uaddr, int op, std::uint32_t val,
               const timespec* timeout) {
  return ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(uaddr), op, val,
                   timeout, nullptr, 0);
}

void futex_wait_for(std::atomic<std::uint32_t>* uaddr, std::uint32_t expected,
                    long timeout_ns) {
  timespec ts{0, timeout_ns};
  sys_futex(uaddr, FUTEX_WAIT, expected, &ts);
}

void futex_wake_all(std::atomic<std::uint32_t>* uaddr) {
  sys_futex(uaddr, FUTEX_WAKE, INT_MAX, nullptr);
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

std::size_t round_pow2(std::size_t v) {
  std::size_t p = 4096;
  while (p < v) p <<= 1;
  return p;
}

// Futex sleep bound: short enough that a missed wake or a peer that died
// without closing is noticed promptly via the closed-bit recheck.
constexpr long kFutexSliceNs = 50'000'000;  // 50 ms

// Adaptive wait. A short pause-spin covers a peer that is mid-write. After
// it, sched_yield runs only while this wait is younger than kYieldBudgetNs
// (about 3x a futex wake) and the endpoint's smoothed recent wait length
// `avg_ns` fits the same budget: dense traffic (a round trip in flight)
// yields, an idle endpoint parks on the futex word `seq` at once. `stop`
// (argument: about to park) ends the wait unsuccessfully. Waits that end
// inside the spin are not counted; longer ones enter the average clamped to
// twice the budget, so one long idle stretch is forgotten within a few
// dense waits.
constexpr unsigned kSpin = 64;
constexpr std::int64_t kYieldBudgetNs = 50'000;

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Ready, typename Stop>
bool adaptive_wait(std::atomic<std::uint32_t>& seq,
                   std::atomic<std::uint32_t>& waiters,
                   std::atomic<std::int64_t>& avg_ns, Ready ready, Stop stop) {
  for (unsigned i = 0; i < kSpin; ++i) {
    if (ready()) return true;
    cpu_relax();
  }
  const std::int64_t t0 = mono_ns();
  bool ok = false;
  for (;;) {
    const std::uint32_t s = seq.load(std::memory_order_acquire);
    if ((ok = ready())) break;
    const bool young = mono_ns() - t0 < kYieldBudgetNs &&
                       avg_ns.load(std::memory_order_relaxed) <= kYieldBudgetNs;
    if (stop(!young)) break;
    if (young) {
      std::this_thread::yield();
      continue;
    }
    waiters.fetch_add(1, std::memory_order_acq_rel);
    if (!ready()) {
      shm_obs().futex_waits.inc();
      futex_wait_for(&seq, s, kFutexSliceNs);
    }
    waiters.fetch_sub(1, std::memory_order_acq_rel);
  }
  const std::int64_t len = std::min(mono_ns() - t0, 2 * kYieldBudgetNs);
  const std::int64_t avg = avg_ns.load(std::memory_order_relaxed);
  avg_ns.store(avg + (len - avg) / 8, std::memory_order_relaxed);
  return ok;
}

}  // namespace

namespace shm_detail {

// Per-direction ring control. head counts bytes ever produced, tail bytes
// ever consumed (both monotonically increasing; ring index = offset &
// (ring_bytes-1)). data_seq/space_seq are the futex words bumped on every
// publish/consume; the waiter counters let the fast path skip the wake
// syscall when nobody sleeps. Producer and consumer cachelines are kept
// apart.
struct alignas(64) RingCtl {
  std::atomic<std::uint64_t> head;
  std::atomic<std::uint32_t> data_seq;
  std::atomic<std::uint32_t> data_waiters;
  char pad0[48];
  std::atomic<std::uint64_t> tail;
  std::atomic<std::uint32_t> space_seq;
  std::atomic<std::uint32_t> space_waiters;
  char pad1[48];
};
static_assert(sizeof(RingCtl) == 128);

struct SegmentHdr {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint64_t ring_bytes;  ///< per direction, power of two
  /// bit 0: creator closed, bit 1: attacher closed.
  std::atomic<std::uint32_t> closed;
  std::atomic<std::uint32_t> attached;
  char pad[40];
  RingCtl ring[2];  ///< [0] creator→attacher, [1] attacher→creator
};
static_assert(sizeof(SegmentHdr) == 64 + 2 * sizeof(RingCtl));
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);
static_assert(std::atomic<std::uint32_t>::is_always_lock_free);

Mapping::~Mapping() {
  if (mem != nullptr) ::munmap(mem, len);
  if (unlink_on_close && !name.empty()) ::shm_unlink(name.c_str());
}

}  // namespace shm_detail

using shm_detail::Mapping;
using shm_detail::RingCtl;
using shm_detail::SegmentHdr;

// ------------------------------------------------------------ construction

ShmTransport::ShmTransport(std::shared_ptr<Mapping> map, bool creator,
                           std::shared_ptr<Transport> anchor, ShmOptions opts)
    : map_(std::move(map)),
      creator_(creator),
      opts_(opts),
      anchor_(std::move(anchor)) {
  last_rx_wall_.store(wall_now(), std::memory_order_relaxed);
}

ShmTransport::~ShmTransport() { close(); }

SegmentHdr* ShmTransport::hdr() const {
  return static_cast<SegmentHdr*>(map_->mem);
}

RingCtl& ShmTransport::tx_ctl() const { return hdr()->ring[creator_ ? 0 : 1]; }
RingCtl& ShmTransport::rx_ctl() const { return hdr()->ring[creator_ ? 1 : 0]; }

std::uint8_t* ShmTransport::tx_data() const {
  auto* base = static_cast<std::uint8_t*>(map_->mem) + sizeof(SegmentHdr);
  return base + (creator_ ? 0 : hdr()->ring_bytes);
}

std::uint8_t* ShmTransport::rx_data() const {
  auto* base = static_cast<std::uint8_t*>(map_->mem) + sizeof(SegmentHdr);
  return base + (creator_ ? hdr()->ring_bytes : 0);
}

std::size_t ShmTransport::ring_bytes() const { return hdr()->ring_bytes; }

bool ShmTransport::peer_attached() const {
  return hdr()->attached.load(std::memory_order_acquire) != 0;
}

namespace {

std::shared_ptr<Mapping> init_segment(void* mem, std::size_t total,
                                      std::size_t ring_bytes) {
  auto* h = new (mem) SegmentHdr{};
  h->magic = kShmMagic;
  h->version = kShmVersion;
  h->ring_bytes = ring_bytes;
  auto m = std::make_shared<Mapping>();
  m->mem = mem;
  m->len = total;
  shm_obs().segments.inc();
  return m;
}

}  // namespace

ShmTransport::Pair ShmTransport::make_pair(ShmOptions opts) {
  opts.ring_bytes = round_pow2(opts.ring_bytes);
  const std::size_t total = sizeof(SegmentHdr) + 2 * opts.ring_bytes;
  void* mem = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return {};
  auto m = init_segment(mem, total, opts.ring_bytes);
  Pair p;
  p.a.reset(new ShmTransport(m, /*creator=*/true, nullptr, opts));
  p.b.reset(new ShmTransport(m, /*creator=*/false, nullptr, opts));
  return p;
}

std::shared_ptr<ShmTransport> ShmTransport::create_named(std::string& name_out,
                                                         ShmOptions opts) {
  opts.ring_bytes = round_pow2(opts.ring_bytes);
  const std::size_t total = sizeof(SegmentHdr) + 2 * opts.ring_bytes;

  // Name layout: /bsk.shm.<pid>.<epoch>.<counter>. The per-process epoch
  // stamp (wall microseconds at first use) makes the name unique even when
  // the kernel recycles a dead owner's pid before its leak is reaped, and
  // the embedded pid is what reap_stale_shm_segments() probes for life.
  static std::atomic<std::uint64_t> counter{0};
  static const std::uint64_t epoch = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  char name[96];
  std::snprintf(name, sizeof name, "/bsk.shm.%d.%llu.%llu",
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(
                    counter.fetch_add(1, std::memory_order_relaxed)));

  const int fd = ::shm_open(name, O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) return nullptr;
  if (::ftruncate(fd, static_cast<off_t>(total)) != 0) {
    ::close(fd);
    ::shm_unlink(name);
    return nullptr;
  }
  void* mem =
      ::mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (mem == MAP_FAILED) {
    ::shm_unlink(name);
    return nullptr;
  }
  auto m = init_segment(mem, total, opts.ring_bytes);
  m->name = name;
  m->unlink_on_close = true;  // covers a client that never attaches
  name_out = name;
  return std::shared_ptr<ShmTransport>(
      new ShmTransport(std::move(m), /*creator=*/true, nullptr, opts));
}

std::shared_ptr<ShmTransport> ShmTransport::attach_named(
    const std::string& name, std::shared_ptr<Transport> anchor,
    ShmOptions opts) {
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
  if (fd < 0) return nullptr;
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < static_cast<off_t>(sizeof(SegmentHdr))) {
    ::close(fd);
    return nullptr;
  }
  const std::size_t total = static_cast<std::size_t>(st.st_size);
  void* mem =
      ::mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (mem == MAP_FAILED) return nullptr;

  auto* h = static_cast<SegmentHdr*>(mem);
  if (h->magic != kShmMagic || h->version != kShmVersion ||
      h->ring_bytes == 0 || (h->ring_bytes & (h->ring_bytes - 1)) != 0 ||
      total != sizeof(SegmentHdr) + 2 * h->ring_bytes) {
    ::munmap(mem, total);
    return nullptr;
  }
  h->attached.store(1, std::memory_order_release);
  // One-shot rendezvous: with both ends mapped the name is no longer
  // needed; unlinking now means a crash on either side cannot leak it.
  ::shm_unlink(name.c_str());

  auto m = std::make_shared<Mapping>();
  m->mem = mem;
  m->len = total;
  opts.ring_bytes = h->ring_bytes;
  return std::shared_ptr<ShmTransport>(
      new ShmTransport(std::move(m), /*creator=*/false, std::move(anchor),
                       opts));
}

// ----------------------------------------------------------------- closing

void ShmTransport::close() {
  auto* h = hdr();
  const std::uint32_t bit = creator_ ? 1u : 2u;
  if ((h->closed.fetch_or(bit, std::memory_order_acq_rel) & bit) == 0) {
    // Wake every waiter on both rings so blocked peers re-check the flag.
    for (RingCtl& c : h->ring) {
      c.data_seq.fetch_add(1, std::memory_order_release);
      c.space_seq.fetch_add(1, std::memory_order_release);
      futex_wake_all(&c.data_seq);
      futex_wake_all(&c.space_seq);
    }
  }
  if (anchor_) anchor_->close();
}

bool ShmTransport::closed() const {
  if (hdr()->closed.load(std::memory_order_acquire) != 0) return true;
  return anchor_ && anchor_->closed();
}

void ShmTransport::fail_decode(DecodeError e) {
  decode_error_.store(e, std::memory_order_relaxed);
  if (e == DecodeError::BadCrc) shm_obs().crc_errors.inc();
  shm_obs().decode_errors.inc();
  close();
}

// ----------------------------------------------------------------- sending

// Block until the producer ring has `need` free bytes (need ≤ cap). Returns
// false if the transport closed while waiting.
bool ShmTransport::wait_space_locked(std::uint64_t need) {
  RingCtl& c = tx_ctl();
  const std::uint64_t cap = hdr()->ring_bytes;
  const auto fits = [&] {
    return cap - (c.head.load(std::memory_order_relaxed) -
                  c.tail.load(std::memory_order_acquire)) >= need;
  };
  if (fits()) return true;
  shm_obs().full_stalls.inc();
  return adaptive_wait(c.space_seq, c.space_waiters, tx_wait_ns_, fits,
                       [&](bool) { return closed(); });
}

// Copy `n` bytes into the producer ring at absolute offset `at` (no
// publication — the caller stores head afterwards).
void ShmTransport::copy_in(std::uint64_t at, const std::uint8_t* p,
                           std::size_t n) {
  if (n == 0) return;
  const std::uint64_t cap = hdr()->ring_bytes;
  std::uint8_t* data = tx_data();
  const std::uint64_t idx = at & (cap - 1);
  const std::size_t first =
      static_cast<std::size_t>(std::min<std::uint64_t>(n, cap - idx));
  std::memcpy(data + idx, p, first);
  if (n > first) std::memcpy(data, p + first, n - first);
}

// Publish `n` freshly written bytes and wake a parked consumer if any.
void ShmTransport::publish(std::uint64_t n) {
  RingCtl& c = tx_ctl();
  const std::uint64_t head = c.head.load(std::memory_order_relaxed);
  c.head.store(head + n, std::memory_order_release);
  c.data_seq.fetch_add(1, std::memory_order_release);
  if (c.data_waiters.load(std::memory_order_acquire) != 0)
    futex_wake_all(&c.data_seq);
}

bool ShmTransport::ring_write(const std::uint8_t* p, std::size_t n) {
  // Streaming writer for frames larger than the ring: publish progressively
  // so the consumer drains behind us.
  RingCtl& c = tx_ctl();
  const std::uint64_t cap = hdr()->ring_bytes;
  while (n > 0) {
    if (!wait_space_locked(1)) return false;
    const std::uint64_t head = c.head.load(std::memory_order_relaxed);
    const std::uint64_t tail = c.tail.load(std::memory_order_acquire);
    const std::uint64_t space = cap - (head - tail);
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(n, space));
    copy_in(head, p, chunk);
    publish(chunk);
    p += chunk;
    n -= chunk;
  }
  return true;
}

namespace {

// Encoded frame header+type: [u32 len][u32 crc][u8 type].
void put_frame_hdr(std::uint8_t* h9, std::uint32_t len, std::uint32_t crc,
                   std::uint8_t type) {
  for (int i = 0; i < 4; ++i) {
    h9[i] = static_cast<std::uint8_t>(len >> (8 * i));
    h9[4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  h9[8] = type;
}

}  // namespace

bool ShmTransport::send(const Frame& f) { return send_many(&f, 1); }

bool ShmTransport::send_many(const Frame* fs, std::size_t n) {
  if (n == 0) return !closed();
  if (closed()) return false;
  support::MutexLock lk(send_mu_);
  const std::uint64_t cap = hdr()->ring_bytes;
  RingCtl& c = tx_ctl();
  std::uint64_t sent_bytes = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const Frame& f = fs[i];
    const std::uint32_t len = static_cast<std::uint32_t>(f.payload.size() + 1);
    const std::uint8_t type = static_cast<std::uint8_t>(f.type);
    std::uint32_t crc = crc32(&type, 1);
    crc = crc32(f.payload.data(), f.payload.size(), crc);
    std::uint8_t h9[9];
    put_frame_hdr(h9, len, crc, type);
    const std::uint64_t total = 8u + len;

    if (total <= cap) {
      // Whole-frame publication: wait until the frame fits, copy header and
      // payload, then publish head once — the consumer never sees a torn
      // frame, which is what lets recv_for time out only at frame
      // boundaries.
      if (!wait_space_locked(total)) return false;
      const std::uint64_t head = c.head.load(std::memory_order_relaxed);
      copy_in(head, h9, 9);
      copy_in(head + 9, f.payload.data(), f.payload.size());
      publish(total);
    } else {
      // Frame larger than the ring: stream it through with progressive
      // publication; the consumer drains chunk by chunk behind us.
      if (!ring_write(h9, 9) ||
          !ring_write(f.payload.data(), f.payload.size()))
        return false;
    }
    sent_bytes += total;
  }

  frames_sent_.fetch_add(n, std::memory_order_relaxed);
  bytes_sent_.fetch_add(sent_bytes, std::memory_order_relaxed);
  shm_obs().frames_sent.inc(n);
  shm_obs().bytes_sent.inc(sent_bytes);
  return true;
}

bool ShmTransport::send_serialized(FrameType type, std::size_t n,
                                   const SerializeFn& emit) {
  if (n == 0) return !closed();
  if (closed()) return false;
  // Zero-copy-ish: each frame is serialized once into a reusable
  // thread-local scratch (alloc-free after warmup) whose exact wire bytes
  // are then ring-copied — no Frame, no per-frame vector.
  thread_local std::vector<std::uint8_t> scratch;
  const std::uint64_t cap = hdr()->ring_bytes;
  RingCtl& c = tx_ctl();
  std::size_t sent = 0;
  std::uint64_t sent_bytes = 0;
  bool ok = true;
  {
    support::MutexLock lk(send_mu_);
    for (std::size_t i = 0; i < n && ok; ++i) {
      scratch.clear();
      build_frame_into(scratch, type, [&](wire::Writer& w) { emit(i, w); });
      const std::uint64_t total = scratch.size();
      if (total <= cap) {
        if (!wait_space_locked(total)) {
          ok = false;
          break;
        }
        copy_in(c.head.load(std::memory_order_relaxed), scratch.data(),
                scratch.size());
        publish(total);
      } else {
        ok = ring_write(scratch.data(), scratch.size());
      }
      if (ok) {
        ++sent;
        sent_bytes += total;
      }
    }
  }
  frames_sent_.fetch_add(sent, std::memory_order_relaxed);
  bytes_sent_.fetch_add(sent_bytes, std::memory_order_relaxed);
  shm_obs().frames_sent.inc(sent);
  shm_obs().bytes_sent.inc(sent_bytes);
  return ok;
}

// --------------------------------------------------------------- receiving

void ShmTransport::read_span(std::uint64_t from, std::uint8_t* dst,
                             std::size_t n) const {
  if (n == 0) return;
  const std::uint64_t cap = hdr()->ring_bytes;
  const std::uint8_t* data = rx_data();
  const std::uint64_t idx = from & (cap - 1);
  const std::size_t first =
      static_cast<std::size_t>(std::min<std::uint64_t>(n, cap - idx));
  std::memcpy(dst, data + idx, first);
  if (n > first) std::memcpy(dst + first, data, n - first);
}

void ShmTransport::consume(std::size_t n) {
  RingCtl& c = rx_ctl();
  const std::uint64_t tail = c.tail.load(std::memory_order_relaxed);
  c.tail.store(tail + n, std::memory_order_release);
  c.space_seq.fetch_add(1, std::memory_order_release);
  if (c.space_waiters.load(std::memory_order_acquire) != 0)
    futex_wake_all(&c.space_seq);
}

bool ShmTransport::wait_readable(std::size_t need, bool bounded,
                                 double deadline, Frame* control_out,
                                 RecvStatus* control_status) {
  RingCtl& c = rx_ctl();
  const auto readable = [&] {
    return c.head.load(std::memory_order_acquire) -
               c.tail.load(std::memory_order_relaxed) >=
           need;
  };
  // Control frames arriving on the TCP anchor (Leave at daemon shutdown,
  // Shutdown) are polled only before parking: by the time they matter the
  // rings are idle.
  const auto stop = [&](bool parking) {
    if (closed() && !readable()) {
      *control_status = RecvStatus::Closed;
      return true;
    }
    if (bounded && wall_now() >= deadline) {
      *control_status = RecvStatus::TimedOut;
      return true;
    }
    if (parking && anchor_ != nullptr && control_out != nullptr) {
      Frame f;
      if (anchor_->recv_for(f, 0.0) == RecvStatus::Ok) {
        *control_out = std::move(f);
        *control_status = RecvStatus::Ok;
        return true;
      }
    }
    return false;
  };
  return adaptive_wait(c.data_seq, c.data_waiters, rx_wait_ns_, readable, stop);
}

RecvStatus ShmTransport::recv_until(Frame& out, bool bounded,
                                    double wall_seconds) {
  const double deadline = bounded ? wall_now() + wall_seconds : 0.0;
  RingCtl& c = rx_ctl();
  const std::uint64_t cap = hdr()->ring_bytes;

  for (;;) {  // loop absorbs heartbeats
    RecvStatus st = RecvStatus::Closed;
    Frame control;
    if (!wait_readable(8, bounded, deadline, &control, &st)) {
      if (st == RecvStatus::Ok) {  // control frame from the anchor
        out = std::move(control);
        frames_received_.fetch_add(1, std::memory_order_relaxed);
        return RecvStatus::Ok;
      }
      return st;
    }

    const std::uint64_t tail = c.tail.load(std::memory_order_relaxed);
    std::uint8_t h8[8];
    read_span(tail, h8, 8);
    std::uint32_t len = 0, want_crc = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(h8[i]) << (8 * i);
      want_crc |= static_cast<std::uint32_t>(h8[4 + i]) << (8 * i);
    }
    if (len == 0) {
      fail_decode(DecodeError::ZeroLength);
      return RecvStatus::Closed;
    }
    if (len > opts_.max_frame) {
      fail_decode(DecodeError::Oversize);
      return RecvStatus::Closed;
    }

    std::uint8_t type = 0;
    std::uint32_t crc = 0;
    const std::uint64_t total = 8u + static_cast<std::uint64_t>(len);

    if (total <= cap) {
      // Small frame: the producer published it whole, so completing the
      // read never blocks past a published header.
      if (!wait_readable(static_cast<std::size_t>(total), bounded, deadline,
                         &control, &st)) {
        if (st == RecvStatus::Ok) {  // header stays unconsumed in the ring
          out = std::move(control);
          frames_received_.fetch_add(1, std::memory_order_relaxed);
          return RecvStatus::Ok;
        }
        return st;
      }
      read_span(tail + 8, &type, 1);
      out.payload.resize(len - 1);
      read_span(tail + 9, out.payload.data(), len - 1);
      consume(static_cast<std::size_t>(total));
      crc = crc32(&type, 1);
      crc = crc32(out.payload.data(), out.payload.size(), crc);
    } else {
      // Giant frame (larger than the ring): stream it, consuming and
      // re-publishing tail progressively so the producer can keep writing.
      consume(8);
      if (!wait_readable(1, false, 0.0, nullptr, &st)) return st;
      read_span(c.tail.load(std::memory_order_relaxed), &type, 1);
      consume(1);
      crc = crc32(&type, 1);
      out.payload.resize(len - 1);
      std::size_t got = 0;
      while (got < out.payload.size()) {
        if (!wait_readable(1, false, 0.0, nullptr, &st)) return st;
        const std::uint64_t t2 = c.tail.load(std::memory_order_relaxed);
        const std::uint64_t a =
            c.head.load(std::memory_order_acquire) - t2;
        const std::size_t chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(a, out.payload.size() - got));
        read_span(t2, out.payload.data() + got, chunk);
        consume(chunk);
        crc = crc32(out.payload.data() + got, chunk, crc);
        got += chunk;
      }
    }

    if (crc != want_crc) {
      fail_decode(DecodeError::BadCrc);
      return RecvStatus::Closed;
    }

    bytes_received_.fetch_add(total, std::memory_order_relaxed);
    shm_obs().bytes_received.inc(total);
    last_rx_wall_.store(wall_now(), std::memory_order_relaxed);
    if (static_cast<FrameType>(type) == FrameType::Heartbeat) {
      heartbeats_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    out.type = static_cast<FrameType>(type);
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    shm_obs().frames_received.inc();
    return RecvStatus::Ok;
  }
}

RecvStatus ShmTransport::recv(Frame& out) {
  return recv_until(out, /*bounded=*/false, 0.0);
}

RecvStatus ShmTransport::recv_for(Frame& out, double wall_seconds) {
  return recv_until(out, /*bounded=*/true, wall_seconds);
}

double ShmTransport::idle_seconds() const {
  // Peer progress is visible in the ring head even when no recv() runs, so
  // unconsumed traffic still counts as liveness; with a TCP anchor (whose
  // I/O thread absorbs heartbeats continuously) defer to the fresher of
  // the two.
  const std::uint64_t head = rx_ctl().head.load(std::memory_order_acquire);
  if (head != last_rx_head_.load(std::memory_order_relaxed)) {
    last_rx_head_.store(head, std::memory_order_relaxed);
    last_rx_wall_.store(wall_now(), std::memory_order_relaxed);
  }
  const double mine =
      wall_now() - last_rx_wall_.load(std::memory_order_relaxed);
  if (anchor_) return std::min(mine, anchor_->idle_seconds());
  return mine;
}

TransportStats ShmTransport::stats() const {
  TransportStats s;
  s.frames_sent = frames_sent_.load();
  s.frames_received = frames_received_.load();
  s.bytes_sent = bytes_sent_.load();
  s.bytes_received = bytes_received_.load();
  s.heartbeats_seen = heartbeats_.load();
  return s;
}

// ----------------------------------------------------------------- reaping

std::size_t reap_stale_shm_segments() {
  DIR* d = ::opendir("/dev/shm");
  if (d == nullptr) return 0;
  std::size_t reaped = 0;
  const pid_t self = ::getpid();
  while (dirent* e = ::readdir(d)) {
    const char* n = e->d_name;
    // Current "bsk.shm.<pid>..." layout plus the pre-reaper
    // "bsk-shm-<pid>-..." one, both with the owner pid right after the
    // prefix.
    long pid = 0;
    if (std::strncmp(n, "bsk.shm.", 8) == 0 ||
        std::strncmp(n, "bsk-shm-", 8) == 0)
      pid = std::strtol(n + 8, nullptr, 10);
    else
      continue;
    if (pid <= 0 || static_cast<pid_t>(pid) == self) continue;
    if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH)
      continue;  // owner alive (or not ours to probe): leave it be
    std::string path = "/";
    path += n;
    if (::shm_unlink(path.c_str()) == 0) ++reaped;
  }
  ::closedir(d);
  return reaped;
}

}  // namespace bsk::net
