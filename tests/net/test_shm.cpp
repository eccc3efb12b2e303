// ShmTransport: the colocated shared-memory fast path.
//
// The contract under test is bit-compatibility with TCP — same wire-v2
// frames, same Transport semantics (ordering, close-drain, timeouts, CRC
// rejection), same chaos-injection behaviour — plus the ring mechanics TCP
// never sees: wraparound, full-ring backpressure, frames larger than the
// ring, and the named-segment negotiation handshake bskd drives.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/chaos.hpp"
#include "net/shm.hpp"
#include "net/wire.hpp"

namespace bsk::net {
namespace {

Frame msg(FrameType type, std::vector<std::uint8_t> bytes) {
  Frame f;
  f.type = type;
  f.payload = std::move(bytes);
  return f;
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<std::uint8_t>(seed + i * 7);
  return p;
}

TEST(ShmTransport, PairRoundTripBothDirections) {
  auto pair = ShmTransport::make_pair();
  ASSERT_NE(pair.a, nullptr);
  ASSERT_NE(pair.b, nullptr);

  ASSERT_TRUE(pair.a->send(msg(FrameType::TaskMsg, pattern(100, 1))));
  ASSERT_TRUE(pair.b->send(msg(FrameType::ResultMsg, pattern(50, 9))));

  Frame f;
  ASSERT_EQ(pair.b->recv_for(f, 2.0), RecvStatus::Ok);
  EXPECT_EQ(f.type, FrameType::TaskMsg);
  EXPECT_EQ(f.payload, pattern(100, 1));
  ASSERT_EQ(pair.a->recv_for(f, 2.0), RecvStatus::Ok);
  EXPECT_EQ(f.type, FrameType::ResultMsg);
  EXPECT_EQ(f.payload, pattern(50, 9));

  pair.a->close();
  pair.b->close();
}

TEST(ShmTransport, RecvForTimesOutOnEmptyRing) {
  auto pair = ShmTransport::make_pair();
  Frame f;
  const double t0 = wall_now();
  EXPECT_EQ(pair.b->recv_for(f, 0.05), RecvStatus::TimedOut);
  EXPECT_LT(wall_now() - t0, 2.0);
}

// Many frames through a ring far smaller than the total traffic: every
// head/tail index wraps repeatedly, and prime-ish payload sizes make sure
// frames straddle the wrap point at many different offsets.
TEST(ShmTransport, WraparoundPreservesEveryFrame) {
  ShmOptions so;
  so.ring_bytes = 4096;
  auto pair = ShmTransport::make_pair(so);

  const int kFrames = 500;
  std::thread consumer([&] {
    Frame f;
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_EQ(pair.b->recv_for(f, 5.0), RecvStatus::Ok) << "frame " << i;
      const std::size_t want = 1 + static_cast<std::size_t>(i * 13) % 331;
      ASSERT_EQ(f.payload.size(), want) << "frame " << i;
      EXPECT_EQ(f.payload,
                pattern(want, static_cast<std::uint8_t>(i)))
          << "frame " << i;
    }
  });
  for (int i = 0; i < kFrames; ++i) {
    const std::size_t n = 1 + static_cast<std::size_t>(i * 13) % 331;
    ASSERT_TRUE(pair.a->send(
        msg(FrameType::TaskMsg, pattern(n, static_cast<std::uint8_t>(i)))));
  }
  consumer.join();
  pair.a->close();
  pair.b->close();
}

// A frame larger than the whole ring cannot be published in one shot: it
// must stream through in chunks while the consumer drains. This is the
// progressive-publication path.
TEST(ShmTransport, FrameLargerThanRingStreamsThrough) {
  ShmOptions so;
  so.ring_bytes = 4096;
  auto pair = ShmTransport::make_pair(so);

  const std::size_t kBig = 64 * 1024;  // 16x the ring
  Frame out;
  std::thread consumer([&] {
    EXPECT_EQ(pair.b->recv_for(out, 10.0), RecvStatus::Ok);
  });
  ASSERT_TRUE(pair.a->send(msg(FrameType::TaskMsg, pattern(kBig, 3))));
  consumer.join();
  EXPECT_EQ(out.payload, pattern(kBig, 3));
}

// Fill the ring with nobody reading: the producer must block (backpressure,
// not drop, not error), then complete once the consumer starts draining.
TEST(ShmTransport, FullRingBlocksProducerUntilConsumerDrains) {
  ShmOptions so;
  so.ring_bytes = 4096;
  auto pair = ShmTransport::make_pair(so);

  const int kFrames = 64;  // ~64 * (9 + 200) bytes >> 4096
  std::atomic<int> sent{0};
  std::thread producer([&] {
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(pair.a->send(
          msg(FrameType::TaskMsg, pattern(200, static_cast<std::uint8_t>(i)))));
      sent.fetch_add(1);
    }
  });

  // Give the producer time to hit the wall. It must stall well short of
  // the total (the ring holds ~19 such frames).
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const int stalled_at = sent.load();
  EXPECT_LT(stalled_at, kFrames);

  Frame f;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_EQ(pair.b->recv_for(f, 5.0), RecvStatus::Ok) << "frame " << i;
    EXPECT_EQ(f.payload[0], static_cast<std::uint8_t>(i));
  }
  producer.join();
  EXPECT_EQ(sent.load(), kFrames);
  pair.a->close();
  pair.b->close();
}

TEST(ShmTransport, CloseDrainsBufferedFramesThenReportsClosed) {
  auto pair = ShmTransport::make_pair();
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(pair.a->send(
        msg(FrameType::TaskMsg, {static_cast<std::uint8_t>(i)})));
  pair.a->close();
  Frame f;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(pair.b->recv_for(f, 2.0), RecvStatus::Ok) << "frame " << i;
    EXPECT_EQ(f.payload[0], static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(pair.b->recv_for(f, 2.0), RecvStatus::Closed);
  EXPECT_TRUE(pair.b->closed());
}

// A receiver whose frames arrive ~100 µs apart must park between them, not
// spin or yield through every gap: its thread CPU time stays a small share
// of the wall time it spends receiving.
TEST(ShmTransport, IdleReceiverParksInsteadOfSpinning) {
  auto pair = ShmTransport::make_pair();
  const int kFrames = 400;
  double cpu_s = 0.0;
  const double t0 = wall_now();
  std::thread receiver([&] {
    Frame f;
    for (int i = 0; i < kFrames; ++i)
      ASSERT_EQ(pair.b->recv_for(f, 5.0), RecvStatus::Ok) << "frame " << i;
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    cpu_s = static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
  });
  for (int i = 0; i < kFrames; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    ASSERT_TRUE(pair.a->send(msg(FrameType::TaskMsg, pattern(64, 1))));
  }
  receiver.join();
  const double wall_s = wall_now() - t0;
  EXPECT_LT(cpu_s, 0.2 * wall_s) << "receiver cpu " << cpu_s << " s of "
                                 << wall_s << " s wall";
  pair.a->close();
  pair.b->close();
}

// send_serialized must produce byte-identical frames to the Frame path —
// it is the same wire encoding, minus the intermediate heap copy.
TEST(ShmTransport, SendSerializedMatchesFramePath) {
  auto pair = ShmTransport::make_pair();
  ASSERT_TRUE(pair.a->send_serialized(
      FrameType::TaskMsg, 3, [](std::size_t i, wire::Writer& w) {
        w.u64(i + 1);
        w.str("task-" + std::to_string(i));
      }));
  for (std::size_t i = 0; i < 3; ++i) {
    Frame f;
    ASSERT_EQ(pair.b->recv_for(f, 2.0), RecvStatus::Ok);
    EXPECT_EQ(f.type, FrameType::TaskMsg);
    wire::Reader r(f.payload);
    EXPECT_EQ(r.u64(), i + 1);
    EXPECT_EQ(r.str(), "task-" + std::to_string(i));
    EXPECT_TRUE(r.ok());
  }
  pair.a->close();
  pair.b->close();
}

// Multiple threads hammering send() on one transport: frames must come out
// whole (send_mu_ serializes producers; publication is per-frame atomic).
TEST(ShmTransport, ConcurrentSendersNeverTearFrames) {
  ShmOptions so;
  so.ring_bytes = 8192;
  auto pair = ShmTransport::make_pair(so);

  const int kThreads = 4, kPer = 100;
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) {
        const std::size_t n = 17 + static_cast<std::size_t>(t * 31 + i) % 97;
        ASSERT_TRUE(pair.a->send(
            msg(FrameType::TaskMsg, pattern(n, static_cast<std::uint8_t>(t)))));
      }
    });
  }
  Frame f;
  for (int i = 0; i < kThreads * kPer; ++i) {
    ASSERT_EQ(pair.b->recv_for(f, 10.0), RecvStatus::Ok) << "frame " << i;
    ASSERT_FALSE(f.payload.empty());
    // Each frame's bytes must be one sender's coherent pattern.
    EXPECT_EQ(f.payload, pattern(f.payload.size(), f.payload[0]));
  }
  for (auto& s : senders) s.join();
  pair.a->close();
  pair.b->close();
}

// Named negotiation: create (bskd side), attach (client side), then frames
// flow and peer_attached() tells the daemon it is safe to reply over shm.
TEST(ShmTransport, NamedSegmentNegotiationAndPeerAttached) {
  std::string name;
  auto server = ShmTransport::create_named(name);
  ASSERT_NE(server, nullptr);
  ASSERT_FALSE(name.empty());
  EXPECT_FALSE(server->peer_attached());

  auto client = ShmTransport::attach_named(name, nullptr);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(server->peer_attached());

  ASSERT_TRUE(client->send(msg(FrameType::TaskMsg, pattern(64, 5))));
  Frame f;
  ASSERT_EQ(server->recv_for(f, 2.0), RecvStatus::Ok);
  EXPECT_EQ(f.payload, pattern(64, 5));
  ASSERT_TRUE(server->send(msg(FrameType::ResultMsg, pattern(32, 6))));
  ASSERT_EQ(client->recv_for(f, 2.0), RecvStatus::Ok);
  EXPECT_EQ(f.payload, pattern(32, 6));

  client->close();
  server->close();
}

TEST(ShmTransport, AttachToUnknownNameFailsGracefully) {
  EXPECT_EQ(ShmTransport::attach_named("/bsk-shm-does-not-exist", nullptr),
            nullptr);
}

// The chaos FaultInjector wraps shm exactly like TCP: a corrupting plan
// produces frames the CRC rejects, and the injector's stats prove the shm
// path carried the schedule.
TEST(ShmTransport, ChaosInjectorWrapsShmLikeAnyTransport) {
  auto pair = ShmTransport::make_pair();
  ChaosSpec spec;
  spec.drop = 0.2;
  spec.dup = 0.2;
  auto plan = std::make_shared<FaultPlan>(7, spec);
  auto chaotic = std::make_shared<FaultInjector>(pair.a, plan, "shm");

  const int kFrames = 200;
  std::thread consumer([&] {
    Frame f;
    // Drops and dups change the count, never the bytes: every frame that
    // arrives must be coherent.
    while (pair.b->recv_for(f, 1.0) == RecvStatus::Ok) {
      ASSERT_FALSE(f.payload.empty());
      EXPECT_EQ(f.payload, pattern(f.payload.size(), f.payload[0]));
    }
  });
  for (int i = 0; i < kFrames; ++i)
    chaotic->send(
        msg(FrameType::TaskMsg, pattern(40, static_cast<std::uint8_t>(i))));
  consumer.join();

  const ChaosStats st = chaotic->chaos_stats();
  EXPECT_EQ(st.frames_seen, static_cast<std::uint64_t>(kFrames));
  EXPECT_GT(st.dropped + st.duplicated, 0u);
  chaotic->close();
  pair.b->close();
}

TEST(ShmTransport, NamedSegmentsEmbedOwnerPid) {
  std::string name;
  auto t = ShmTransport::create_named(name);
  ASSERT_NE(t, nullptr);
  char prefix[32];
  std::snprintf(prefix, sizeof prefix, "/bsk.shm.%d.",
                static_cast<int>(::getpid()));
  EXPECT_EQ(name.rfind(prefix, 0), 0u) << name;
  // A reap sweep must leave a live owner's segment alone.
  reap_stale_shm_segments();
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
  EXPECT_GE(fd, 0);
  if (fd >= 0) ::close(fd);
}

TEST(ShmTransport, ReapRemovesDeadOwnersSegmentsOnly) {
  // Regression for the stale-segment leak: a SIGKILLed daemon leaves its
  // mid-negotiation segments in /dev/shm forever. Plant one under a pid
  // that is genuinely dead (a forked child that already exited) and one
  // under our own; the sweep must remove exactly the orphan.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);

  char stale[96];
  std::snprintf(stale, sizeof stale, "/bsk.shm.%d.1.0",
                static_cast<int>(child));
  int fd = ::shm_open(stale, O_CREAT | O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  ::close(fd);

  char live[96];
  std::snprintf(live, sizeof live, "/bsk.shm.%d.1.424242",
                static_cast<int>(::getpid()));
  fd = ::shm_open(live, O_CREAT | O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  ::close(fd);

  EXPECT_GE(reap_stale_shm_segments(), 1u);

  errno = 0;
  EXPECT_LT(::shm_open(stale, O_RDWR, 0600), 0);  // orphan: reaped
  EXPECT_EQ(errno, ENOENT);
  fd = ::shm_open(live, O_RDWR, 0600);  // live owner: kept
  EXPECT_GE(fd, 0);
  if (fd >= 0) ::close(fd);
  ::shm_unlink(live);
}

}  // namespace
}  // namespace bsk::net
