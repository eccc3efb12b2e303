// Transport conformance: one behavioural contract, two backends.
//
// Every test in TransportConformance runs against both ShmTransport (an
// anonymous in-process pair) and TcpTransport (loopback) through the same
// fixture — the wire protocol must not care which one carries it.
// Backend-specific behaviour (connect retry budgets, heartbeat-refreshed
// idleness, EOF detection) is tested separately below.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/shm.hpp"
#include "net/transport.hpp"

namespace bsk::net {
namespace {

Frame msg(FrameType type, std::initializer_list<std::uint8_t> bytes) {
  Frame f;
  f.type = type;
  f.payload = bytes;
  return f;
}

class TransportConformance : public ::testing::TestWithParam<std::string> {
 protected:
  struct Pair {
    std::shared_ptr<Transport> a;
    std::shared_ptr<Transport> b;
  };

  Pair make() {
    if (GetParam() == "shm") {
      auto p = ShmTransport::make_pair();
      return {p.a, p.b};
    }
    auto listener = std::make_shared<TcpListener>(0);
    EXPECT_TRUE(listener->valid());
    listeners_.push_back(listener);
    std::shared_ptr<Transport> client =
        TcpTransport::connect("127.0.0.1", listener->port());
    std::shared_ptr<Transport> server = listener->accept_for(5.0);
    EXPECT_NE(client, nullptr);
    EXPECT_NE(server, nullptr);
    return {client, server};
  }

  std::vector<std::shared_ptr<TcpListener>> listeners_;
};

TEST_P(TransportConformance, SendRecvPreservesOrderAndBytes) {
  auto [a, b] = make();
  for (int i = 0; i < 100; ++i) {
    Frame f;
    f.type = i % 2 == 0 ? FrameType::TaskMsg : FrameType::ResultMsg;
    f.payload.assign(static_cast<std::size_t>(i), static_cast<std::uint8_t>(i));
    ASSERT_TRUE(a->send(f));
  }
  for (int i = 0; i < 100; ++i) {
    Frame f;
    ASSERT_EQ(b->recv(f), RecvStatus::Ok) << "frame " << i;
    EXPECT_EQ(f.type,
              i % 2 == 0 ? FrameType::TaskMsg : FrameType::ResultMsg);
    ASSERT_EQ(f.payload.size(), static_cast<std::size_t>(i));
    if (i > 0) EXPECT_EQ(f.payload[0], static_cast<std::uint8_t>(i));
  }
  a->close();
  b->close();
}

TEST_P(TransportConformance, RecvForTimesOutPromptly) {
  auto [a, b] = make();
  Frame f;
  const double t0 = wall_now();
  EXPECT_EQ(b->recv_for(f, 0.05), RecvStatus::TimedOut);
  EXPECT_LT(wall_now() - t0, 2.0);  // did not block unboundedly
  a->close();
  b->close();
}

TEST_P(TransportConformance, CloseDrainsBufferedFramesThenReportsClosed) {
  auto [a, b] = make();
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(a->send(msg(FrameType::TaskMsg, {static_cast<uint8_t>(i)})));
  a->close();
  Frame f;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(b->recv(f), RecvStatus::Ok) << "frame " << i;
    EXPECT_EQ(f.payload[0], static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(b->recv(f), RecvStatus::Closed);
  EXPECT_TRUE(b->closed());
}

TEST_P(TransportConformance, PeerCloseUnblocksBlockedRecv) {
  auto [a, b] = make();
  std::jthread closer([a = a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    a->close();
  });
  Frame f;
  EXPECT_EQ(b->recv(f), RecvStatus::Closed);
}

TEST_P(TransportConformance, SendAfterCloseFails) {
  auto [a, b] = make();
  a->close();
  EXPECT_FALSE(a->send(msg(FrameType::TaskMsg, {1})));
  b->close();
}

TEST_P(TransportConformance, HeartbeatsAreAbsorbedNeverSurfaced) {
  auto [a, b] = make();
  ASSERT_TRUE(a->send(Frame{FrameType::Heartbeat, {}}));
  ASSERT_TRUE(a->send(Frame{FrameType::Heartbeat, {}}));
  ASSERT_TRUE(a->send(msg(FrameType::TaskMsg, {42})));
  Frame f;
  ASSERT_EQ(b->recv(f), RecvStatus::Ok);
  EXPECT_EQ(f.type, FrameType::TaskMsg);  // heartbeats skipped
  EXPECT_EQ(f.payload[0], 42);
  EXPECT_GE(b->stats().heartbeats_seen, 2u);
  a->close();
  b->close();
}

TEST_P(TransportConformance, BidirectionalPingPong) {
  auto [a, b] = make();
  std::jthread echo([b = b] {
    Frame f;
    while (b->recv(f) == RecvStatus::Ok) {
      f.type = FrameType::ResultMsg;
      if (!b->send(f)) break;
    }
  });
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(a->send(msg(FrameType::TaskMsg, {static_cast<uint8_t>(i)})));
    Frame f;
    ASSERT_EQ(a->recv(f), RecvStatus::Ok);
    EXPECT_EQ(f.type, FrameType::ResultMsg);
    EXPECT_EQ(f.payload[0], static_cast<std::uint8_t>(i));
  }
  a->close();
  b->close();
}

TEST_P(TransportConformance, StatsCountFrames) {
  auto [a, b] = make();
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(a->send(msg(FrameType::TaskMsg, {})));
  Frame f;
  for (int i = 0; i < 10; ++i) ASSERT_EQ(b->recv(f), RecvStatus::Ok);
  EXPECT_EQ(a->stats().frames_sent, 10u);
  EXPECT_EQ(b->stats().frames_received, 10u);
  a->close();
  b->close();
}

TEST_P(TransportConformance, SecuredFlagFlips) {
  auto [a, b] = make();
  EXPECT_FALSE(a->secured());
  a->mark_secured();
  EXPECT_TRUE(a->secured());
  EXPECT_FALSE(b->secured());
  a->close();
  b->close();
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformance,
                         ::testing::Values(std::string("shm"),
                                           std::string("tcp")),
                         [](const auto& info) { return info.param; });

// ------------------------------------------------------------ tcp-specific

TEST(TcpTransport, ConnectRetryBudgetIsBoundedAndFails) {
  TcpOptions opts;
  opts.connect_retries = 2;
  opts.connect_timeout_s = 0.1;
  opts.retry_backoff_s = 0.01;
  const double t0 = wall_now();
  // Port 1 on loopback: nothing listens there in the sandbox.
  auto tp = TcpTransport::connect("127.0.0.1", 1, opts);
  EXPECT_EQ(tp, nullptr);
  EXPECT_LT(wall_now() - t0, 5.0);
}

TEST(TcpTransport, ListenerBindsEphemeralPort) {
  TcpListener l1(0), l2(0);
  ASSERT_TRUE(l1.valid());
  ASSERT_TRUE(l2.valid());
  EXPECT_NE(l1.port(), 0);
  EXPECT_NE(l1.port(), l2.port());
}

TEST(TcpTransport, AcceptForTimesOutWithoutClient) {
  TcpListener l(0);
  ASSERT_TRUE(l.valid());
  const double t0 = wall_now();
  EXPECT_EQ(l.accept_for(0.05), nullptr);
  EXPECT_LT(wall_now() - t0, 2.0);
}

TEST(TcpTransport, HeartbeatsRefreshIdleSeconds) {
  TcpListener l(0);
  auto client = TcpTransport::connect("127.0.0.1", l.port());
  auto server = l.accept_for(5.0);
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const double idle_before = server->idle_seconds();
  ASSERT_TRUE(client->send(Frame{FrameType::Heartbeat, {}}));
  // Wait for the reactor loop to register the beat.
  const double deadline = wall_now() + 2.0;
  while (server->stats().heartbeats_seen == 0 && wall_now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(server->stats().heartbeats_seen, 1u);
  EXPECT_LT(server->idle_seconds(), idle_before + 0.05);
  client->close();
  server->close();
}

TEST(TcpTransport, WritingIntoPeerClosedSocketDoesNotRaiseSigpipe) {
  // Regression: the flush writes with MSG_NOSIGNAL, so a peer that
  // vanished before our write produces EPIPE (a dead
  // connection), not a process-killing SIGPIPE. Without the flag this test
  // aborts the whole binary.
  TcpListener l(0);
  auto client = TcpTransport::connect("127.0.0.1", l.port());
  auto server = l.accept_for(5.0);
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);
  server->close();  // peer goes away; client does not know yet

  Frame big;
  big.type = FrameType::TaskMsg;
  big.payload.assign(1 << 16, 0x5a);
  // Keep writing until the RST lands and the write path sees EPIPE. Each
  // send is either queued (true) or rejected on a dead connection (false).
  const double deadline = wall_now() + 5.0;
  while (!client->closed() && wall_now() < deadline) {
    client->send(big);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(client->closed());  // died gracefully, in-process
  client->close();
}

TEST(TcpTransport, CorruptedBytesOnTheWireDieAsBadCrc) {
  // A peer (or a fault) that garbles bytes mid-stream must not crash the
  // decoder or deliver a wrong frame: the CRC check kills the connection
  // with a typed decode error.
  TcpListener l(0);
  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(l.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  auto server = l.accept_for(5.0);
  ASSERT_NE(server, nullptr);

  Frame f;
  f.type = FrameType::TaskMsg;
  f.payload = {1, 2, 3, 4};
  auto bytes = encode_frame(f);
  bytes.back() ^= 0xff;  // corrupt in transit
  ASSERT_EQ(::send(raw, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));

  Frame got;
  EXPECT_EQ(server->recv_for(got, 5.0), RecvStatus::Closed);
  EXPECT_EQ(server->decode_error(), DecodeError::BadCrc);
  ::close(raw);
  server->close();
}

TEST(TcpTransport, PeerDestructionReadsAsClosed) {
  TcpListener l(0);
  auto client = TcpTransport::connect("127.0.0.1", l.port());
  auto server = l.accept_for(5.0);
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);
  client.reset();  // socket torn down — the remote process "dies"
  Frame f;
  EXPECT_EQ(server->recv_for(f, 5.0), RecvStatus::Closed);
  EXPECT_TRUE(server->closed());
}

// The scatter/gather write path under maximum partial-progress pressure:
// a socket whose send buffer holds only a sliver of each batch forces
// sendmsg to return short on nearly every call, and a SIGUSR1 storm aimed
// at the sending thread (handler installed *without* SA_RESTART) forces
// EINTR mid-write. send_many must resume precisely where the short write
// stopped — any slip corrupts the stream and the CRC on the far side
// would kill the connection.
TEST(TcpTransport, SendManySurvivesShortWritesAndEintrStorm) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)),
            0);
  auto writer = std::make_shared<TcpTransport>(sv[0]);
  auto reader = std::make_shared<TcpTransport>(sv[1]);

  // No-op handler, no SA_RESTART: every signal interrupts the syscall.
  struct sigaction sa{}, old{};
  sa.sa_handler = [](int) {};
  sa.sa_flags = 0;
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  const int kBatches = 20, kPerBatch = 16;
  std::atomic<bool> sending{true};
  std::thread sender([&] {
    for (int b = 0; b < kBatches; ++b) {
      std::vector<Frame> batch(kPerBatch);
      for (int i = 0; i < kPerBatch; ++i) {
        batch[static_cast<std::size_t>(i)].type = FrameType::TaskMsg;
        batch[static_cast<std::size_t>(i)].payload.assign(
            2048, static_cast<std::uint8_t>(b * kPerBatch + i));
      }
      ASSERT_TRUE(writer->send_many(batch.data(), batch.size()))
          << "batch " << b;
    }
    sending.store(false);
  });
  const pthread_t victim = sender.native_handle();
  std::thread storm([&] {
    while (sending.load()) {
      ::pthread_kill(victim, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  Frame f;
  for (int i = 0; i < kBatches * kPerBatch; ++i) {
    ASSERT_EQ(reader->recv_for(f, 20.0), RecvStatus::Ok) << "frame " << i;
    ASSERT_EQ(f.payload.size(), 2048u);
    EXPECT_EQ(f.payload[0], static_cast<std::uint8_t>(i));
    EXPECT_EQ(f.payload[2047], static_cast<std::uint8_t>(i));
  }
  sender.join();
  storm.join();
  ::sigaction(SIGUSR1, &old, nullptr);
  writer->close();
  reader->close();
}

// Same storm through the zero-copy path: send_serialized writes straight
// from the serializer into the send slabs and out through the same gather
// loop, so short-write resume must hold there too.
TEST(TcpTransport, SendSerializedSurvivesShortWriteResume) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)),
            0);
  auto writer = std::make_shared<TcpTransport>(sv[0]);
  auto reader = std::make_shared<TcpTransport>(sv[1]);

  const std::size_t kFrames = 64;
  std::thread sender([&] {
    ASSERT_TRUE(writer->send_serialized(
        FrameType::TaskMsg, kFrames, [](std::size_t i, wire::Writer& w) {
          w.u64(i);
          for (int k = 0; k < 512; ++k)
            w.u32(static_cast<std::uint32_t>(i * 1000 + k));
        }));
  });
  Frame f;
  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_EQ(reader->recv_for(f, 20.0), RecvStatus::Ok) << "frame " << i;
    wire::Reader r(f.payload);
    EXPECT_EQ(r.u64(), i);
    EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(i * 1000));
    EXPECT_TRUE(r.ok());
  }
  sender.join();
  writer->close();
  reader->close();
}

}  // namespace
}  // namespace bsk::net
