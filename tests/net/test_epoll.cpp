// EpollServer: the single-loop C10K core under net::Daemon, which bskd runs
// and in-process cluster fleets embed.
//
// Covered here: the Hello-gated callback contract, echo traffic from
// ordinary TcpTransport clients, loop-driven heartbeats, chaos-injected
// clients, graceful close semantics — and the scaling claims: hundreds of
// concurrent connections served by ONE loop thread, plus a forked-bskd soak
// that checks the daemon's thread count stays bounded while serving 64+
// sessions (the whole point of replacing thread-per-connection).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/chaos.hpp"
#include "net/epoll_server.hpp"
#include "net/worker_pool.hpp"
#include "obs/metrics.hpp"
#include "sanitizers.hpp"

namespace bsk::net {
namespace {

// Count live threads of a process via /proc/<pid>/task.
std::size_t thread_count(int pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (!d) return 0;
  std::size_t n = 0;
  while (const dirent* e = ::readdir(d))
    if (e->d_name[0] != '.') ++n;
  ::closedir(d);
  return n;
}

// Names of this process's live threads, from /proc/self/task/*/comm.
std::vector<std::string> thread_names() {
  std::vector<std::string> names;
  DIR* d = ::opendir("/proc/self/task");
  if (!d) return names;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream comm(std::string("/proc/self/task/") + e->d_name + "/comm");
    std::string name;
    std::getline(comm, name);
    names.push_back(name);
  }
  ::closedir(d);
  return names;
}

// Minimal echo service: ack every Hello, echo every frame back.
class EchoHandler : public EpollServer::Handler {
 public:
  EpollServer* server = nullptr;
  std::atomic<int> hellos{0};
  std::atomic<int> frames{0};
  std::atomic<int> closed{0};

  void on_hello(EpollServer::ConnId c, const Hello& h) override {
    hellos.fetch_add(1);
    HelloAck ack;
    ack.ok = h.magic == kMagic && h.version == kProtocolVersion;
    ack.session = c;
    server->send(c, make_hello_ack(ack));
  }
  void on_frame(EpollServer::ConnId c, Frame&& f) override {
    frames.fetch_add(1);
    server->send(c, f);
  }
  void on_closed(EpollServer::ConnId) override { closed.fetch_add(1); }
};

Frame msg(FrameType type, std::vector<std::uint8_t> bytes) {
  Frame f;
  f.type = type;
  f.payload = std::move(bytes);
  return f;
}

TEST(EpollServer, HandshakeThenEchoRoundTrips) {
  EchoHandler h;
  EpollServer server(h);
  h.server = &server;
  server.start();
  ASSERT_TRUE(server.valid());
  ASSERT_NE(server.port(), 0);

  auto tp = TcpTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(tp, nullptr);
  HelloAck ack;
  ASSERT_TRUE(client_handshake(*tp, Hello{}, 5.0, &ack));
  EXPECT_TRUE(ack.ok);

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tp->send(msg(FrameType::TaskMsg,
                             {static_cast<std::uint8_t>(i),
                              static_cast<std::uint8_t>(i * 3)})));
  }
  Frame f;
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(tp->recv_for(f, 5.0), RecvStatus::Ok) << "frame " << i;
    EXPECT_EQ(f.type, FrameType::TaskMsg);
    ASSERT_EQ(f.payload.size(), 2u);
    EXPECT_EQ(f.payload[0], static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(h.hellos.load(), 1);
  EXPECT_EQ(h.frames.load(), 50);
  tp->close();
  server.stop();
}

TEST(EpollServer, CountsBytesMovedInBothDirections) {
  // bsk_net_bytes_{sent,received}_total are process-wide and shared with
  // TcpTransport; the server's share is what the client's own per-
  // connection stats do not account for. With no heartbeats armed, every
  // byte one side wrote is a byte the other side read.
  ASSERT_TRUE(obs::enabled());
  obs::Counter& sent = obs::counter("bsk_net_bytes_sent_total");
  obs::Counter& received = obs::counter("bsk_net_bytes_received_total");
  const std::uint64_t sent0 = sent.value();
  const std::uint64_t received0 = received.value();

  EchoHandler h;
  EpollServer server(h);
  h.server = &server;
  server.start();
  ASSERT_TRUE(server.valid());
  auto tp = TcpTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(tp, nullptr);
  ASSERT_TRUE(client_handshake(*tp, Hello{}, 5.0));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(tp->send(msg(FrameType::TaskMsg,
                             std::vector<std::uint8_t>(100, 0x5a))));
    Frame f;
    ASSERT_EQ(tp->recv_for(f, 5.0), RecvStatus::Ok) << "frame " << i;
  }
  server.stop();  // joins the loop: its counter updates are all visible

  // The client's reactor loop bumps its read counters just after each
  // syscall; give the last one a moment to land.
  TransportStats cs;
  std::uint64_t server_sent = 0, server_received = 0;
  for (int spin = 0; spin < 200; ++spin) {
    cs = tp->stats();
    server_sent = sent.value() - sent0 - cs.bytes_sent;
    server_received = received.value() - received0 - cs.bytes_received;
    if (server_sent == cs.bytes_received && server_received == cs.bytes_sent)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(cs.bytes_sent, 20u * 100u);
  EXPECT_EQ(server_received, cs.bytes_sent);
  EXPECT_EQ(server_sent, cs.bytes_received);
  tp->close();
}

TEST(EpollServer, FirstFrameMustBeHello) {
  EchoHandler h;
  EpollServer server(h);
  h.server = &server;
  server.start();

  auto tp = TcpTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(tp, nullptr);
  // Jump straight to a task without a handshake: the server must close
  // without ever invoking a callback.
  ASSERT_TRUE(tp->send(msg(FrameType::TaskMsg, {1, 2, 3})));
  Frame f;
  EXPECT_EQ(tp->recv_for(f, 5.0), RecvStatus::Closed);
  EXPECT_EQ(h.hellos.load(), 0);
  EXPECT_EQ(h.frames.load(), 0);
  EXPECT_EQ(h.closed.load(), 0);  // on_closed only fires after on_hello
  tp->close();
  server.stop();
}

TEST(EpollServer, TimerPassDrivesHeartbeats) {
  EchoHandler h;
  EpollServer server(h);
  h.server = &server;
  server.start();

  auto tp = TcpTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(tp, nullptr);
  ASSERT_TRUE(client_handshake(*tp, Hello{}, 5.0));

  // Arm a fast heartbeat on the (only) connection. The client transport
  // absorbs heartbeats below recv(), refreshing idle_seconds().
  // ConnId of the first accepted connection is 2 (0/1 tag listener+wake).
  server.set_heartbeat(2, 0.02);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  Frame f;
  EXPECT_EQ(tp->recv_for(f, 0.0), RecvStatus::TimedOut);  // drain absorbs
  EXPECT_LT(tp->idle_seconds(), 0.25);
  EXPECT_GT(tp->stats().heartbeats_seen, 2u);
  tp->close();
  server.stop();
}

TEST(EpollServer, CloseConnFlushesPendingRepliesFirst) {
  EchoHandler h;
  EpollServer server(h);
  h.server = &server;
  server.start();

  auto tp = TcpTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(tp, nullptr);
  ASSERT_TRUE(client_handshake(*tp, Hello{}, 5.0));

  server.send(2, msg(FrameType::ResultMsg, {42}));
  server.close_conn(2);
  Frame f;
  ASSERT_EQ(tp->recv_for(f, 5.0), RecvStatus::Ok);
  EXPECT_EQ(f.payload[0], 42);
  EXPECT_EQ(tp->recv_for(f, 5.0), RecvStatus::Closed);
  tp->close();
  server.stop();
}

TEST(EpollServer, SendSerializedReachesClientIntact) {
  EchoHandler h;
  EpollServer server(h);
  h.server = &server;
  server.start();

  auto tp = TcpTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(tp, nullptr);
  ASSERT_TRUE(client_handshake(*tp, Hello{}, 5.0));

  ASSERT_TRUE(server.send_serialized(
      2, FrameType::ResultMsg, 4, [](std::size_t i, wire::Writer& w) {
        w.u64(i * 11);
        w.str("r" + std::to_string(i));
      }));
  for (std::size_t i = 0; i < 4; ++i) {
    Frame f;
    ASSERT_EQ(tp->recv_for(f, 5.0), RecvStatus::Ok);
    wire::Reader r(f.payload);
    EXPECT_EQ(r.u64(), i * 11);
    EXPECT_EQ(r.str(), "r" + std::to_string(i));
    EXPECT_TRUE(r.ok());
  }
  tp->close();
  server.stop();
}

// A chaos-wrapped client against the epoll loop: dup/reorder faults on the
// client's outbound path must never confuse the server — every delivered
// frame echoes back coherent, and the connection survives the plan.
TEST(EpollServer, SurvivesChaosInjectedClient) {
  EchoHandler h;
  EpollServer server(h);
  h.server = &server;
  server.start();

  std::shared_ptr<Transport> raw =
      TcpTransport::connect("127.0.0.1", server.port());
  ASSERT_NE(raw, nullptr);
  ChaosSpec spec;
  spec.dup = 0.15;
  spec.reorder = 0.15;
  spec.delay_prob = 0.1;
  spec.delay_s = 0.001;
  auto plan = std::make_shared<FaultPlan>(11, spec);
  auto tp = std::make_shared<FaultInjector>(raw, plan, "e0");
  ASSERT_TRUE(client_handshake(*tp, Hello{}, 5.0));

  const int kFrames = 100;
  for (int i = 0; i < kFrames; ++i)
    ASSERT_TRUE(tp->send(msg(FrameType::TaskMsg,
                             {static_cast<std::uint8_t>(i)})));
  // Dups inflate the echo count — and a duplicated *Hello* comes back as
  // an ordinary echoed frame too. Count only our pings; require that at
  // least every original came back whole (no drops in this spec).
  int got = 0;
  Frame f;
  while (got < kFrames && tp->recv_for(f, 5.0) == RecvStatus::Ok) {
    if (f.type == FrameType::TaskMsg && f.payload.size() == 1) ++got;
  }
  EXPECT_GE(got, kFrames);
  EXPECT_GE(h.frames.load(), kFrames);
  tp->close();
  server.stop();
}

// The C10K claim, in-process: hundreds of concurrent raw connections driven
// from one client thread via poll(), against a server that is ONE loop
// thread by construction. Every connection handshakes and echoes one frame.
TEST(EpollServer, ManyConcurrentConnectionsOneLoopThread) {
  // Under TSan the per-connection shadow state is expensive; keep the soak
  // meaningful but smaller.
#if BSK_TSAN
  const int kConns = 64;
#else
  const int kConns = 512;
#endif
  EchoHandler h;
  EpollOptions eopts;
  eopts.handshake_timeout_wall_s = 30.0;
  EpollServer server(h, eopts);
  h.server = &server;
  server.start();

  // Raw nonblocking clients: we only need bytes on the wire, and one OS
  // thread must be able to drive all of them (mirroring the server's own
  // claim from the client side).
  const Frame hello = make_hello(Hello{});
  const Frame ping = msg(FrameType::TaskMsg, {7});
  std::vector<std::uint8_t> wire_bytes;
  for (const Frame* f : {&hello, &ping}) {
    const std::vector<std::uint8_t> enc = encode_frame(*f);
    wire_bytes.insert(wire_bytes.end(), enc.begin(), enc.end());
  }

  struct Client {
    int fd = -1;
    std::size_t sent = 0;
    std::size_t got = 0;  // bytes of reply seen (ack + echo)
  };
  std::vector<Client> clients(kConns);
  int opened = 0;
  for (auto& c : clients) {
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    ASSERT_GE(c.fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    (void)::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ++opened;
  }
  ASSERT_EQ(opened, kConns);

  // Single-thread poll loop: push the hello+ping bytes out, read back at
  // least one full ack frame per connection.
  const double deadline = wall_now() + 60.0;
  std::size_t done = 0;
  while (done < static_cast<std::size_t>(kConns) && wall_now() < deadline) {
    std::vector<pollfd> pfds;
    pfds.reserve(clients.size());
    for (auto& c : clients) {
      if (c.fd < 0) continue;
      short ev = 0;
      if (c.sent < wire_bytes.size()) ev |= POLLOUT;
      ev |= POLLIN;
      pfds.push_back({c.fd, ev, 0});
    }
    if (::poll(pfds.data(), pfds.size(), 1000) <= 0) continue;
    std::size_t pi = 0;
    for (auto& c : clients) {
      if (c.fd < 0) continue;
      const pollfd& p = pfds[pi++];
      if ((p.revents & POLLOUT) && c.sent < wire_bytes.size()) {
        const ssize_t n = ::send(c.fd, wire_bytes.data() + c.sent,
                                 wire_bytes.size() - c.sent, MSG_NOSIGNAL);
        if (n > 0) c.sent += static_cast<std::size_t>(n);
      }
      if (p.revents & (POLLIN | POLLHUP)) {
        std::uint8_t buf[512];
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          c.got += static_cast<std::size_t>(n);
          // ack frame + echoed ping is enough proof for this connection
          if (c.got >= 9 + 10) {  // ping echo: 9 hdr + 1 payload; ack > that
            ::close(c.fd);
            c.fd = -1;
            ++done;
          }
        }
      }
    }
  }
  EXPECT_EQ(done, static_cast<std::size_t>(kConns));
  EXPECT_EQ(h.hellos.load(), kConns);
  EXPECT_EQ(server.accepted(), static_cast<std::uint64_t>(kConns));

  for (auto& c : clients)
    if (c.fd >= 0) ::close(c.fd);
  server.stop();
}

// The forked-daemon soak: 64 concurrent role-1 sessions against one bskd.
// The old daemon spent 2+ threads per connection; the epoll daemon must
// stay bounded — loop + executors (snapshotted before the load, plus the
// worker cap) — while serving all of them.
TEST(BskdSoak, SixtyFourSessionsBoundedThreads) {
  BskdProcess daemon =
      spawn_bskd(BSK_BSKD_PATH, 10.0, {"--workers", "8"});
  ASSERT_TRUE(daemon.valid());

  const std::size_t threads_idle = thread_count(daemon.pid);
  ASSERT_GT(threads_idle, 0u);

  const int kConns = 64;
  std::vector<std::shared_ptr<Transport>> conns;
  Hello h;
  h.role = 1;
  h.node_kind = "echo";
  h.heartbeat_wall_s = 0.0;
  for (int i = 0; i < kConns; ++i) {
    std::shared_ptr<Transport> tp =
        TcpTransport::connect("127.0.0.1", daemon.port);
    ASSERT_NE(tp, nullptr) << "conn " << i;
    ASSERT_TRUE(client_handshake(*tp, h, 10.0)) << "conn " << i;
    conns.push_back(std::move(tp));
  }

  // Every session does real work: one task, one result.
  for (int i = 0; i < kConns; ++i) {
    rt::Task t = rt::Task::data(static_cast<std::uint64_t>(i), 0.0,
                                std::to_string(i));
    ASSERT_TRUE(conns[static_cast<std::size_t>(i)]->send(
        make_task(t, FrameType::TaskMsg, 1)));
  }
  for (int i = 0; i < kConns; ++i) {
    Frame f;
    ASSERT_EQ(conns[static_cast<std::size_t>(i)]->recv_for(f, 20.0),
              RecvStatus::Ok)
        << "conn " << i;
    const auto res = parse_task_seq(f);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->second.id, static_cast<std::uint64_t>(i));
  }

  // Bounded threads: idle baseline + worker cap (8) + shm servers (none
  // here: TCP-only clients) + slack. Nothing close to 64 * thread-per-conn.
  const std::size_t threads_loaded = thread_count(daemon.pid);
  EXPECT_LE(threads_loaded, threads_idle + 8 + 4)
      << "daemon grew a thread per connection";

  for (auto& tp : conns) {
    tp->send(Frame{FrameType::Shutdown, {}});
    tp->close();
  }
  stop_bskd(daemon, SIGTERM);
}

// Shm negotiation end-to-end against a real daemon: a loopback WorkerPool
// should land on the shared-memory fast path and still compute correctly.
TEST(BskdSoak, WorkerPoolNegotiatesShmOnLoopback) {
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH, 10.0);
  ASSERT_TRUE(daemon.valid());

  WorkerPoolOptions opts;
  opts.node_kind = "echo";
  ASSERT_TRUE(opts.allow_shm);  // the default: fast path is opt-out
  WorkerPool pool({{"127.0.0.1", daemon.port}}, opts);
  auto node = pool.make_node();
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(pool.remote_nodes_created(), 1u);
  EXPECT_EQ(pool.shm_attached(), 1u);

  // Tasks ride the ring: push a few and flush results back.
  std::vector<std::uint64_t> seen;
  for (int i = 0; i < 10; ++i) {
    rt::Task t = rt::Task::data(static_cast<std::uint64_t>(i), 0.0,
                                std::string("p") + std::to_string(i));
    if (auto r = node->process(std::move(t))) seen.push_back(r->id);
  }
  for (;;) {
    auto r = node->flush();
    if (!r) break;
    seen.push_back(r->id);
  }
  EXPECT_EQ(seen.size(), 10u);

  node.reset();
  stop_bskd(daemon, SIGTERM);
}

// And the opt-out: allow_shm=false must stay on plain TCP.
TEST(BskdSoak, ShmOptOutStaysOnTcp) {
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH, 10.0);
  ASSERT_TRUE(daemon.valid());

  WorkerPoolOptions opts;
  opts.node_kind = "echo";
  opts.allow_shm = false;
  WorkerPool pool({{"127.0.0.1", daemon.port}}, opts);
  auto node = pool.make_node();
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(pool.shm_attached(), 0u);

  node->process(rt::Task::data(99, 0.0));
  auto r = node->flush();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->id, 99u);

  node.reset();
  stop_bskd(daemon, SIGTERM);
}

TEST(EpollServer, FdExhaustionBacksOffAndRecovers) {
  // Regression for the fleet-scale boot failure: accept4 failing with
  // EMFILE on an edge-triggered listener either spun the loop at 100% CPU
  // or (with a bare return) parked the queued backlog forever, since no
  // further edge fires for connections that already arrived. The fix backs
  // off on the loop timer and retries.
  //
  // Setup: clients connect while the loop is NOT yet running (the TCP
  // handshake completes into the listener backlog), then every free fd
  // slot is plugged and the loop started — so the very first accept hits
  // EMFILE deterministically.
  EchoHandler h;
  EpollServer server(h);
  h.server = &server;
  ASSERT_TRUE(server.valid());

  constexpr int kClients = 4;
  std::vector<std::shared_ptr<Transport>> clients;
  for (int i = 0; i < kClients; ++i) {
    auto tp = TcpTransport::connect("127.0.0.1", server.port());
    ASSERT_NE(tp, nullptr);
    clients.push_back(std::move(tp));
  }

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = 256;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  std::vector<int> plugs;  // fill every slot below the lowered limit
  for (;;) {
    const int fd = ::dup(0);
    if (fd < 0) break;
    plugs.push_back(fd);
  }

  server.start();
  const double bo_deadline = wall_now() + 5.0;
  while (server.accept_backoffs() == 0 && wall_now() < bo_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(server.accept_backoffs(), 0u);
  EXPECT_EQ(server.accepted(), 0u);

  // Free the descriptors: the timer-driven retry must now drain the
  // backlog without any new connection supplying an edge.
  for (int fd : plugs) ::close(fd);
  ::setrlimit(RLIMIT_NOFILE, &saved);
  const double acc_deadline = wall_now() + 5.0;
  while (server.accepted() < static_cast<std::uint64_t>(kClients) &&
         wall_now() < acc_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(server.accepted(), static_cast<std::uint64_t>(kClients));

  // And the recovered connections are fully functional.
  for (auto& tp : clients) {
    HelloAck ack;
    ASSERT_TRUE(client_handshake(*tp, Hello{}, 5.0, &ack));
    EXPECT_TRUE(ack.ok);
  }
  for (auto& tp : clients) tp->close();
  server.stop();
}

// ------------------------------------------------------------ tcp reactor
//
// Every TcpTransport of a process runs on one shared epoll loop. These pin
// down what sharing must not cost: threads that grow with connections, one
// stalled consumer holding up its neighbours, and a transport destroyed
// under the loop's feet.

struct TcpPair {
  std::unique_ptr<TcpTransport> client;
  std::unique_ptr<TcpTransport> server;
};

TcpPair tcp_pair(TcpListener& l, TcpOptions server_opts = {}) {
  TcpPair p;
  p.client = TcpTransport::connect("127.0.0.1", l.port());
  p.server = l.accept_for(5.0, server_opts);
  return p;
}

TEST(TcpReactor, ThreadCountDoesNotGrowWithConnections) {
  TcpListener l(0);
  ASSERT_TRUE(l.valid());
  std::vector<TcpPair> pairs;
  pairs.push_back(tcp_pair(l));
  ASSERT_NE(pairs[0].server, nullptr);
  const std::size_t threads_one = thread_count(::getpid());

  while (pairs.size() < 64) {
    pairs.push_back(tcp_pair(l));
    ASSERT_NE(pairs.back().client, nullptr);
    ASSERT_NE(pairs.back().server, nullptr);
  }
  // All 128 endpoints live: traffic through each before counting.
  for (auto& p : pairs) ASSERT_TRUE(p.client->send(Frame{FrameType::TaskMsg, {1}}));
  for (auto& p : pairs) {
    Frame f;
    ASSERT_EQ(p.server->recv_for(f, 5.0), RecvStatus::Ok);
  }
  EXPECT_EQ(thread_count(::getpid()), threads_one);
  const auto names = thread_names();
  EXPECT_EQ(std::count(names.begin(), names.end(), "tcp-io"), 0);
  EXPECT_EQ(std::count(names.begin(), names.end(), "tcp-loop"), 1);
}

TEST(TcpReactor, FullInboundQueueDoesNotDelayOtherConnections) {
  TcpListener l(0);
  ASSERT_TRUE(l.valid());
  TcpOptions tiny;
  tiny.inbound_capacity = 4;
  TcpPair stuck = tcp_pair(l, tiny);  // its consumer never calls recv
  TcpPair live = tcp_pair(l);
  ASSERT_NE(stuck.server, nullptr);
  ASSERT_NE(live.server, nullptr);

  // Far more than the queue and the socket buffers hold: the loop must park
  // this connection rather than block on it.
  constexpr int kFlood = 2000;
  std::vector<Frame> flood(kFlood);
  for (int i = 0; i < kFlood; ++i) {
    flood[static_cast<std::size_t>(i)].type = FrameType::TaskMsg;
    flood[static_cast<std::size_t>(i)].payload.assign(
        1024, static_cast<std::uint8_t>(i));
  }
  ASSERT_TRUE(stuck.client->send_many(flood.data(), flood.size()));
  const double fill_deadline = wall_now() + 5.0;
  while (stuck.server->stats().frames_received < 4 &&
         wall_now() < fill_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::uint64_t parked_at = stuck.server->stats().frames_received;
  ASSERT_GE(parked_at, 4u);
  ASSERT_LT(parked_at, static_cast<std::uint64_t>(kFlood));

  double worst = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double t0 = wall_now();
    ASSERT_TRUE(live.client->send(Frame{FrameType::TaskMsg, {7}}));
    Frame f;
    ASSERT_EQ(live.server->recv_for(f, 5.0), RecvStatus::Ok) << "ping " << i;
    worst = std::max(worst, wall_now() - t0);
  }
  EXPECT_LT(worst, 0.5);
  EXPECT_EQ(stuck.server->stats().frames_received, parked_at);  // parked

  // Draining the stuck queue resumes its reads, in order, losing nothing.
  for (int i = 0; i < kFlood; ++i) {
    Frame f;
    ASSERT_EQ(stuck.server->recv_for(f, 5.0), RecvStatus::Ok) << "frame " << i;
    ASSERT_EQ(f.payload.size(), 1024u);
    EXPECT_EQ(f.payload[0], static_cast<std::uint8_t>(i));
  }
}

TEST(TcpReactor, TransportDestroyedWhileLoopDeliversIsSafe) {
  TcpListener l(0);
  ASSERT_TRUE(l.valid());
  TcpPair bystander = tcp_pair(l);
  ASSERT_NE(bystander.server, nullptr);
  for (int round = 0; round < 20; ++round) {
    TcpOptions small;
    small.inbound_capacity = 1 + static_cast<std::size_t>(round % 4) * 8;
    TcpPair p = tcp_pair(l, small);
    ASSERT_NE(p.server, nullptr);
    std::atomic<bool> go{true};
    std::thread sender([&] {
      const Frame f{FrameType::TaskMsg, std::vector<std::uint8_t>(512, 3)};
      while (go.load() && p.client->send(f)) {
      }
    });
    Frame f;
    for (int i = 0; i < round; ++i) p.server->recv_for(f, 1.0);
    p.server.reset();  // mid-stream, possibly while parked on a full queue
    std::this_thread::sleep_for(std::chrono::microseconds(200 * (round % 5)));
    go.store(false);
    sender.join();
  }
  // The loop survived every teardown and still serves its other links.
  ASSERT_TRUE(bystander.client->send(Frame{FrameType::TaskMsg, {9}}));
  Frame f;
  ASSERT_EQ(bystander.server->recv_for(f, 5.0), RecvStatus::Ok);
  EXPECT_EQ(f.payload[0], 9);
}

}  // namespace
}  // namespace bsk::net
