// bsk::chaos: deterministic fault injection and the self-healing it must
// not break.
//
// Three layers under test:
//   * FaultPlan — the seeded schedule is a pure hash: byte-for-byte
//     reproducible across plans, runs, and interleavings;
//   * FaultInjector — each fault class observably perturbs a live
//     connection exactly as scripted (forced with probability 1);
//   * the reliability protocol — a remote farm under drop+dup+partition
//     still delivers every task exactly once; a blip shorter than the
//     reconnect grace resumes the *same* bskd session, a longer one falls
//     back to replace-and-drain; flapping endpoints get quarantined.
//
// The bskd binary path is injected by CMake as BSK_BSKD_PATH.

#include <gtest/gtest.h>

#include <signal.h>

#include <atomic>
#include <cstring>
#include <set>

#include "bs/remote_bs.hpp"
#include "net/chaos.hpp"
#include "net/shm.hpp"
#include "net/worker_pool.hpp"
#include "support/clock.hpp"

#ifndef BSK_BSKD_PATH
#define BSK_BSKD_PATH "bskd"
#endif

namespace bsk::net {
namespace {

// ------------------------------------------------------------- FaultPlan

/// Serialize the full fault schedule of a plan over a fixed stream/frame
/// grid — the "byte-for-byte reproducible" artifact.
std::vector<std::uint8_t> pack_schedule(const FaultPlan& p) {
  std::vector<std::uint8_t> out;
  for (const char* name : {"w0/out", "w0/in", "w1/out", "w1/in", "w2/out",
                           "w2/in", "w3/out", "w3/in"}) {
    const std::uint64_t id = FaultPlan::stream_id(name);
    for (std::uint64_t i = 0; i < 5000; ++i) {
      const FaultDecision d = p.decide(id, i);
      out.push_back(static_cast<std::uint8_t>(
          (d.drop ? 1 : 0) | (d.dup ? 2 : 0) | (d.reorder ? 4 : 0) |
          (d.corrupt ? 8 : 0)));
      std::uint8_t delay_bytes[sizeof(double)];
      std::memcpy(delay_bytes, &d.delay_s, sizeof(double));
      out.insert(out.end(), delay_bytes, delay_bytes + sizeof(double));
      const auto [off, mask] = p.corruption(id, i);
      out.push_back(static_cast<std::uint8_t>(off & 0xff));
      out.push_back(mask);
    }
  }
  return out;
}

ChaosSpec sweep_spec() {
  ChaosSpec s;
  s.drop = 0.02;
  s.dup = 0.01;
  s.reorder = 0.05;
  s.corrupt = 0.03;
  s.delay_s = 0.0005;
  s.delay_jitter_s = 0.001;
  s.delay_prob = 0.05;
  return s;
}

TEST(FaultPlan, ScheduleIsByteForByteReproducible) {
  const FaultPlan a(42, sweep_spec());
  const FaultPlan b(42, sweep_spec());
  const FaultPlan c(43, sweep_spec());
  const auto pa = pack_schedule(a);
  EXPECT_EQ(pa, pack_schedule(b));        // same seed: identical schedule
  EXPECT_NE(pa, pack_schedule(c));        // different seed: different faults
  EXPECT_EQ(pa, pack_schedule(a));        // decide() is pure: re-ask freely
}

TEST(FaultPlan, FaultRatesTrackTheSpec) {
  const FaultPlan p(7, sweep_spec());
  const std::uint64_t id = FaultPlan::stream_id("rate/out");
  const std::uint64_t n = 50000;
  std::uint64_t drops = 0, dups = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const FaultDecision d = p.decide(id, i);
    drops += d.drop ? 1 : 0;
    dups += d.dup ? 1 : 0;
  }
  // 2% and 1% nominal; allow generous hash-noise margins.
  EXPECT_GT(drops, n / 100);
  EXPECT_LT(drops, n * 4 / 100);
  EXPECT_GT(dups, n / 250);
  EXPECT_LT(dups, n * 2 / 100);
}

TEST(FaultPlan, StreamsAreDecorrelated) {
  // The same frame index on different streams must not share a fate, or a
  // drop would knock out every connection's frame #k at once.
  const FaultPlan p(7, sweep_spec());
  const std::uint64_t s1 = FaultPlan::stream_id("a/out");
  const std::uint64_t s2 = FaultPlan::stream_id("b/out");
  std::uint64_t agree = 0;
  const std::uint64_t n = 20000;
  for (std::uint64_t i = 0; i < n; ++i)
    if (p.decide(s1, i).drop == p.decide(s2, i).drop) ++agree;
  EXPECT_LT(agree, n);  // not identical…
  EXPECT_GT(agree, n * 9 / 10);  // …but mostly both-false at 2% drop
}

// --------------------------------------------------------- FaultInjector

Frame tagged(std::uint8_t tag) {
  Frame f;
  f.type = FrameType::TaskMsg;
  f.payload = {tag, 0xaa, 0xbb, 0xcc};
  return f;
}

TEST(FaultInjector, ForcedDropLosesEveryFrameSilently) {
  ChaosSpec spec;
  spec.drop = 1.0;
  auto plan = std::make_shared<FaultPlan>(1, spec);
  auto pair = ShmTransport::make_pair();
  FaultInjector inj(pair.a, plan, "t");

  for (int i = 0; i < 5; ++i)
    EXPECT_TRUE(inj.send(tagged(static_cast<std::uint8_t>(i))));  // "sent"
  Frame f;
  EXPECT_EQ(pair.b->recv_for(f, 0.1), RecvStatus::TimedOut);  // never arrive
  EXPECT_EQ(inj.chaos_stats().dropped, 5u);
  inj.close();
}

TEST(FaultInjector, ForcedDupDeliversEveryFrameTwice) {
  ChaosSpec spec;
  spec.dup = 1.0;
  auto plan = std::make_shared<FaultPlan>(1, spec);
  auto pair = ShmTransport::make_pair();
  FaultInjector inj(pair.a, plan, "t");

  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(inj.send(tagged(static_cast<std::uint8_t>(i))));
  Frame f;
  for (int i = 0; i < 3; ++i)
    for (int copy = 0; copy < 2; ++copy) {
      ASSERT_EQ(pair.b->recv_for(f, 1.0), RecvStatus::Ok);
      EXPECT_EQ(f.payload[0], static_cast<std::uint8_t>(i));
    }
  EXPECT_EQ(inj.chaos_stats().duplicated, 3u);
  inj.close();
}

TEST(FaultInjector, ForcedReorderSwapsAdjacentFrames) {
  ChaosSpec spec;
  spec.reorder = 1.0;
  auto plan = std::make_shared<FaultPlan>(1, spec);
  auto pair = ShmTransport::make_pair();
  FaultInjector inj(pair.a, plan, "t");

  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(inj.send(tagged(static_cast<std::uint8_t>(i))));
  // Every frame wants to reorder; with one parking slot that swaps pairs.
  Frame f;
  const std::uint8_t expected[] = {1, 0, 3, 2};
  for (const std::uint8_t want : expected) {
    ASSERT_EQ(pair.b->recv_for(f, 1.0), RecvStatus::Ok);
    EXPECT_EQ(f.payload[0], want);
  }
  EXPECT_EQ(inj.chaos_stats().reordered, 2u);
  inj.close();
}

TEST(FaultInjector, ForcedCorruptionDamagesBytesDeterministically) {
  ChaosSpec spec;
  spec.corrupt = 1.0;
  auto run = [&spec] {
    auto plan = std::make_shared<FaultPlan>(9, spec);
    auto pair = ShmTransport::make_pair();
    FaultInjector inj(pair.a, plan, "t");
    std::vector<std::vector<std::uint8_t>> received;
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(inj.send(tagged(static_cast<std::uint8_t>(i))));
      Frame f;
      EXPECT_EQ(pair.b->recv_for(f, 1.0), RecvStatus::Ok);
      EXPECT_NE(f.payload, tagged(static_cast<std::uint8_t>(i)).payload)
          << "frame " << i << " was not corrupted";
      received.push_back(f.payload);
    }
    inj.close();
    return received;
  };
  // Same seed, fresh connections: identical damage, byte for byte.
  EXPECT_EQ(run(), run());
}

TEST(FaultInjector, OutboundPartitionSwallowsThenHeals) {
  ChaosSpec spec;
  spec.partitions.push_back({0.0, 0.3, /*inbound=*/false, /*outbound=*/true});
  auto plan = std::make_shared<FaultPlan>(1, spec);
  auto pair = ShmTransport::make_pair();
  FaultInjector inj(pair.a, plan, "t");  // construction anchors t=0

  ASSERT_TRUE(inj.send(tagged(1)));  // the network eats it
  Frame f;
  EXPECT_EQ(pair.b->recv_for(f, 0.05), RecvStatus::TimedOut);
  EXPECT_EQ(inj.chaos_stats().blocked_outbound, 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(350));  // heal
  ASSERT_TRUE(inj.send(tagged(2)));
  ASSERT_EQ(pair.b->recv_for(f, 1.0), RecvStatus::Ok);
  EXPECT_EQ(f.payload[0], 2);
  inj.close();
}

TEST(FaultInjector, InboundPartitionStallsDeliveryAndReportsSilence) {
  ChaosSpec spec;
  spec.partitions.push_back({0.0, 0.3, /*inbound=*/true, /*outbound=*/false});
  auto plan = std::make_shared<FaultPlan>(1, spec);
  auto pair = ShmTransport::make_pair();
  FaultInjector inj(pair.b, plan, "t");  // wrap the receiving end

  ASSERT_TRUE(pair.a->send(tagged(7)));  // queued behind the hole
  Frame f;
  EXPECT_EQ(inj.recv_for(f, 0.05), RecvStatus::TimedOut);
  EXPECT_GT(inj.chaos_stats().stalled_inbound, 0u);
  // The injector reports the partition's age as observed silence, so a
  // liveness detector fires even though heartbeats reach the inner
  // transport.
  EXPECT_GT(inj.idle_seconds(), 0.0);

  // After the hole heals the queued frame arrives (recv_for outlives it).
  ASSERT_EQ(inj.recv_for(f, 2.0), RecvStatus::Ok);
  EXPECT_EQ(f.payload[0], 7);
  inj.close();
}

TEST(FaultInjector, ScriptedKillReadsAsPeerCrash) {
  ChaosSpec spec;
  spec.kill_at_s = 0.0;
  auto plan = std::make_shared<FaultPlan>(1, spec);
  auto pair = ShmTransport::make_pair();
  FaultInjector inj(pair.a, plan, "t");

  EXPECT_FALSE(inj.send(tagged(1)));
  EXPECT_TRUE(inj.closed());
  Frame f;
  EXPECT_EQ(inj.recv_for(f, 0.05), RecvStatus::Closed);
  EXPECT_EQ(inj.chaos_stats().kills, 1u);
  EXPECT_TRUE(pair.b->closed() || pair.b->recv_for(f, 1.0) ==
                                      RecvStatus::Closed);  // peer sees EOF
}

// ------------------------------------------------------ reconnect & resume

Hello worker_hello(const std::string& kind) {
  Hello h;
  h.role = 0;
  h.node_kind = kind;
  h.clock_scale = support::Clock::scale();
  h.heartbeat_wall_s = 0.05;
  return h;
}

TEST(Resume, BlipShorterThanGraceResumesTheSameSession) {
  support::ScopedClockScale fast(100.0);
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH);
  ASSERT_TRUE(daemon.valid()) << "could not spawn " << BSK_BSKD_PATH;

  std::shared_ptr<Transport> tp =
      TcpTransport::connect("127.0.0.1", daemon.port);
  ASSERT_NE(tp, nullptr);
  HelloAck ack;
  ASSERT_TRUE(client_handshake(*tp, worker_hello("echo"), 2.0, &ack));
  ASSERT_NE(ack.session, 0u);

  std::atomic<int> hard_fails{0};
  RemoteNodeOptions o;
  o.result_poll_wall_s = 0.05;
  o.liveness_timeout_wall_s = 1.0;
  o.credit_window = 1;
  o.reconnect_grace_wall_s = 2.0;
  o.reconnect_backoff_wall_s = 0.02;
  o.handshake_timeout_wall_s = 1.0;
  o.hello = worker_hello("echo");
  o.session = ack.session;
  o.epoch = ack.epoch;
  const std::uint16_t port = daemon.port;
  o.reconnect = [port]() -> std::shared_ptr<Transport> {
    TcpOptions one_shot;
    one_shot.connect_retries = 0;
    return TcpTransport::connect("127.0.0.1", port, one_shot);
  };
  o.on_hard_fail = [&hard_fails] { ++hard_fails; };
  RemoteWorkerNode node(tp, o);

  auto r1 = node.process(rt::Task::data(1, 0.0, std::int64_t{11}));
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->id, 1u);

  // The blip: the connection dies under the node's feet.
  node.transport().close();
  EXPECT_FALSE(node.failed());  // inside the grace window: NOT a crash

  // The next task rides the resumed session — the *same* bskd worker, a
  // fresh epoch, nothing replayed beyond the unacked tail.
  auto r2 = node.process(rt::Task::data(2, 0.0, std::int64_t{22}));
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->id, 2u);
  EXPECT_EQ(std::any_cast<std::int64_t>(r2->payload), 22);
  EXPECT_EQ(node.resumes(), 1u);
  EXPECT_EQ(node.session(), ack.session);  // same session resumed
  EXPECT_GT(node.epoch(), ack.epoch);      // epoch fenced the reattach
  EXPECT_FALSE(node.failed());
  EXPECT_EQ(hard_fails.load(), 0);

  node.on_stop();
  stop_bskd(daemon, SIGKILL);
}

TEST(Resume, GraceExpiryHardFailsAndLeavesTasksDrainable) {
  support::ScopedClockScale fast(100.0);
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH);
  ASSERT_TRUE(daemon.valid());

  std::shared_ptr<Transport> tp =
      TcpTransport::connect("127.0.0.1", daemon.port);
  ASSERT_NE(tp, nullptr);
  HelloAck ack;
  ASSERT_TRUE(client_handshake(*tp, worker_hello("echo"), 2.0, &ack));

  std::atomic<int> hard_fails{0};
  RemoteNodeOptions o;
  o.result_poll_wall_s = 0.05;
  o.liveness_timeout_wall_s = 1.0;
  o.credit_window = 2;  // first task pipelines without awaiting its result
  o.reconnect_grace_wall_s = 0.3;
  o.reconnect_backoff_wall_s = 0.02;
  o.hello = worker_hello("echo");
  o.session = ack.session;
  o.epoch = ack.epoch;
  // The network never comes back: every redial fails.
  o.reconnect = []() -> std::shared_ptr<Transport> { return nullptr; };
  o.on_hard_fail = [&hard_fails] { ++hard_fails; };
  RemoteWorkerNode node(tp, o);

  EXPECT_FALSE(node.process(rt::Task::data(1, 0.0)).has_value());  // windowed
  EXPECT_EQ(node.in_flight(), 1u);
  node.transport().close();

  const double t0 = wall_now();
  EXPECT_FALSE(node.process(rt::Task::data(2, 0.0)).has_value());
  EXPECT_GE(wall_now() - t0, 0.25);  // it did wait out the grace window
  EXPECT_TRUE(node.failed());        // …then crash semantics took over
  EXPECT_EQ(hard_fails.load(), 1);   // exactly one quarantine notification

  // Replace-and-drain: both tasks come back for re-offer elsewhere.
  const auto leftovers = node.drain_unacked();
  ASSERT_EQ(leftovers.size(), 2u);
  EXPECT_EQ(leftovers[0].id, 1u);
  EXPECT_EQ(leftovers[1].id, 2u);

  stop_bskd(daemon, SIGKILL);
}

// ------------------------------------------------------------- quarantine

TEST(WorkerPoolChaos, FlappingEndpointIsQuarantinedThenReleased) {
  support::ScopedClockScale fast(100.0);
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH);
  ASSERT_TRUE(daemon.valid());

  WorkerPoolOptions o;
  o.node_kind = "echo";
  o.heartbeat_wall_s = 0.05;
  o.node.liveness_timeout_wall_s = 0.5;
  o.node.result_poll_wall_s = 0.05;
  o.node.credit_window = 1;
  o.tcp.connect_retries = 1;
  o.tcp.connect_timeout_s = 0.2;
  o.quarantine_threshold = 2;
  o.quarantine_window_wall_s = 10.0;
  o.quarantine_wall_s = 0.5;
  WorkerPool pool({{"127.0.0.1", daemon.port}}, o);

  auto n1 = pool.make_node();
  auto n2 = pool.make_node();
  EXPECT_EQ(pool.remote_nodes_created(), 2u);

  stop_bskd(daemon, SIGKILL);  // the daemon starts "flapping" (dies)
  EXPECT_FALSE(n1->process(rt::Task::data(1, 0.0)).has_value());
  EXPECT_FALSE(n2->process(rt::Task::data(2, 0.0)).has_value());
  EXPECT_EQ(pool.endpoint_failures(), 2u);
  EXPECT_EQ(pool.quarantined_count(), 1u);

  // While quarantined the endpoint is not even dialed; recruiting reports
  // failure through the fallback path the manager observes.
  auto n3 = pool.make_node();
  EXPECT_EQ(pool.fallback_nodes_created(), 1u);

  // Quarantine expires; the endpoint becomes eligible again (it is still
  // dead, so the dial fails — but it was *tried*, which is the point).
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_EQ(pool.quarantined_count(), 0u);
}

// ------------------------------------------------- farm-level self-healing

WorkerPoolOptions chaos_pool_opts(const std::string& kind) {
  WorkerPoolOptions o;
  o.node_kind = kind;
  o.heartbeat_wall_s = 0.05;
  o.handshake_timeout_wall_s = 0.5;
  o.node.liveness_timeout_wall_s = 0.3;
  o.node.result_poll_wall_s = 0.05;
  o.node.retransmit_timeout_wall_s = 0.25;
  o.node.reconnect_backoff_wall_s = 0.02;
  o.tcp.connect_retries = 3;
  return o;
}

std::multiset<std::uint64_t> run_chaos_farm(WorkerPool& pool,
                                            std::size_t workers,
                                            int ntasks, double work_sim_s) {
  rt::FarmConfig fc;
  fc.initial_workers = workers;
  rt::Farm farm("chaosfarm", fc, pool.factory());
  pool.start_watch(farm, 0.05);
  farm.start();

  std::jthread feeder([&farm, ntasks, work_sim_s] {
    for (int i = 0; i < ntasks; ++i)
      farm.input()->push(rt::Task::data(i, work_sim_s, std::int64_t{i}));
    farm.input()->close();
  });
  std::multiset<std::uint64_t> ids;
  std::jthread drainer([&farm, &ids] {
    rt::Task t;
    while (farm.output()->pop(t) == support::ChannelStatus::Ok)
      ids.insert(t.id);
  });
  feeder.join();
  farm.wait();
  drainer.join();
  pool.stop_watch();
  return ids;
}

TEST(ChaosFarm, PartitionShorterThanGraceResumesWithoutReplacement) {
  support::ScopedClockScale fast(100.0);
  BskdProcess daemon =
      spawn_bskd(BSK_BSKD_PATH, 5.0, {"--session-linger", "5"});
  ASSERT_TRUE(daemon.valid());

  WorkerPoolOptions o = chaos_pool_opts("sim");
  o.node.reconnect_grace_wall_s = 3.0;  // grace outlives the partition
  o.chaos = ChaosSpec{};
  o.chaos->partitions.push_back({0.2, 1.0});  // full 1s partition at t=0.2s
  o.chaos_seed = 11;
  WorkerPool pool({{"127.0.0.1", daemon.port}}, o);

  const auto ids = run_chaos_farm(pool, 2, 150, 1.0);

  // The blip healed inside the grace window: the same two sessions carried
  // the whole stream — no crash, no fallback, no replacement.
  EXPECT_EQ(pool.remote_nodes_created(), 2u);
  EXPECT_EQ(pool.fallback_nodes_created(), 0u);
  EXPECT_EQ(pool.endpoint_failures(), 0u);
  EXPECT_GT(pool.chaos_stats().stalled_inbound, 0u);  // the hole was real

  ASSERT_EQ(ids.size(), 150u);
  for (int i = 0; i < 150; ++i)
    EXPECT_EQ(ids.count(static_cast<std::uint64_t>(i)), 1u) << "id " << i;

  stop_bskd(daemon, SIGKILL);
}

TEST(ChaosFarm, PartitionLongerThanGraceFallsBackToReplacement) {
  support::ScopedClockScale fast(100.0);
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH);
  ASSERT_TRUE(daemon.valid());

  WorkerPoolOptions o = chaos_pool_opts("sim");
  o.node.reconnect_grace_wall_s = 0.3;  // grace closes mid-partition
  o.chaos = ChaosSpec{};
  o.chaos->partitions.push_back({0.2, 2.5});
  o.chaos_seed = 11;
  o.quarantine_threshold = 0;  // isolate the replacement path

  // Replacement is the manager's job (workerFail → ADD_EXECUTOR), so this
  // runs the full BS: farm + autonomic manager + the pool's crash watch.
  WorkerPool pool({{"127.0.0.1", daemon.port}}, o);
  support::EventLog log;
  rt::FarmConfig fc;
  fc.initial_workers = 2;
  am::ManagerConfig mc;
  mc.period = support::SimDuration(1.0);
  mc.warmup_s = 0.0;
  auto farm_bs = bs::make_remote_farm_bs("chaosfarm", fc, pool, mc, nullptr,
                                         {}, {}, &log,
                                         /*watch_period_wall_s=*/0.05);
  auto& farm = dynamic_cast<rt::Farm&>(farm_bs->runnable());
  farm.start();
  farm_bs->start_managers();
  farm_bs->manager().set_contract(am::Contract::bestEffort());

  // Paced feeder: the input must still be open when the grace window
  // expires (~0.85 s in), otherwise the stream is already fully dispatched
  // and the farm is shutting down — replacement only happens mid-stream.
  std::jthread feeder([&farm] {
    for (int i = 0; i < 150; ++i) {
      farm.input()->push(rt::Task::data(i, 1.0, std::int64_t{i}));
      support::Clock::sleep_for(support::SimDuration(1.0));
    }
    farm.input()->close();
  });
  std::multiset<std::uint64_t> ids;
  std::jthread drainer([&farm, &ids] {
    rt::Task t;
    while (farm.output()->pop(t) == support::ChannelStatus::Ok)
      ids.insert(t.id);
  });
  feeder.join();
  farm.wait();
  drainer.join();
  farm_bs->stop_managers();
  pool.stop_watch();

  // Grace expired inside the partition: the nodes hard-failed (reported to
  // the endpoint tally), the farm drained their unacked tasks, and the
  // manager recruited replacements — which, with the network still down
  // (the handshake crosses the injector too), are local fallbacks.
  EXPECT_GE(pool.endpoint_failures(), 1u);
  EXPECT_GE(farm.failures(), 1u);
  EXPECT_GE(pool.fallback_nodes_created(), 1u);
  EXPECT_GE(log.count("AM_chaosfarm", "workerFail"), 1u);

  // Exactly-once still holds across the replacement.
  ASSERT_EQ(ids.size(), 150u);
  for (int i = 0; i < 150; ++i)
    EXPECT_EQ(ids.count(static_cast<std::uint64_t>(i)), 1u) << "id " << i;

  stop_bskd(daemon, SIGKILL);
}

TEST(ChaosFarm, SeededSweepDropDupPartitionDeliversExactlyOnce) {
  // The acceptance run: 4 remote workers, 2% drop + 1% dup + one 300 ms
  // partition, fixed seed. Every task exactly once; the fault schedule
  // byte-for-byte reproducible from the seed.
  support::ScopedClockScale fast(100.0);
  BskdProcess daemon =
      spawn_bskd(BSK_BSKD_PATH, 5.0, {"--session-linger", "5"});
  ASSERT_TRUE(daemon.valid());

  ChaosSpec spec;
  spec.drop = 0.02;
  spec.dup = 0.01;
  spec.partitions.push_back({0.3, 0.3});

  WorkerPoolOptions o = chaos_pool_opts("sim");
  o.node.reconnect_grace_wall_s = 3.0;
  o.chaos = spec;
  o.chaos_seed = 42;
  WorkerPool pool({{"127.0.0.1", daemon.port}}, o);

  const auto ids = run_chaos_farm(pool, 4, 200, 1.0);

  ASSERT_EQ(ids.size(), 200u);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(ids.count(static_cast<std::uint64_t>(i)), 1u) << "id " << i;
  EXPECT_EQ(pool.fallback_nodes_created(), 0u);

  const ChaosStats stats = pool.chaos_stats();
  EXPECT_GT(stats.frames_seen, 0u);
  EXPECT_GT(stats.dropped, 0u);  // the chaos was real, not a no-op

  // Reproducibility of the exact schedule this run consumed: a fresh plan
  // with the same seed re-issues identical decisions for every stream.
  const FaultPlan replay(42, spec);
  EXPECT_EQ(pack_schedule(*pool.fault_plan()), pack_schedule(replay));

  stop_bskd(daemon, SIGKILL);
}

}  // namespace
}  // namespace bsk::net
