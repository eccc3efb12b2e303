// Two-process farms: rt::Farm in this process, workers in a forked bskd,
// tasks over TCP loopback.
//
// The headline guarantees under test:
//   * a 200-task stream through remote workers completes exactly once;
//   * SIGKILLing the bskd mid-stream surfaces WorkerFailureBean facts and
//     the autonomic manager replaces the dead workers (local fallback,
//     since no daemon remains) — and the stream STILL completes exactly
//     once;
//   * filtered tasks (worker returns nothing) travel as WorkerDone replies
//     without wedging the farm;
//   * Link::secure() maps onto upgrading the remote node's wire channel;
//   * a lone task's result comes back while the worker's input is empty
//     (pipelined results are not held behind the credit window), over TCP
//     and over shared memory, and a peer crash while such a result is
//     awaited still recovers every task exactly once.
//
// The bskd binary path is injected by CMake as BSK_BSKD_PATH.

#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <set>
#include <thread>

#include "am/builtin_rules.hpp"
#include "bs/remote_bs.hpp"
#include "net/worker_pool.hpp"
#include "support/clock.hpp"

#ifndef BSK_BSKD_PATH
#define BSK_BSKD_PATH "bskd"
#endif

namespace bsk::net {
namespace {

WorkerPoolOptions fast_pool_opts(const std::string& kind) {
  WorkerPoolOptions o;
  o.node_kind = kind;
  o.heartbeat_wall_s = 0.05;
  o.node.liveness_timeout_wall_s = 0.5;
  o.node.result_poll_wall_s = 0.05;
  o.tcp.connect_retries = 3;
  return o;
}

TEST(RemoteFarm, TwoRemoteWorkers200TasksExactlyOnce) {
  support::ScopedClockScale fast(100.0);
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH);
  ASSERT_TRUE(daemon.valid()) << "could not spawn " << BSK_BSKD_PATH;

  WorkerPool pool({{"127.0.0.1", daemon.port}}, fast_pool_opts("echo"));
  rt::FarmConfig fc;
  fc.initial_workers = 2;
  rt::Farm farm("netfarm", fc, pool.factory());
  farm.start();

  std::jthread feeder([&farm] {
    for (int i = 0; i < 200; ++i)
      farm.input()->push(rt::Task::data(i, 0.0, std::int64_t{i}));
    farm.input()->close();
  });

  std::multiset<std::uint64_t> ids;
  std::jthread drainer([&farm, &ids] {
    rt::Task t;
    while (farm.output()->pop(t) == support::ChannelStatus::Ok) {
      ids.insert(t.id);
      // The payload made the round trip through the other process.
      EXPECT_EQ(std::any_cast<std::int64_t>(t.payload),
                static_cast<std::int64_t>(t.id));
    }
  });

  feeder.join();
  farm.wait();
  drainer.join();

  EXPECT_EQ(pool.remote_nodes_created(), 2u);
  EXPECT_EQ(pool.fallback_nodes_created(), 0u);
  EXPECT_EQ(farm.failures(), 0u);
  ASSERT_EQ(ids.size(), 200u);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(ids.count(static_cast<std::uint64_t>(i)), 1u) << "id " << i;

  stop_bskd(daemon, SIGKILL);
}

TEST(RemoteFarm, KillingBskdMidStreamAmReplacesAndStreamCompletes) {
  support::ScopedClockScale fast(100.0);
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH);
  ASSERT_TRUE(daemon.valid()) << "could not spawn " << BSK_BSKD_PATH;

  WorkerPool pool({{"127.0.0.1", daemon.port}}, fast_pool_opts("sim"));
  support::EventLog log;
  rt::FarmConfig fc;
  fc.initial_workers = 2;
  am::ManagerConfig mc;
  mc.period = support::SimDuration(1.0);
  mc.warmup_s = 0.0;  // fault tolerance must react immediately
  auto farm_bs = bs::make_remote_farm_bs("netfarm", fc, pool, mc, nullptr,
                                         {}, {}, &log,
                                         /*watch_period_wall_s=*/0.05);
  auto& farm = dynamic_cast<rt::Farm&>(farm_bs->runnable());
  farm.start();
  farm_bs->start_managers();
  farm_bs->manager().set_contract(am::Contract::bestEffort());

  std::jthread feeder([&farm, &daemon] {
    for (int i = 0; i < 200; ++i) {
      farm.input()->push(rt::Task::data(i, 0.05));
      if (i == 50) ::kill(daemon.pid, SIGKILL);  // catastrophe mid-stream
      support::Clock::sleep_for(support::SimDuration(0.02));
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

  // Both workers lived in the killed process.
  EXPECT_EQ(farm.failures(), 2u);
  EXPECT_GE(pool.crashes_detected(), 2u);
  // The failure became a WorkerFailureBean the manager observed, and the
  // fault-tolerance rules replaced the dead executor.
  EXPECT_GE(log.count("AM_netfarm", "workerFail"), 1u);
  EXPECT_GE(log.count("AM_netfarm", "addWorker"), 1u);
  EXPECT_TRUE(log.happens_before("AM_netfarm", "workerFail", "AM_netfarm",
                                 "addWorker"));
  // Replacements are local fallbacks: the only daemon is gone.
  EXPECT_GE(pool.fallback_nodes_created(), 1u);

  // Exactly-once delivery across the process crash.
  ASSERT_EQ(ids.size(), 200u);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(ids.count(static_cast<std::uint64_t>(i)), 1u) << "id " << i;

  stop_bskd(daemon, SIGKILL);
}

TEST(RemoteFarm, FilteredTasksTravelAsWorkerDoneReplies) {
  support::ScopedClockScale fast(100.0);
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH);
  ASSERT_TRUE(daemon.valid());

  WorkerPool pool({{"127.0.0.1", daemon.port}}, fast_pool_opts("filter_odd"));
  rt::FarmConfig fc;
  fc.initial_workers = 2;
  rt::Farm farm("filterfarm", fc, pool.factory());
  farm.start();

  std::jthread feeder([&farm] {
    for (int i = 0; i < 20; ++i) farm.input()->push(rt::Task::data(i, 0.0));
    farm.input()->close();
  });
  std::set<std::uint64_t> ids;
  std::jthread drainer([&farm, &ids] {
    rt::Task t;
    while (farm.output()->pop(t) == support::ChannelStatus::Ok)
      ids.insert(t.id);
  });

  feeder.join();
  farm.wait();
  drainer.join();

  EXPECT_EQ(ids.size(), 10u);  // odd ids filtered in the other process
  for (const auto id : ids) EXPECT_EQ(id % 2, 0u);

  stop_bskd(daemon, SIGKILL);
}

TEST(RemoteFarm, SecureAllLinksUpgradesRemoteWireChannels) {
  support::ScopedClockScale fast(100.0);
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH);
  ASSERT_TRUE(daemon.valid());

  WorkerPool pool({{"127.0.0.1", daemon.port}}, fast_pool_opts("echo"));
  rt::FarmConfig fc;
  fc.initial_workers = 1;
  rt::Farm farm("securefarm", fc, pool.factory());
  farm.start();

  // First sweep secures the worker's in/out links AND its private wire
  // channel (Node::secure_channels); a second sweep finds nothing left.
  const std::size_t first = farm.secure_all_links();
  EXPECT_GE(first, 1u);
  EXPECT_EQ(farm.secure_all_links(), 0u);

  // A pre-secured worker (the two-phase commit path) arrives secured too:
  // add_worker(secure_links=true) must not leave a second sweep anything.
  ASSERT_TRUE(farm.add_worker({}, std::nullopt, /*secure_links=*/true));
  EXPECT_EQ(farm.secure_all_links(), 0u);

  farm.input()->close();
  farm.wait();
  stop_bskd(daemon, SIGKILL);
}

// Push one task, wait for its result, and only then push the next: with a
// credit window of 4 each result must surface while the worker holds fewer
// than 4 tasks, i.e. through the farm's idle drain.
void ping_pong(bool shm) {
  BskdProcess daemon = spawn_bskd(BSK_BSKD_PATH);
  ASSERT_TRUE(daemon.valid()) << "could not spawn " << BSK_BSKD_PATH;

  WorkerPoolOptions o = fast_pool_opts("echo");
  o.allow_shm = shm;
  WorkerPool pool({{"127.0.0.1", daemon.port}}, o);
  rt::FarmConfig fc;
  fc.initial_workers = 2;
  rt::Farm farm("pingpong", fc, pool.factory());
  farm.start();
  if (shm) {
    EXPECT_EQ(pool.shm_attached(), 2u);
  } else {
    EXPECT_EQ(pool.shm_attached(), 0u);
  }

  const support::SimDuration timeout(2.0 * support::Clock::scale());
  std::size_t answered = 0;
  for (int i = 0; i < 20; ++i) {
    farm.input()->push(rt::Task::data(i, 0.0, std::int64_t{i}));
    rt::Task r;
    if (farm.output()->pop_for(r, timeout) != support::ChannelStatus::Ok) {
      ADD_FAILURE() << "result of task " << i << " held back";
      break;  // the end-of-stream flush below still delivers it
    }
    EXPECT_EQ(r.id, static_cast<std::uint64_t>(i));
    EXPECT_EQ(std::any_cast<std::int64_t>(r.payload), std::int64_t{i});
    ++answered;
  }
  EXPECT_EQ(answered, 20u);

  farm.input()->close();
  farm.wait();
  rt::Task rest;
  while (farm.output()->pop(rest) == support::ChannelStatus::Ok) {
  }
  EXPECT_EQ(farm.failures(), 0u);
  stop_bskd(daemon, SIGKILL);
}

TEST(RemoteFarm, PingPongResultsAreNotHeldBehindCreditWindowTcp) {
  ping_pong(/*shm=*/false);
}

TEST(RemoteFarm, PingPongResultsAreNotHeldBehindCreditWindowShm) {
  ping_pong(/*shm=*/true);
}

TEST(RemoteFarm, CrashWhileDrainingIdleWorkerRecoversExactlyOnce) {
  // One worker per daemon (the pool recruits round-robin); the survivor
  // takes over what the doomed daemon never answered.
  BskdProcess doomed = spawn_bskd(BSK_BSKD_PATH);
  BskdProcess survivor = spawn_bskd(BSK_BSKD_PATH);
  ASSERT_TRUE(doomed.valid() && survivor.valid());

  WorkerPool pool({{"127.0.0.1", doomed.port}, {"127.0.0.1", survivor.port}},
                  fast_pool_opts("sim"));
  rt::FarmConfig fc;
  fc.initial_workers = 2;
  rt::Farm farm("drainfarm", fc, pool.factory());
  farm.start();
  pool.start_watch(farm, 0.05);

  std::multiset<std::uint64_t> ids;
  const support::SimDuration timeout(5.0 * support::Clock::scale());
  // Short tasks answered one at a time: both workers reach the idle drain.
  for (int i = 0; i < 4; ++i) {
    farm.input()->push(rt::Task::data(i, 0.0));
    rt::Task r;
    if (farm.output()->pop_for(r, timeout) != support::ChannelStatus::Ok) {
      ADD_FAILURE() << "result of task " << i << " held back";
      break;
    }
    ids.insert(r.id);
  }

  // One long task per worker, then an empty input: each worker is parked
  // in flush() awaiting its result when one daemon dies.
  farm.input()->push(rt::Task::data(4, 1.0));
  farm.input()->push(rt::Task::data(5, 1.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ::kill(doomed.pid, SIGKILL);

  // Both long results arrive before the input closes: the doomed worker's
  // task is recovered onto the survivor.
  for (int k = 0; k < 2; ++k) {
    rt::Task r;
    if (farm.output()->pop_for(r, timeout) != support::ChannelStatus::Ok) {
      ADD_FAILURE() << "long task result " << k << " never arrived";
      break;
    }
    ids.insert(r.id);
  }

  farm.input()->close();
  farm.wait();
  rt::Task rest;
  while (farm.output()->pop(rest) == support::ChannelStatus::Ok)
    ids.insert(rest.id);
  pool.stop_watch();

  EXPECT_GE(farm.failures(), 1u);
  EXPECT_EQ(ids.size(), 6u);
  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(ids.count(static_cast<std::uint64_t>(i)), 1u) << "id " << i;

  stop_bskd(doomed, SIGKILL);
  stop_bskd(survivor, SIGKILL);
}

}  // namespace
}  // namespace bsk::net
