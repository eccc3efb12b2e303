// Live farm reconfiguration: add/remove workers, rebalance, blackouts.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>

#include "rt/farm.hpp"
#include "support/clock.hpp"

namespace bsk::rt {
namespace {

using support::ScopedClockScale;

NodeFactory slow_workers(double work_s) {
  return [work_s] {
    return std::make_unique<LambdaNode>([work_s](Task t) {
      support::Clock::sleep_for(support::SimDuration(work_s));
      return std::optional<Task>{std::move(t)};
    });
  };
}

NodeFactory identity_workers() {
  return [] {
    return std::make_unique<LambdaNode>(
        [](Task t) { return std::optional<Task>{std::move(t)}; });
  };
}

TEST(FarmReconfig, AddWorkerWhileRunning) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 1;
  Farm f("f", cfg, identity_workers());
  f.start();
  EXPECT_EQ(f.worker_count(), 1u);
  EXPECT_TRUE(f.add_worker());
  EXPECT_TRUE(f.add_worker());
  EXPECT_EQ(f.worker_count(), 3u);
  for (int i = 0; i < 30; ++i) f.input()->push(Task::data(i, 0.0));
  f.input()->close();
  f.wait();
  Task t;
  std::size_t n = 0;
  while (f.output()->pop(t) == support::ChannelStatus::Ok) ++n;
  EXPECT_EQ(n, 30u);
  EXPECT_EQ(f.workers_spawned(), 3u);
}

TEST(FarmReconfig, AddWorkerIncreasesThroughput) {
  // Wall-clock stalls of the whole process (every sleep waking 10-50 ms
  // late at once: under TSan, and in the normal build when the host steals
  // CPU) pass for simulated time in which no worker ran. At scale 200 the
  // 4 s rate window is 20 ms of wall time, so one stall could empty it; at
  // 25 it is 160 ms.
  ScopedClockScale fast(25.0);
  FarmConfig cfg;
  cfg.initial_workers = 1;
  cfg.rate_window = support::SimDuration(4.0);
  Farm f("f", cfg, slow_workers(0.1));
  f.start();
  // Saturating feed; the stream must stay open (closing it puts the farm
  // into shutdown, after which add_worker is refused by design).
  std::jthread feeder([&f] {
    for (int i = 0; i < 2000; ++i)
      if (!f.input()->push(Task::data(i, 0.0))) return;
  });
  std::jthread drainer([&f] {
    Task t;
    while (f.output()->pop(t) == support::ChannelStatus::Ok) {
    }
  });
  support::Clock::sleep_for(support::SimDuration(4.0));
  const double rate1 = f.metrics().departure_rate();
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(f.add_worker());
  // New workers only receive *new* arrivals; the backlog sits on the old
  // worker's queue until redistributed — which is why the paper's
  // CheckRateLow rule pairs ADD_EXECUTOR with BALANCE_LOAD.
  f.rebalance();
  support::Clock::sleep_for(support::SimDuration(6.0));
  const double rate4 = f.metrics().departure_rate();
  EXPECT_GT(rate4, rate1 * 2.0);  // 4 workers vs 1: at least doubles
  feeder.join();
  f.input()->close();
  f.wait();
}

TEST(FarmReconfig, RemoveWorkerReturnsLease) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 1;
  Farm f("f", cfg, identity_workers());
  f.start();
  f.add_worker({}, sim::CoreLease{0, 7});
  EXPECT_EQ(f.worker_count(), 2u);
  const auto r = f.remove_worker();
  EXPECT_TRUE(r.removed);
  ASSERT_TRUE(r.lease.has_value());
  EXPECT_EQ(r.lease->core, 7u);  // most recently added goes first
  EXPECT_EQ(f.worker_count(), 1u);
  f.input()->close();
  f.wait();
}

TEST(FarmReconfig, CannotRemoveLastWorker) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 1;
  Farm f("f", cfg, identity_workers());
  f.start();
  const auto r = f.remove_worker();
  EXPECT_FALSE(r.removed);
  EXPECT_EQ(f.worker_count(), 1u);
  f.input()->close();
  f.wait();
}

TEST(FarmReconfig, RemovedWorkerDrainsItsQueue) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 2;
  Farm f("f", cfg, slow_workers(0.01));
  f.start();
  for (int i = 0; i < 40; ++i) f.input()->push(Task::data(i, 0.0));
  const auto r = f.remove_worker();
  EXPECT_TRUE(r.removed);
  f.input()->close();
  f.wait();
  Task t;
  std::size_t n = 0;
  while (f.output()->pop(t) == support::ChannelStatus::Ok) ++n;
  EXPECT_EQ(n, 40u);  // nothing lost
}

TEST(FarmReconfig, AddAfterShutdownFails) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 1;
  Farm f("f", cfg, identity_workers());
  f.start();
  f.input()->close();
  f.wait();
  EXPECT_FALSE(f.add_worker());
}

TEST(FarmReconfig, ReconfigDelayRaisesBlackoutFlag) {
  ScopedClockScale fast(100.0);
  FarmConfig cfg;
  cfg.initial_workers = 1;
  cfg.reconfig_delay_s = 1.0;
  Farm f("f", cfg, identity_workers());
  f.start();
  EXPECT_FALSE(f.reconfiguring());
  std::jthread adder([&f] { f.add_worker(); });
  support::Clock::sleep_for(support::SimDuration(0.3));
  EXPECT_TRUE(f.reconfiguring());
  adder.join();
  EXPECT_FALSE(f.reconfiguring());
  EXPECT_EQ(f.worker_count(), 2u);
  f.input()->close();
  f.wait();
}

TEST(FarmReconfig, RebalanceEvensQueues) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 1;
  // Workers that block forever on a gate so queues stay put.
  std::atomic<bool> gate{false};
  Farm f("f", cfg, [&gate] {
    return std::make_unique<LambdaNode>([&gate](Task t) {
      while (!gate.load()) std::this_thread::sleep_for(
          std::chrono::milliseconds(1));
      return std::optional<Task>{std::move(t)};
    });
  });
  f.start();
  // All 20 tasks land on the single worker's queue (minus one in-flight).
  for (int i = 0; i < 20; ++i) f.input()->push(Task::data(i, 0.0));
  while (f.queue_lengths().at(0) < 19)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  f.add_worker();
  f.add_worker();
  EXPECT_GT(f.queue_variance(), 10.0);
  const std::size_t moved = f.rebalance();
  EXPECT_GT(moved, 0u);
  EXPECT_LT(f.queue_variance(), 10.0);
  const auto qs = f.queue_lengths();
  const auto [mn, mx] = std::minmax_element(qs.begin(), qs.end());
  EXPECT_LE(*mx - *mn, 2u);

  gate.store(true);
  f.input()->close();
  f.wait();
  Task t;
  std::size_t n = 0;
  while (f.output()->pop(t) == support::ChannelStatus::Ok) ++n;
  EXPECT_EQ(n, 20u);
}

// queue_lengths() sampled while workers pop batches: a worker's queue
// length plus the tasks it has started must always account for every task
// dispatched to it (less at most the one being claimed) and never count one
// twice. A sensor that reads the channel and the staged batch as two values
// misses a batch caught mid-pop.
TEST(FarmReconfig, QueueLengthsNeverHideQueuedTasks) {
  ScopedClockScale fast(500.0);
  constexpr std::size_t kWorkers = 3;
  constexpr std::size_t kTasks = 6000;
  FarmConfig cfg;
  cfg.initial_workers = kWorkers;
  cfg.worker_queue_capacity = kTasks;
  std::atomic<bool> gate{false};
  std::array<std::atomic<std::size_t>, kWorkers> started{};
  std::size_t next_node = 0;  // factory runs in worker-creation order
  Farm f("f", cfg, [&] {
    std::atomic<std::size_t>* mine = &started.at(next_node++);
    return std::make_unique<LambdaNode>([&gate, mine](Task t) {
      mine->fetch_add(1);
      while (!gate.load()) std::this_thread::yield();
      return std::optional<Task>{std::move(t)};
    });
  });
  f.start();
  for (std::size_t i = 0; i < kTasks; ++i)
    ASSERT_TRUE(f.input()->push(Task::data(i, 0.0)));

  // Gate closed: each worker sits in its first task; wait until every
  // other task is queued somewhere, which fixes each worker's share.
  std::array<std::size_t, kWorkers> share{};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const auto qs = f.queue_lengths();
    std::size_t total = 0;
    for (std::size_t i = 0; i < kWorkers; ++i) {
      share[i] = qs[i] + started[i].load();
      total += share[i];
    }
    if (total == kTasks) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  gate.store(true);
  std::size_t samples = 0;
  for (bool busy = true; busy; ++samples) {
    std::array<std::size_t, kWorkers> before{};
    for (std::size_t i = 0; i < kWorkers; ++i) before[i] = started[i].load();
    const auto qs = f.queue_lengths();
    busy = false;
    for (std::size_t i = 0; i < kWorkers; ++i) {
      const std::size_t after = started[i].load();
      ASSERT_GE(qs[i] + after + 1, share[i])
          << "worker " << i << " hides queued tasks (sample " << samples << ")";
      ASSERT_LE(qs[i] + before[i], share[i]) << "worker " << i;
      busy = busy || after < share[i];
    }
  }
  f.input()->close();
  f.wait();
  Task t;
  std::size_t n = 0;
  while (f.output()->pop(t) == support::ChannelStatus::Ok) ++n;
  EXPECT_EQ(n, kTasks);
}

TEST(FarmReconfig, RebalanceNoopWithOneWorker) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 1;
  Farm f("f", cfg, identity_workers());
  f.start();
  EXPECT_EQ(f.rebalance(), 0u);
  f.input()->close();
  f.wait();
}

TEST(FarmReconfig, QueueLengthsMatchesWorkerCount) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 3;
  Farm f("f", cfg, identity_workers());
  f.start();
  EXPECT_EQ(f.queue_lengths().size(), 3u);
  f.add_worker();
  EXPECT_EQ(f.queue_lengths().size(), 4u);
  f.input()->close();
  f.wait();
}

}  // namespace
}  // namespace bsk::rt
