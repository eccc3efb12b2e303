// Farm edge cases and stress sweeps beyond the core behaviour tests.

#include <gtest/gtest.h>

#include "rt/farm.hpp"
#include "sanitizers.hpp"
#include "support/clock.hpp"

namespace bsk::rt {
namespace {

using support::ScopedClockScale;

NodeFactory identity_workers() {
  return [] {
    return std::make_unique<LambdaNode>(
        [](Task t) { return std::optional<Task>{std::move(t)}; });
  };
}

TEST(FarmEdge, ZeroInitialWorkersClampedToOne) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 0;
  Farm f("f", cfg, identity_workers());
  f.start();
  EXPECT_EQ(f.worker_count(), 1u);
  f.input()->push(Task::data(1, 0.0));
  f.input()->close();
  f.wait();  // would deadlock without the clamp
  Task t;
  EXPECT_EQ(f.output()->pop(t), support::ChannelStatus::Ok);
}

TEST(FarmEdge, ReduceWithoutReducerKeepsFirst) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 1;  // single worker: deterministic first result
  cfg.collect = CollectMode::Reduce;
  Farm f("f", cfg, identity_workers());
  f.start();
  for (int i = 0; i < 5; ++i) f.input()->push(Task::data(i, 0.0));
  f.input()->close();
  f.wait();
  Task t;
  ASSERT_EQ(f.output()->pop(t), support::ChannelStatus::Ok);
  EXPECT_EQ(t.id, 0u);
  EXPECT_EQ(f.output()->pop(t), support::ChannelStatus::Closed);
}

TEST(FarmEdge, ReduceOfEmptyStreamEmitsNothing) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.collect = CollectMode::Reduce;
  cfg.reducer = [](Task a, Task) { return a; };
  Farm f("f", cfg, identity_workers());
  f.start();
  f.input()->close();
  f.wait();
  Task t;
  EXPECT_EQ(f.output()->pop(t), support::ChannelStatus::Closed);
}

TEST(FarmEdge, MetricsRatesVisibleWhileRunning) {
  ScopedClockScale fast(100.0);
  FarmConfig cfg;
  cfg.initial_workers = 2;
  cfg.rate_window = support::SimDuration(2.0);
  Farm f("f", cfg, identity_workers());
  f.start();
  std::jthread drainer([&f] {
    Task t;
    while (f.output()->pop(t) == support::ChannelStatus::Ok) {
    }
  });
  for (int i = 0; i < 50; ++i) {
    f.input()->push(Task::data(i, 0.0));
    support::Clock::sleep_for(support::SimDuration(0.02));
  }
  EXPECT_GT(f.metrics().arrival_rate(), 5.0);
  EXPECT_GT(f.metrics().departure_rate(), 5.0);
  f.input()->close();
  f.wait();
}

TEST(FarmEdge, PayloadSurvivesTransit) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 2;
  Farm f("f", cfg, [] {
    return std::make_unique<LambdaNode>([](Task t) {
      auto s = std::any_cast<std::string>(t.payload);
      t.payload = s + "-processed";
      return std::optional<Task>{std::move(t)};
    });
  });
  f.start();
  f.input()->push(Task::data(1, 0.0, std::string("hello")));
  f.input()->close();
  f.wait();
  Task t;
  ASSERT_EQ(f.output()->pop(t), support::ChannelStatus::Ok);
  EXPECT_EQ(std::any_cast<std::string>(t.payload), "hello-processed");
}

TEST(FarmEdge, OnStartOnStopCalledPerWorker) {
  ScopedClockScale fast(500.0);
  static std::atomic<int> starts{0}, stops{0};
  starts = 0;
  stops = 0;
  class Probe : public Node {
   public:
    void on_start() override { ++starts; }
    std::optional<Task> process(Task t) override { return t; }
    void on_stop() override { ++stops; }
  };
  FarmConfig cfg;
  cfg.initial_workers = 3;
  {
    Farm f("f", cfg, [] { return std::make_unique<Probe>(); });
    f.start();
    f.input()->close();
    f.wait();
  }
  EXPECT_EQ(starts.load(), 3);
  EXPECT_EQ(stops.load(), 3);
}

TEST(FarmEdge, WorkerBusySecondsAccumulate) {
  ScopedClockScale fast(200.0);
  FarmConfig cfg;
  cfg.initial_workers = 2;
  Farm f("f", cfg, [] {
    return std::make_unique<LambdaNode>([](Task t) {
      support::Clock::sleep_for(support::SimDuration(0.2));
      return std::optional<Task>{std::move(t)};
    });
  });
  f.start();
  EXPECT_EQ(f.worker_busy_seconds().size(), 2u);
  for (int i = 0; i < 10; ++i) f.input()->push(Task::data(i, 0.0));
  std::jthread drainer([&f] {
    Task t;
    while (f.output()->pop(t) == support::ChannelStatus::Ok) {
    }
  });
  support::Clock::sleep_for(support::SimDuration(1.5));
  double total = 0.0;
  for (double b : f.worker_busy_seconds()) total += b;
  EXPECT_GT(total, 1.0);  // 10 tasks × 0.2s spread over two workers
  f.input()->close();
  f.wait();
}

TEST(FarmEdge, LargeStreamStress) {
  ScopedClockScale fast(1000.0);
  FarmConfig cfg;
  cfg.initial_workers = 8;
  cfg.worker_queue_capacity = 1 << 14;
  Farm f("f", cfg, identity_workers());
  f.start();
  std::jthread feeder([&f] {
    for (int i = 0; i < 20000; ++i) f.input()->push(Task::data(i, 0.0));
    f.input()->close();
  });
  std::size_t n = 0;
  Task t;
  while (f.output()->pop(t) == support::ChannelStatus::Ok) ++n;
  f.wait();
  EXPECT_EQ(n, 20000u);
}

// Worker-count sweep under real (simulated) work: makespan shrinks with
// workers — the functional-replication speedup property.
class SpeedupSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpeedupSweep, MakespanBoundedByCapacity) {
  // Thread-lifecycle costs (spawn/join, sanitizer instrumentation) are real
  // time, so an aggressive virtual-clock scale multiplies them into virtual
  // seconds. Under TSan's ~10x slowdown the makespan sweep needs a gentler
  // scale or fixed startup overhead swamps the simulated work it measures.
  ScopedClockScale fast(BSK_TSAN ? 25.0 : 400.0);
  const std::size_t workers = GetParam();
  FarmConfig cfg;
  cfg.initial_workers = workers;
  Farm f("f", cfg, [] {
    return std::make_unique<LambdaNode>([](Task t) {
      support::Clock::sleep_for(support::SimDuration(0.1));
      return std::optional<Task>{std::move(t)};
    });
  });
  const auto t0 = support::Clock::now();
  f.start();
  for (int i = 0; i < 32; ++i) f.input()->push(Task::data(i, 0.0));
  f.input()->close();
  f.wait();
  const double makespan = support::Clock::now() - t0;
  // Ideal: 32*0.1/workers; allow generous scheduling slack.
  const double ideal = 3.2 / static_cast<double>(workers);
  EXPECT_GE(makespan, ideal * 0.9);
  EXPECT_LE(makespan, ideal * 3.0 + 0.5);
  Task t;
  std::size_t n = 0;
  while (f.output()->pop(t) == support::ChannelStatus::Ok) ++n;
  EXPECT_EQ(n, 32u);
}

INSTANTIATE_TEST_SUITE_P(Workers, SpeedupSweep,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace bsk::rt
