// Farm: correctness under every policy/collection mode, ordering, reduce.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <string>
#include <thread>

#include "rt/farm.hpp"
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

/// Push n data tasks into the farm and close the stream.
void feed(Farm& f, std::size_t n, double work_s = 0.0) {
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_TRUE(f.input()->push(Task::data(i, work_s)));
  f.input()->close();
}

/// Drain the farm output, returning ids in arrival order.
std::vector<std::uint64_t> drain_ids(Farm& f) {
  std::vector<std::uint64_t> ids;
  Task t;
  while (f.output()->pop(t) == support::ChannelStatus::Ok) ids.push_back(t.id);
  return ids;
}

TEST(Farm, ProcessesAllTasksRoundRobin) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 4;
  Farm f("f", cfg, identity_workers());
  f.start();
  feed(f, 100);
  f.wait();
  const auto ids = drain_ids(f);
  EXPECT_EQ(ids.size(), 100u);
  EXPECT_EQ(std::set<std::uint64_t>(ids.begin(), ids.end()).size(), 100u);
}

TEST(Farm, ProcessesAllTasksOnDemand) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 3;
  cfg.policy = SchedPolicy::OnDemand;
  Farm f("f", cfg, identity_workers());
  f.start();
  feed(f, 60, 0.001);
  f.wait();
  EXPECT_EQ(drain_ids(f).size(), 60u);
}

TEST(Farm, BroadcastDeliversToEveryWorker) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 3;
  cfg.policy = SchedPolicy::Broadcast;
  Farm f("f", cfg, identity_workers());
  f.start();
  feed(f, 10);
  f.wait();
  EXPECT_EQ(drain_ids(f).size(), 30u);  // every task × every worker
}

TEST(Farm, OrderedGatherPreservesEmissionOrder) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 4;
  cfg.ordered = true;
  // Random per-task delays would reorder an unordered farm.
  Farm f("f", cfg, [] {
    return std::make_unique<LambdaNode>([](Task t) {
      support::Clock::sleep_for(
          support::SimDuration((t.id % 3) * 0.01));
      return std::optional<Task>{std::move(t)};
    });
  });
  f.start();
  feed(f, 50);
  f.wait();
  const auto ids = drain_ids(f);
  ASSERT_EQ(ids.size(), 50u);
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);
}

TEST(Farm, ReduceFoldsResults) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 4;
  cfg.collect = CollectMode::Reduce;
  cfg.reducer = [](Task a, Task b) {
    a.work_s += b.work_s;
    return a;
  };
  Farm f("f", cfg, identity_workers());
  f.start();
  for (int i = 1; i <= 10; ++i)
    ASSERT_TRUE(f.input()->push(Task::data(i, static_cast<double>(i))));
  f.input()->close();
  f.wait();
  Task t;
  ASSERT_EQ(f.output()->pop(t), support::ChannelStatus::Ok);
  EXPECT_DOUBLE_EQ(t.work_s, 55.0);
  EXPECT_EQ(f.output()->pop(t), support::ChannelStatus::Closed);
}

TEST(Farm, FilteringWorkersShrinkStream) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 2;
  Farm f("f", cfg, [] {
    return std::make_unique<LambdaNode>([](Task t) -> std::optional<Task> {
      if (t.id % 2 == 0) return std::nullopt;
      return t;
    });
  });
  f.start();
  feed(f, 20);
  f.wait();
  EXPECT_EQ(drain_ids(f).size(), 10u);
}

TEST(Farm, WorkerCountTracksConfig) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 5;
  Farm f("f", cfg, identity_workers());
  f.start();
  EXPECT_EQ(f.worker_count(), 5u);
  EXPECT_EQ(f.running_workers(), 5u);
  feed(f, 1);
  f.wait();
  EXPECT_EQ(f.running_workers(), 0u);
}

TEST(Farm, StatefulWorkersGetIndependentState) {
  ScopedClockScale fast(500.0);
  // Each worker counts its own tasks; with one shared node this would race.
  class Counter : public Node {
   public:
    void on_start() override { count_ = 0; }
    std::optional<Task> process(Task t) override {
      ++count_;
      t.work_s = static_cast<double>(count_);
      return t;
    }

   private:
    int count_ = 0;
  };
  FarmConfig cfg;
  cfg.initial_workers = 4;
  Farm f("f", cfg, [] { return std::make_unique<Counter>(); });
  f.start();
  feed(f, 40);
  f.wait();
  Task t;
  double max_count = 0.0;
  while (f.output()->pop(t) == support::ChannelStatus::Ok)
    max_count = std::max(max_count, t.work_s);
  // Round-robin over 4 workers: each sees exactly 10 tasks.
  EXPECT_DOUBLE_EQ(max_count, 10.0);
}

TEST(Farm, MetricsCountThroughput) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 2;
  Farm f("f", cfg, identity_workers());
  f.start();
  feed(f, 30);
  f.wait();
  EXPECT_EQ(f.metrics().total_arrivals(), 30u);
  EXPECT_EQ(f.metrics().total_departures(), 30u);
}

TEST(Farm, EmptyStreamTerminatesCleanly) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 2;
  Farm f("f", cfg, identity_workers());
  f.start();
  f.input()->close();
  f.wait();
  EXPECT_TRUE(drain_ids(f).empty());
}

TEST(Farm, DestructorWithoutWaitIsSafe) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 2;
  auto f = std::make_unique<Farm>("f", cfg, identity_workers());
  f->start();
  f->input()->push(Task::data(0, 0.0));
  f.reset();  // closes input, drains, joins
}

// The collector runs in the workers, not in a thread of its own: a running
// 3-worker farm shows one emitter thread, three worker threads and no
// collector thread under /proc/self/task.
TEST(Farm, NamesEmitterAndWorkerThreadsAndHasNoCollector) {
  ScopedClockScale fast(500.0);
  FarmConfig cfg;
  cfg.initial_workers = 3;
  Farm f("f", cfg, identity_workers());
  f.start();
  std::size_t emitters = 0, workers = 0, collectors = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  do {  // threads name themselves as they start: poll briefly
    emitters = workers = collectors = 0;
    for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
      std::ifstream in(e.path() / "comm");
      std::string name;
      std::getline(in, name);
      if (name == "farm-emitter") ++emitters;
      if (name.rfind("farm-worker-", 0) == 0) ++workers;
      if (name.find("collect") != std::string::npos) ++collectors;
    }
  } while ((emitters != 1 || workers != 3) &&
           std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(emitters, 1u);
  EXPECT_EQ(workers, 3u);
  EXPECT_EQ(collectors, 0u);
  f.input()->close();
  f.wait();
}

// The only worker crashed and no replacement came: it exits before the end
// of the stream, so the emitter is the last one out and must deliver the
// recovered tasks unprocessed and close the output.
TEST(Farm, EmitterClosesOutputWhenEveryWorkerExitedFirst) {
  ScopedClockScale fast(500.0);
  struct CrashedNode final : Node {
    std::optional<Task> process(Task t) override {
      t.id += 1000;  // a processed result must never surface
      return t;
    }
    bool failed() const override { return true; }
  };
  FarmConfig cfg;
  cfg.initial_workers = 1;
  Farm f("f", cfg, [] { return std::make_unique<CrashedNode>(); });
  constexpr std::size_t kTasks = 40;
  for (std::size_t i = 0; i < kTasks; ++i)
    ASSERT_TRUE(f.input()->push(Task::data(i, 0.0)));
  f.start();
  const auto until = [](auto done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!done() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return done();
  };
  ASSERT_TRUE(until([&] { return f.running_workers() == 0; }));
  f.fail_crashed_workers();
  f.input()->close();
  ASSERT_TRUE(until([&] { return f.output()->closed(); }))
      << "output not closed within 2 s";
  f.wait();
  std::vector<std::uint64_t> ids = drain_ids(f);
  std::sort(ids.begin(), ids.end());
  std::vector<std::uint64_t> want(kTasks);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(ids, want);  // every id exactly once, none processed
}

// Parameterized sweep: every policy×ordering combination processes the
// whole stream.
//
// gtest names each case after the raw bytes of its parameter, padding
// included, so the padding is spelled out and zeroed: left implicit it holds
// stack garbage and the case names change from run to run.
struct FarmCase {
  FarmCase(SchedPolicy policy, bool ordered, std::size_t workers)
      : policy(policy), ordered(ordered), workers(workers) {}
  SchedPolicy policy;
  bool ordered;
  char pad[3] = {};
  std::size_t workers;
};
static_assert(sizeof(FarmCase) == 16, "FarmCase must have no implicit padding");

class FarmSweep : public ::testing::TestWithParam<FarmCase> {};

TEST_P(FarmSweep, AllTasksDelivered) {
  ScopedClockScale fast(500.0);
  const auto& pc = GetParam();
  FarmConfig cfg;
  cfg.initial_workers = pc.workers;
  cfg.policy = pc.policy;
  cfg.ordered = pc.ordered;
  Farm f("f", cfg, identity_workers());
  f.start();
  feed(f, 40);
  f.wait();
  const std::size_t expect =
      pc.policy == SchedPolicy::Broadcast ? 40 * pc.workers : 40;
  EXPECT_EQ(drain_ids(f).size(), expect);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyMatrix, FarmSweep,
    ::testing::Values(FarmCase{SchedPolicy::RoundRobin, false, 1},
                      FarmCase{SchedPolicy::RoundRobin, false, 4},
                      FarmCase{SchedPolicy::RoundRobin, true, 4},
                      FarmCase{SchedPolicy::OnDemand, false, 4},
                      FarmCase{SchedPolicy::OnDemand, true, 3},
                      FarmCase{SchedPolicy::Broadcast, false, 2},
                      FarmCase{SchedPolicy::Broadcast, false, 5}));

}  // namespace
}  // namespace bsk::rt
