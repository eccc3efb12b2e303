// Experiment E8 — runtime micro-costs (google-benchmark).
//
// The mechanisms behind the managers' actuators and sensors: channel
// transfer costs, rule-engine agenda cycles, .brl parsing, farm
// reconfiguration latency (the cost visible as the sensor blackout in
// Fig. 4), and contract splitting.

#include <benchmark/benchmark.h>

#include "am/builtin_rules.hpp"
#include "am/contract.hpp"
#include "rules/engine.hpp"
#include "rules/parser.hpp"
#include "rt/farm.hpp"
#include "support/channel.hpp"
#include "support/clock.hpp"
#include "support/stats.hpp"

namespace {

using namespace bsk;

void BM_ChannelPushPop(benchmark::State& state) {
  support::Channel<int> ch(1024);
  for (auto _ : state) {
    ch.push(1);
    int v;
    benchmark::DoNotOptimize(ch.pop(v));
  }
}
BENCHMARK(BM_ChannelPushPop);

// Producer/consumer stream through a bounded channel. Arg is the batch
// size: 1 uses the per-item push/pop path (one lock + one CV notify per
// task — the pre-batching dataplane), larger values move whole batches via
// push_n/pop_n under a single lock acquisition. The items/s ratio between
// Arg(1) and the batched runs is the dataplane speedup BENCH_dataplane.json
// tracks.
void BM_ChannelBatchTransfer(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  support::Channel<int> ch(1024);
  std::jthread consumer([&ch, batch] {
    if (batch == 1) {
      int v;
      while (ch.pop(v) == support::ChannelStatus::Ok)
        benchmark::DoNotOptimize(v);
    } else {
      std::vector<int> buf;
      buf.reserve(batch);
      while (ch.pop_n(buf, batch) == support::ChannelStatus::Ok) {
        benchmark::DoNotOptimize(buf.data());
        buf.clear();
      }
    }
  });
  std::int64_t items = 0;
  if (batch == 1) {
    for (auto _ : state) {
      ch.push(1);
      ++items;
    }
  } else {
    std::vector<int> out;
    for (auto _ : state) {
      out.assign(batch, 1);
      ch.push_n(out);
      items += static_cast<std::int64_t>(batch);
    }
  }
  ch.close();
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_ChannelBatchTransfer)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

void BM_RateEstimatorRecord(benchmark::State& state) {
  support::RateEstimator r(support::SimDuration(10.0));
  double t = 0.0;
  for (auto _ : state) {
    r.record(t);
    t += 0.01;
  }
}
BENCHMARK(BM_RateEstimatorRecord);

void BM_RuleEngineCycle(benchmark::State& state) {
  rules::Engine engine;
  for (rules::Rule& r : rules::parse_rules(am::farm_rules()))
    engine.add_rule(std::move(r));
  rules::ConstantTable consts;
  consts.set("FARM_LOW_PERF_LEVEL", 0.3);
  consts.set("FARM_HIGH_PERF_LEVEL", 0.7);
  consts.set("FARM_MIN_NUM_WORKERS", 1.0);
  consts.set("FARM_MAX_NUM_WORKERS", 8.0);
  consts.set("FARM_MAX_UNBALANCE", 9.0);
  consts.set("FARM_ADD_WORKERS", 2.0);
  rules::WorkingMemory wm;
  wm.set("ArrivalRateBean", 0.5);
  wm.set("DepartureRateBean", 0.5);
  wm.set("NumWorkerBean", 4.0);
  wm.set("QuequeVarianceBean", 0.0);
  class NullSink : public rules::OperationSink {
    void fire_operation(const std::string&, const std::string&) override {}
  } sink;
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.run_cycle(wm, consts, sink));
}
BENCHMARK(BM_RuleEngineCycle);

void BM_ParseFig5Rules(benchmark::State& state) {
  const std::string text = am::farm_rules();
  for (auto _ : state)
    benchmark::DoNotOptimize(rules::parse_rules(text));
}
BENCHMARK(BM_ParseFig5Rules);

void BM_ContractSplitPipeline(benchmark::State& state) {
  const am::Contract c =
      am::Contract::throughput_range(0.3, 0.7).with_par_degree(64);
  const std::vector<double> weights{1, 3, 2, 1, 5, 2, 1, 1};
  for (auto _ : state)
    benchmark::DoNotOptimize(am::split_for_pipeline(c, 8, weights));
}
BENCHMARK(BM_ContractSplitPipeline);

void BM_FarmAddRemoveWorker(benchmark::State& state) {
  support::ScopedClockScale fast(1e6);
  rt::FarmConfig cfg;
  cfg.initial_workers = 2;
  rt::Farm f("f", cfg, [] {
    return std::make_unique<rt::LambdaNode>(
        [](rt::Task t) { return std::optional<rt::Task>{std::move(t)}; });
  });
  f.start();
  for (auto _ : state) {
    f.add_worker();
    benchmark::DoNotOptimize(f.remove_worker());
  }
  f.input()->close();
  f.wait();
}
BENCHMARK(BM_FarmAddRemoveWorker)->Unit(benchmark::kMicrosecond);

void BM_FarmSteadyStateThroughput(benchmark::State& state) {
  support::ScopedClockScale fast(1e6);
  const auto workers = static_cast<std::size_t>(state.range(0));
  rt::FarmConfig cfg;
  cfg.initial_workers = workers;
  rt::Farm f("f", cfg, [] {
    return std::make_unique<rt::LambdaNode>(
        [](rt::Task t) { return std::optional<rt::Task>{std::move(t)}; });
  });
  f.start();
  std::jthread drainer([&f] {
    rt::Task t;
    while (f.output()->pop(t) == support::ChannelStatus::Ok) {
    }
  });
  std::uint64_t id = 0;
  for (auto _ : state) f.input()->push(rt::Task::data(id++, 0.0));
  state.SetItemsProcessed(static_cast<std::int64_t>(id));
  f.input()->close();
  f.wait();
}
BENCHMARK(BM_FarmSteadyStateThroughput)->Arg(1)->Arg(4)->Arg(8);

void BM_Rebalance(benchmark::State& state) {
  support::ScopedClockScale fast(1e6);
  rt::FarmConfig cfg;
  cfg.initial_workers = 4;
  std::atomic<bool> gate{false};
  rt::Farm f("f", cfg, [&gate] {
    return std::make_unique<rt::LambdaNode>([&gate](rt::Task t) {
      while (!gate.load()) std::this_thread::yield();
      return std::optional<rt::Task>{std::move(t)};
    });
  });
  f.start();
  for (int i = 0; i < 512; ++i) f.input()->push(rt::Task::data(i, 0.0));
  for (auto _ : state) benchmark::DoNotOptimize(f.rebalance());
  gate.store(true);
  f.input()->close();
  std::jthread drainer([&f] {
    rt::Task t;
    while (f.output()->pop(t) == support::ChannelStatus::Ok) {
    }
  });
  f.wait();
}
BENCHMARK(BM_Rebalance)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
