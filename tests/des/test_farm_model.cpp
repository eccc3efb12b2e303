// DES farm/source/manager models: queueing behaviour and shared policies.

#include <gtest/gtest.h>

#include "des/farm_model.hpp"

namespace bsk::des {
namespace {

TEST(DesFarm, SingleWorkerSerializesService) {
  Simulator sim;
  DesFarmParams p;
  p.service_s = 2.0;
  DesFarm f(sim, p);
  std::vector<DesTime> completions;
  f.on_departure = [&] { completions.push_back(sim.now()); };
  sim.schedule(0.0, [&] {
    f.offer();
    f.offer();
    f.offer();
  });
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_DOUBLE_EQ(completions[0], 2.0);
  EXPECT_DOUBLE_EQ(completions[1], 4.0);
  EXPECT_DOUBLE_EQ(completions[2], 6.0);
}

TEST(DesFarm, MoreWorkersParallelize) {
  Simulator sim;
  DesFarmParams p;
  p.service_s = 2.0;
  p.initial_workers = 3;
  DesFarm f(sim, p);
  int done = 0;
  f.on_departure = [&] { ++done; };
  sim.schedule(0.0, [&] {
    for (int i = 0; i < 3; ++i) f.offer();
  });
  sim.run();
  EXPECT_EQ(done, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);  // all three in parallel
}

TEST(DesFarm, AddWorkersDrainsQueueFaster) {
  Simulator sim;
  DesFarmParams p;
  p.service_s = 1.0;
  DesFarm f(sim, p);
  sim.schedule(0.0, [&] {
    for (int i = 0; i < 10; ++i) f.offer();
  });
  sim.schedule(0.5, [&] { f.add_workers(9); });
  sim.run();
  // 1 task done at t=1 by the original worker; 9 started at 0.5 finish at
  // 1.5; the remaining... all done well before the serial 10s.
  EXPECT_LT(sim.now(), 3.0);
  EXPECT_EQ(f.completed(), 10u);
  EXPECT_EQ(f.worker_history().back().second, 10u);
}

TEST(DesFarm, RemoveWorkersIsLazy) {
  Simulator sim;
  DesFarmParams p;
  p.service_s = 1.0;
  p.initial_workers = 4;
  DesFarm f(sim, p);
  sim.schedule(0.0, [&] {
    for (int i = 0; i < 8; ++i) f.offer();
  });
  sim.schedule(0.1, [&] { f.remove_workers(3); });
  sim.run();
  EXPECT_EQ(f.completed(), 8u);  // nothing lost
  EXPECT_EQ(f.workers(), 1u);
  // After the first wave (4 in flight), only 1 worker serves: t = 1 + 4.
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(DesFarm, RemoveNeverBelowOne) {
  Simulator sim;
  DesFarm f(sim, {});
  f.remove_workers(100);
  EXPECT_EQ(f.workers(), 1u);
}

TEST(DesSource, EmitsAtRate) {
  Simulator sim;
  int got = 0;
  DesSource src(sim, 2.0, 10, [&] { ++got; });
  src.start();
  sim.run();
  EXPECT_EQ(got, 10);
  EXPECT_TRUE(src.done());
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);  // 10 tasks at 0.5s gaps
}

TEST(DesSource, RateRetunableMidStream) {
  Simulator sim;
  int got = 0;
  DesSource src(sim, 1.0, 10, [&] { ++got; });
  src.start();
  sim.schedule(2.5, [&] { src.set_rate(10.0); });
  sim.run();
  EXPECT_EQ(got, 10);
  EXPECT_LT(sim.now(), 4.0);  // sped up after 2 tasks
}

TEST(DesManager, GrowsFarmToContract) {
  Simulator sim;
  DesFarmParams fp;
  fp.service_s = 1.0;
  DesFarm farm(sim, fp);

  DesManagerParams mp;
  mp.contract_lo = 5.0;  // needs ~5 workers at 1 task/s each
  mp.warmup_s = 10.0;
  mp.cooldown_s = 5.0;
  DesFarmManager mgr(sim, farm, mp);

  DesSource src(sim, 8.0, 2000, [&] { farm.offer(); });
  src.start();
  mgr.start();
  sim.run_until(400.0);
  mgr.stop();
  sim.run();  // drain remaining completions and the final manager event

  EXPECT_GE(mgr.adds(), 2u);
  EXPECT_GE(farm.workers(), 5u);
  EXPECT_GE(mgr.converged_at(), 0.0);
  EXPECT_GT(mgr.cycles(), 10u);
}

TEST(DesManager, RaisesViolationOnLowPressure) {
  Simulator sim;
  DesFarmParams fp;
  DesFarm farm(sim, fp);
  DesManagerParams mp;
  mp.contract_lo = 5.0;
  mp.warmup_s = 0.0;
  DesFarmManager mgr(sim, farm, mp);
  std::vector<std::string> kinds;
  mgr.on_violation = [&](const std::string& k) { kinds.push_back(k); };

  DesSource src(sim, 0.5, 30, [&] { farm.offer(); });  // pressure too low
  src.start();
  mgr.start();
  sim.run_until(100.0);
  mgr.stop();
  ASSERT_FALSE(kinds.empty());
  EXPECT_EQ(kinds.front(), "notEnoughTasks_VIOL");
  EXPECT_EQ(mgr.adds(), 0u);  // never blamed capacity
}

TEST(DesManager, ShrinksOnOvershoot) {
  Simulator sim;
  DesFarmParams fp;
  fp.service_s = 1.0;
  fp.initial_workers = 10;
  DesFarm farm(sim, fp);
  DesManagerParams mp;
  mp.contract_lo = 1.0;
  mp.contract_hi = 3.0;
  mp.warmup_s = 10.0;
  mp.cooldown_s = 5.0;
  DesFarmManager mgr(sim, farm, mp);
  // Arrivals inside the contract band; 10 workers deliver ~5/s > hi? No —
  // delivery is bounded by arrivals (5/s), above hi=3 → REMOVE fires.
  DesSource src(sim, 5.0, 3000, [&] { farm.offer(); });
  src.start();
  mgr.start();
  sim.run_until(300.0);
  mgr.stop();
  EXPECT_GE(mgr.removes(), 1u);
  EXPECT_LT(farm.workers(), 10u);
}

TEST(DesModels, DeterministicEndToEnd) {
  auto run_once = [] {
    Simulator sim;
    DesFarmParams fp;
    fp.service_s = 1.0;
    fp.exponential_service = true;
    fp.seed = 99;
    DesFarm farm(sim, fp);
    DesManagerParams mp;
    mp.contract_lo = 3.0;
    DesFarmManager mgr(sim, farm, mp);
    DesSource src(sim, 5.0, 500, [&] { farm.offer(); });
    src.start();
    mgr.start();
    sim.run_until(200.0);
    mgr.stop();
    return std::tuple{farm.completed(), farm.workers(), mgr.adds(),
                      mgr.converged_at()};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace bsk::des
