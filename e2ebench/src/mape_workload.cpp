// mape-steps: the control path. A farm built like bs::make_farm_bs — local
// SimComputeNode workers, FarmAbc over a resource manager, a manager running
// the paper's Fig. 5 rules under a throughput-range contract — on the scaled
// virtual clock, pushed through a seeded schedule of external-load bursts.
//
// The offered load (kRate) sits just above the contract's upper bound, so
// the farm is always backlogged and its delivered rate equals its capacity.
// Each burst onset halves the core speed and throughput falls below the
// contract (the manager must add workers); each burst end restores it and
// throughput overshoots (the manager must remove them). A sampler reads the
// farm's departure-rate sensor every simulated second; step reactions, SLA
// share and worker-seconds come from that series.

#include <atomic>
#include <random>
#include <thread>

#include "am/abc.hpp"
#include "am/builtin_rules.hpp"
#include "am/manager.hpp"
#include "bench.hpp"
#include "benchlib.hpp"
#include "obs/trace.hpp"
#include "rules/engine.hpp"
#include "rules/parser.hpp"
#include "sim/platform.hpp"
#include "sim/resource_manager.hpp"
#include "support/clock.hpp"
#include "support/event_log.hpp"
#include "support/json.hpp"

namespace e2e {
namespace {

using bsk::rt::Task;
using bsk::support::Clock;
using bsk::support::SimDuration;

constexpr double kClockScale = 100.0;  // simulated seconds per wall second
constexpr double kWork = 1.0;          // reference seconds per task
constexpr double kLo = 1.5, kHi = 2.5; // contract: throughput range
constexpr double kRate = 2.75;         // offered tasks per simulated second
constexpr std::size_t kInitialWorkers = 2;
constexpr std::size_t kMaxWorkers = 8;
constexpr double kPeriod = 5.0;
constexpr double kRateWindow = 10.0;
constexpr double kWarmup = 20.0;       // simulated seconds before the bursts
constexpr double kBurstCycle = 100.0;  // mean on + off length
constexpr int kSetupReps = 15;

/// Seeded burst schedule, in simulated seconds from the scenario start.
struct Burst {
  double t0, t1, load;
};

std::vector<Burst> burst_schedule(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 7);
  std::uniform_real_distribution<double> len(0.45 * kBurstCycle,
                                             0.55 * kBurstCycle);
  std::uniform_real_distribution<double> load(0.9, 1.1);
  std::vector<Burst> out;
  double t = kWarmup;
  for (int i = 0; i < n; ++i) {
    const double on = len(rng), off = len(rng);
    out.push_back({t, t + on, load(rng)});
    t += on + off;
  }
  return out;
}

/// The managed farm plus everything it runs on.
struct ManagedFarm {
  bsk::sim::Platform platform;
  std::unique_ptr<bsk::sim::ResourceManager> rm;
  std::unique_ptr<bsk::rt::Farm> farm;
  std::unique_ptr<bsk::am::FarmAbc> farm_abc;
  std::unique_ptr<TimedAbc> timed_abc;
  std::unique_ptr<bsk::am::AutonomicManager> mgr;
  bsk::support::EventLog log;
  double t0 = 0;        ///< scenario start (simulated)
  double setup_s = 0;

  ~ManagedFarm() {
    if (mgr) mgr->stop();
    if (farm) {
      farm->input()->close();
      farm->wait();
    }
  }
};

Task make_task(std::uint64_t id) {
  Task t = Task::data(id, kWork);
  t.size_mb = 0.0;
  return t;
}

/// Build and start the managed farm; setup_s runs to the first task
/// accepted. `bursts` are placed relative to the start.
std::unique_ptr<ManagedFarm> build(const std::vector<Burst>& bursts,
                                   NodeTimings* timings, bool timed_abc) {
  auto m = std::make_unique<ManagedFarm>();
  const double w0 = wall_now();
  m->t0 = Clock::now();
  bsk::sim::LoadTrace trace;
  for (const Burst& b : bursts) trace.burst(m->t0 + b.t0, m->t0 + b.t1, b.load);
  m->platform.add_machine("smp16", "local", 16, 1.0, trace);
  m->rm = std::make_unique<bsk::sim::ResourceManager>(m->platform);
  const bsk::rt::Placement home{&m->platform, 0};

  bsk::rt::FarmConfig fc;
  fc.initial_workers = kInitialWorkers;
  fc.policy = bsk::rt::SchedPolicy::OnDemand;
  fc.reconfig_delay_s = 1.0;
  fc.rate_window = SimDuration(kRateWindow);
  bsk::rt::NodeFactory wf = [] {
    return std::make_unique<bsk::rt::SimComputeNode>();
  };
  if (timings) wf = timed_factory(std::move(wf), *timings);
  m->farm = std::make_unique<bsk::rt::Farm>("farm", fc, std::move(wf), home);
  m->farm_abc = std::make_unique<bsk::am::FarmAbc>(*m->farm, m->rm.get());
  bsk::am::Abc* abc = m->farm_abc.get();
  if (timed_abc) {
    m->timed_abc = std::make_unique<TimedAbc>(*m->farm_abc);
    abc = m->timed_abc.get();
  }
  bsk::am::ManagerConfig mc;
  mc.period = SimDuration(kPeriod);
  mc.max_workers = kMaxWorkers;
  mc.action_cooldown_s = kRateWindow;
  mc.warmup_s = kRateWindow;
  m->mgr = std::make_unique<bsk::am::AutonomicManager>("AM_farm", *abc, mc,
                                                       &m->log);
  m->mgr->load_rules(bsk::am::farm_rules());
  m->mgr->set_splitter([](const bsk::am::Contract& c, std::size_t n) {
    return std::vector<bsk::am::Contract>(n, bsk::am::farm_worker_contract(c));
  });
  m->farm->start();
  m->mgr->start();
  m->mgr->set_contract(bsk::am::Contract::throughput_range(kLo, kHi));
  m->farm->input()->push(make_task(0));
  m->setup_s = wall_now() - w0;
  return m;
}

/// Everything one pass of the scenario measured.
struct Pass {
  std::uint64_t sent = 0;
  DeliveryCheck check;
  std::vector<double> lat_us;  ///< per task id (-1 until delivered)
  std::vector<double> late_us;  ///< how late each push started
  double tput = 0;           ///< tasks per wall second after the warm-up
  double cpu_us_per_task = 0;
  std::vector<RateSample> series;
  double worker_s = 0;
  std::vector<double> steps;  ///< burst onsets and ends (simulated, absolute)
  std::vector<StepReaction> reactions;
  double end_t = 0;
  double t0 = 0;
};

/// Run one pass of `bursts` on a fresh managed farm. Spans of pushes (when
/// `spans`) and node calls (when `timings`) are recorded along the way.
Pass run_pass(ManagedFarm& m, const std::vector<Burst>& bursts,
              SpanRecorder* spans) {
  Pass p;
  p.t0 = m.t0;
  const double end_rel = bursts.back().t1 + 0.5 * kBurstCycle;
  p.end_t = m.t0 + end_rel;
  for (const Burst& b : bursts) {
    p.steps.push_back(m.t0 + b.t0);
    p.steps.push_back(m.t0 + b.t1);
  }

  // Collector: exactly-once and latency from each task's scheduled time.
  std::vector<double> sched;  // wall, per id (index = id)
  const auto n_total = static_cast<std::size_t>(kRate * end_rel) + 2;
  sched.assign(n_total, 0.0);
  p.lat_us.assign(n_total, -1.0);
  std::atomic<std::uint64_t> done_after_warm{0};
  std::atomic<double> warm_wall{1e300};
  std::thread collector([&] {
    std::vector<Task> batch;
    while (m.farm->output()->pop_n(batch, 64) ==
           bsk::support::ChannelStatus::Ok) {
      const double now = wall_now();
      for (const Task& t : batch) {
        p.check.deliver(t.id);
        if (t.id > 0 && t.id < sched.size()) {
          p.lat_us[t.id] = 1e6 * (now - sched[t.id]);
          if (spans) spans->record("task", "", t.id, sched[t.id], now);
        }
        if (now >= warm_wall.load()) done_after_warm.fetch_add(1);
      }
      batch.clear();
    }
  });

  // Sampler: departure-rate sensor and running workers, every sim second.
  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    double t = m.t0 + 1.0;
    while (!stop.load()) {
      Clock::sleep_until(t);
      const double rate = m.farm->metrics().departure_rate();
      const auto workers = static_cast<double>(m.farm->running_workers());
      p.series.push_back({Clock::now(), rate});
      if (Clock::now() >= m.t0 + kWarmup) p.worker_s += workers * 1.0;
      t += 1.0;
    }
  });

  // Open-loop load generator on the scaled clock.
  const double cpu0 = self_cpu_s();
  double warm_w0 = 0;
  std::uint64_t id = 1;
  for (;; ++id) {
    const double due_sim = m.t0 + static_cast<double>(id) / kRate;
    if (due_sim >= p.end_t || id >= sched.size()) break;
    Clock::sleep_until(due_sim);
    const double late_s = (Clock::now() - due_sim) / Clock::scale();
    sched[id] = wall_now() - late_s;
    p.late_us.push_back(1e6 * late_s);
    if (warm_w0 == 0 && due_sim >= m.t0 + kWarmup) {
      warm_w0 = wall_now();
      warm_wall.store(warm_w0);
    }
    const double w = wall_now();
    m.farm->input()->push(make_task(id));
    if (spans) spans->record("rt.farm.push", "task", id, w, wall_now());
  }
  p.sent = id;
  const double w_end = wall_now();
  const std::uint64_t in_window = done_after_warm.load();
  p.tput = in_window / std::max(1e-9, w_end - warm_w0);
  stop.store(true);
  sampler.join();
  m.mgr->stop();
  m.farm->input()->close();
  m.farm->wait();
  collector.join();
  p.cpu_us_per_task = 1e6 * (self_cpu_s() - cpu0) / static_cast<double>(p.sent);
  p.reactions = detect_reactions(p.series, p.steps, kLo, kHi, p.end_t);
  return p;
}

/// Median reaction time over the steps the series left the contract on.
double react_p50(const Pass& p, std::size_t* disturbed = nullptr) {
  std::vector<double> v;
  for (const StepReaction& r : p.reactions)
    if (r.left) v.push_back(r.react_s);
  if (disturbed) *disturbed = v.size();
  return median(v);
}

void check_pass(const Pass& p, Result& r, const char* what) {
  DeliveryCheck chk = p.check;
  chk.finish(p.sent);
  const std::uint64_t failed = chk.failures(false);
  r.attempted += p.sent;
  r.failed += failed;
  if (failed)
    r.fail(std::string(what) + ": lost " + std::to_string(chk.lost()) +
           ", duplicated " + std::to_string(chk.duplicates()) + ", bogus " +
           std::to_string(chk.bogus()) + " of " + std::to_string(p.sent));
  std::size_t disturbed = 0;
  react_p50(p, &disturbed);
  // Every step must actually disturb the farm, or the workload is not
  // exercising the manager.
  if (disturbed < p.steps.size())
    r.fail(std::string(what) + ": only " + std::to_string(disturbed) + " of " +
           std::to_string(p.steps.size()) + " steps moved throughput out of "
           "the contract");
}

/// Actuation events (addWorker/removeWorker) of the manager, sim times.
std::vector<double> actuations(const bsk::support::EventLog& log) {
  std::vector<double> t;
  for (const char* n : {"addWorker", "removeWorker"})
    for (const auto& e : log.by_name(n)) t.push_back(e.time);
  std::sort(t.begin(), t.end());
  return t;
}

/// No-op sink for replaying recorded cycles through a bench-owned engine.
struct NullSink final : bsk::rules::OperationSink {
  void fire_operation(const std::string&, const std::string&) override {}
};

/// Bursts per pass when `passes` passes share a run of `seconds` (each pass
/// also spends kWarmup before and half a cycle after its bursts). A whole
/// run has at least 10.
int bursts_per_pass(double seconds, int passes) {
  const double sim = seconds * kClockScale / passes;
  return std::max(
      (10 + passes - 1) / passes,
      static_cast<int>((sim - kWarmup - 0.5 * kBurstCycle) / kBurstCycle));
}

}  // namespace

Result run_mape_workload(const Args& a) {
  Result r;
  bsk::support::ScopedClockScale scale(kClockScale);
  r.note("clock_scale", kClockScale);
  r.note("contract_lo", kLo);
  r.note("contract_hi", kHi);
  r.note("offered_rate_sim", kRate);
  r.note("open_rate_tasks_s", kRate * kClockScale);

  std::vector<double> setups;
  for (int i = 0; i < kSetupReps - 1; ++i) {
    auto m = build({{1e9, 1e9 + 1, 0.0}}, nullptr, false);
    setups.push_back(m->setup_s);
  }

  if (!a.trace) {
    const auto bursts = burst_schedule(a.seed, bursts_per_pass(a.seconds, 1));
    auto m = build(bursts, nullptr, false);
    setups.push_back(m->setup_s);
    Pass p = run_pass(*m, bursts, nullptr);
    check_pass(p, r, "stream");
    const Summary lat = summarize(recorded(p.lat_us));
    r.set("tput_tasks_s", p.tput);
    r.set("lat_p50_us", lat.p50);
    r.set("lat_p90_us", lat.p90);
    r.set("cpu_us_per_task", p.cpu_us_per_task);
    r.set("peak_rss_mb", self_peak_rss_mb());
    r.set("setup_s", median(setups));
    r.note("bursts", static_cast<double>(bursts.size()));
    r.note("react_p50_s", react_p50(p));
    r.note("sla_frac", sla_fraction(p.series, kLo, kHi, p.t0 + kWarmup));
    r.note("worker_s", p.worker_s);
    r.note("lat_samples", static_cast<double>(lat.n));
    r.note("lat_top_percentile", lat.top_p);
    r.note("lat_top_us", lat.top_value);
    r.note("loadgen_late_p99_us", summarize(p.late_us).p99);
    return r;
  }

  // ------------------------------------------------------------- traced
  // Half the run untraced (the overhead baseline), half traced.
  const int n = bursts_per_pass(a.seconds, 2);
  const auto bursts = burst_schedule(a.seed, n);
  double untraced_react = 0, untraced_cpu = 0;
  {
    auto m = build(bursts, nullptr, false);
    Pass p = run_pass(*m, bursts, nullptr);
    check_pass(p, r, "untraced stream");
    untraced_react = react_p50(p);
    untraced_cpu = p.cpu_us_per_task;
  }
  SpanRecorder spans(static_cast<std::size_t>(4 * kRate * n * kBurstCycle) + 4096);
  NodeTimings nt;
  nt.spans = &spans;
  nt.recording.store(true);
  auto m = build(bursts, &nt, true);
  bsk::obs::TraceLog::global().clear();
  Pass p = run_pass(*m, bursts, &spans);
  check_pass(p, r, "traced stream");
  const double traced_react = react_p50(p);

  // Control loop: sense lag and effect time per disturbed step.
  std::vector<bsk::support::json::Value> cycles;
  for (const std::string& line : bsk::obs::TraceLog::global().lines())
    if (auto v = bsk::support::json::parse(line);
        v && v->string_or("manager", "") == "AM_farm")
      cycles.push_back(std::move(*v));
  const std::vector<double> acts = actuations(m->log);
  std::vector<double> sense_lag, effect;
  for (const StepReaction& sr : p.reactions) {
    if (!sr.left) continue;
    const double until = sr.step_t + sr.react_s;
    for (const auto& c : cycles) {
      const double t = c.number_or("t", -1);
      const auto* actions = c.get("actions");
      bool actuated = false;
      if (actions && actions->is_array())
        for (const auto& act : actions->array) {
          const std::string nm = act.string_or("name", "");
          actuated |= nm == "addWorker" || nm == "removeWorker";
        }
      if (t >= sr.step_t && t <= until && actuated) {
        sense_lag.push_back(t - sr.step_t);
        break;
      }
    }
    double last = -1;
    for (double t : acts)
      if (t >= sr.step_t && t <= until) last = t;
    if (last >= 0 && sr.recovered) effect.push_back(until - last);
  }
  std::size_t acts_after_warm = 0;
  for (double t : acts)
    if (t >= p.t0 + kWarmup) ++acts_after_warm;

  // Rule-engine cost: replay every recorded bean snapshot through a
  // bench-owned engine loaded with the same rule text.
  bsk::rules::Engine engine;
  for (auto& rule : bsk::rules::parse_rules(bsk::am::farm_rules()))
    engine.add_rule(std::move(rule));
  const auto consts = m->mgr->constants_snapshot();
  NullSink sink;
  std::vector<double> cycle_us, rules_us;
  for (const auto& c : cycles) {
    cycle_us.push_back(1e6 * (c.number_or("tw_end", 0) - c.number_or("tw", 0)));
    const auto* beans = c.get("beans");
    if (!beans || !beans->is_object() || beans->object.empty()) continue;
    bsk::rules::WorkingMemory wm;
    for (const auto& [k, v] : beans->object)
      if (v.is_number()) wm.set(k, v.number);
    const double t0 = wall_now();
    engine.run_cycle(wm, consts, sink);
    rules_us.push_back(1e6 * (wall_now() - t0));
  }

  const auto self = spans.self_times_us();
  const auto self_of = [&](const char* nm) {
    const auto it = self.find(nm);
    return it == self.end() ? std::vector<double>{} : it->second;
  };
  r.set("rt.farm.push_us_p50", summarize(spans.durations_us("rt.farm.push")).p50);
  r.set("rt.farm.push_us_p99", summarize(spans.durations_us("rt.farm.push")).p99);
  r.set("rt.farm.residence_us_p50", summarize(self_of("task")).p50);
  r.set("rt.node.process_us_p50",
        summarize(spans.durations_us("rt.node.process")).p50);
  r.set("trace.lat_p50_us", summarize(recorded(p.lat_us)).p50);
  const CodecCost codec = measure_codec(make_task(1));
  r.set("net.wire.encode_ns", codec.encode_ns);
  r.set("net.wire.decode_ns", codec.decode_ns);
  r.set("net.wire.frame_bytes", codec.frame_bytes);
  r.set("am.sense_lag_s", median(sense_lag));
  r.set("am.effect_s", median(effect));
  r.set("am.actions_per_step",
        static_cast<double>(acts_after_warm) / static_cast<double>(p.steps.size()));
  r.set("am.cycles", static_cast<double>(cycles.size()));
  r.set("am.cycle_us_p50", median(cycle_us));
  r.set("rules.cycle_us_p50", median(rules_us));
  r.set("am.abc.sense_us_p50", median(m->timed_abc->sense_us()));
  r.set("am.abc.add_worker_us_p50", median(m->timed_abc->add_worker_us()));
  r.set("am.abc.remove_worker_us_p50", median(m->timed_abc->remove_worker_us()));
  r.set("react_p50_s", traced_react);
  r.set("sla_frac", sla_fraction(p.series, kLo, kHi, p.t0 + kWarmup));
  r.set("worker_s", p.worker_s);
  // Overhead as CPU per task: the workers sleep, so tracing shows in CPU,
  // while reaction times are quantized by the manager period and would
  // bury it in noise (both pairs are kept in the context).
  r.set("trace.overhead_frac",
        untraced_cpu > 0 ? (p.cpu_us_per_task - untraced_cpu) / untraced_cpu
                         : 0.0);
  r.set("loadgen.late_p99_us", summarize(p.late_us).p99);
  r.note("untraced_react_p50_s", untraced_react);
  r.note("untraced_cpu_us_per_task", untraced_cpu);
  r.note("traced_cpu_us_per_task", p.cpu_us_per_task);
  r.note("bursts", static_cast<double>(n));
  r.note("spans_recorded", static_cast<double>(spans.size()));
  if (!a.trace_dir.empty()) {
    const std::string path = a.trace_dir + "/" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".spans.jsonl";
    if (spans.write(path)) r.note("spans_file", path);
  }
  return r;
}

}  // namespace e2e
