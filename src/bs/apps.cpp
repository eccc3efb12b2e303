#include "bs/apps.hpp"

namespace bsk::bs {

namespace {

rt::Placement platform_home(const sim::ResourceManager& rm) {
  return rt::Placement{&rm.platform(), 0};
}

}  // namespace

// ------------------------------------------------------------------ Fig. 3

Fig3App::Fig3App(const Fig3Params& p, sim::ResourceManager& rm,
                 support::EventLog& log)
    : params_(p) {
  const rt::Placement home = platform_home(rm);

  rt::FarmConfig fc;
  fc.initial_workers = p.initial_workers;
  fc.policy = rt::SchedPolicy::OnDemand;
  fc.reconfig_delay_s = p.reconfig_delay_s;
  fc.rate_window = support::SimDuration(p.rate_window_s);
  fc.worker_queue_capacity = p.tasks + 16;

  am::ManagerConfig mc;
  mc.period = support::SimDuration(p.am_period_s);
  mc.max_workers = p.max_workers;
  mc.action_cooldown_s = p.action_cooldown_s;
  mc.warmup_s = p.rate_window_s;

  auto source_bs = make_seq_bs(
      "producer",
      std::make_unique<rt::StreamSource>(
          p.tasks, p.input_rate,
          std::make_unique<sim::NormalService>(p.work_s, p.service_stddev_s,
                                               p.seed)),
      mc, home, &log);

  rt::NodeFactory wf = p.worker_factory
                           ? p.worker_factory
                           : [] { return std::make_unique<rt::SimComputeNode>(); };
  auto farm_bs = make_farm_bs("farm", fc, std::move(wf), mc, &rm, {}, home,
                              &log);
  farm_bs_ = farm_bs.get();
  farm_bs_->manager().constants().set(
      am::consts::kFarmAddWorkers,
      static_cast<double>(p.add_workers_per_step));

  auto sink_bs = make_seq_bs("consumer", std::make_unique<rt::StreamSink>(),
                             mc, home, &log);

  std::vector<std::unique_ptr<BehaviouralSkeleton>> kids;
  kids.push_back(std::move(source_bs));
  kids.push_back(std::move(farm_bs));
  kids.push_back(std::move(sink_bs));
  root_ = make_pipeline_bs("fig3", std::move(kids), mc, &log);
}

void Fig3App::start() {
  root_->start();
  // The user's SLA: at least 0.6 images/s, delivered to the farm manager —
  // the single manager of this experiment (the pipeline manager merely
  // forwards, as a pipeline's throughput is its slowest stage's).
  root_->manager().set_contract(
      am::Contract::min_throughput(params_.contract_min_rate));
}

void Fig3App::wait() { root_->wait(); }

rt::Farm& Fig3App::farm() {
  return dynamic_cast<rt::Farm&>(farm_bs_->runnable());
}

rt::StreamSink& Fig3App::sink() {
  auto& stage = dynamic_cast<rt::SeqStage&>(root_->child(2).runnable());
  return *stage.node_as<rt::StreamSink>();
}

std::size_t Fig3App::cores_in_use() {
  return am::cores_in_use(root_->runnable());
}

// ------------------------------------------------------------------ Fig. 4

Fig4App::Fig4App(const Fig4Params& p, sim::ResourceManager& rm,
                 support::EventLog& log)
    : params_(p) {
  const rt::Placement home = platform_home(rm);

  rt::FarmConfig fc;
  fc.initial_workers = p.initial_workers;
  fc.policy = rt::SchedPolicy::RoundRobin;  // paper's farm + BALANCE_LOAD
  fc.reconfig_delay_s = p.reconfig_delay_s;
  fc.rate_window = support::SimDuration(p.rate_window_s);
  fc.worker_queue_capacity = p.tasks + 16;

  am::ManagerConfig mc;
  mc.period = support::SimDuration(p.am_period_s);
  mc.max_workers = p.max_workers;
  mc.action_cooldown_s = p.action_cooldown_s;
  mc.warmup_s = p.rate_window_s;

  auto producer_bs = make_seq_bs(
      "producer",
      std::make_unique<rt::StreamSource>(p.tasks, p.initial_rate, p.work_s),
      mc, home, &log);

  auto farm_bs = make_farm_bs(
      "farm", fc, [] { return std::make_unique<rt::SimComputeNode>(); }, mc,
      &rm, {}, home, &log);

  auto consumer_bs = make_seq_bs(
      "consumer", std::make_unique<rt::StreamSink>(p.consumer_work_s), mc,
      home, &log);

  // AM_P: apply *rate* contracts (lo == hi, the incRate/decRate orders) to
  // the source; the range contract leaves the application-determined rate.
  {
    auto& am_p = producer_bs->manager();
    auto& abc_p = dynamic_cast<am::SeqAbc&>(producer_bs->abc());
    am_p.set_on_contract([&abc_p](const am::Contract& c) {
      if (c.throughput && c.throughput->first == c.throughput->second)
        abc_p.set_rate(c.throughput->first);
    });
  }

  std::vector<std::unique_ptr<BehaviouralSkeleton>> kids;
  kids.push_back(std::move(producer_bs));
  kids.push_back(std::move(farm_bs));
  kids.push_back(std::move(consumer_bs));
  root_ = make_pipeline_bs("app", std::move(kids), mc, &log);

  // AM_A's hierarchical policy (the paper's Sec. 4.2 narrative): convert
  // farm violations into producer-rate contracts while the stream lives.
  auto& am_a = root_->manager();
  am_a.set_violation_handler([this, &am_a](const am::ChildViolation& v) {
    if (am_a.stream_ended()) return;  // endStream: no significant action
    auto& src = producer_source();
    if (v.kind == am::payloads::kNotEnoughTasks) {
      const double nr = src.rate() * params_.inc_rate_factor;
      am_a.record("incRate", nr);
      am_p().set_contract(am::Contract::rate(nr));
    } else if (v.kind == am::payloads::kTooMuchTasks) {
      const double nr = src.rate() * params_.dec_rate_factor;
      am_a.record("decRate", nr);
      am_p().set_contract(am::Contract::rate(nr));
    }
  });
}

void Fig4App::install_contract() {
  root_->manager().set_contract(
      am::Contract::throughput_range(params_.contract_lo,
                                     params_.contract_hi));
}

void Fig4App::start() {
  root_->start();
  install_contract();
}

void Fig4App::wait() { root_->wait(); }

rt::Pipeline& Fig4App::pipeline() {
  return dynamic_cast<rt::Pipeline&>(root_->runnable());
}

rt::Farm& Fig4App::farm() {
  return dynamic_cast<rt::Farm&>(root_->child(1).runnable());
}

rt::StreamSource& Fig4App::producer_source() {
  auto& stage = dynamic_cast<rt::SeqStage&>(root_->child(0).runnable());
  return *stage.node_as<rt::StreamSource>();
}

rt::StreamSink& Fig4App::sink() {
  auto& stage = dynamic_cast<rt::SeqStage&>(root_->child(2).runnable());
  return *stage.node_as<rt::StreamSink>();
}

std::size_t Fig4App::cores_in_use() {
  return am::cores_in_use(root_->runnable());
}

}  // namespace bsk::bs
