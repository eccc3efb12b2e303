#include "des/farm_model.hpp"

#include "am/builtin_rules.hpp"
#include "am/vocabulary.hpp"
#include "rules/parser.hpp"

#include <cmath>

namespace bsk::des {

// ------------------------------------------------------------------ farm

DesFarm::DesFarm(Simulator& sim, DesFarmParams p)
    : sim_(sim),
      p_(p),
      rng_(p.seed),
      target_workers_(p.initial_workers ? p.initial_workers : 1),
      arrivals_(support::SimDuration(p.window_s)),
      departures_(support::SimDuration(p.window_s)) {
  history_.emplace_back(sim_.now(), target_workers_);
}

double DesFarm::sample_service() {
  return p_.exponential_service ? rng_.exponential(p_.service_s)
                                : p_.service_s;
}

void DesFarm::offer() {
  arrivals_.record(sim_.now());
  ++queue_;
  try_start();
}

void DesFarm::try_start() {
  while (queue_ > 0 && busy_ < target_workers_) {
    --queue_;
    ++busy_;
    sim_.schedule_in(sample_service(), [this] { complete_one(); });
  }
}

void DesFarm::complete_one() {
  --busy_;
  departures_.record(sim_.now());
  if (on_departure) on_departure();
  try_start();
}

void DesFarm::add_workers(std::size_t n) {
  target_workers_ = std::min(p_.max_workers, target_workers_ + n);
  history_.emplace_back(sim_.now(), target_workers_);
  try_start();
}

void DesFarm::remove_workers(std::size_t n) {
  target_workers_ = target_workers_ > n ? target_workers_ - n : 1;
  history_.emplace_back(sim_.now(), target_workers_);
  // Busy workers above the target finish their task and then idle out
  // naturally: try_start() never dispatches beyond target_workers_.
}

// ---------------------------------------------------------------- source

DesSource::DesSource(Simulator& sim, double rate, std::uint64_t count,
                     std::function<void()> deliver)
    : sim_(sim),
      rate_(rate > 0 ? rate : 1e-9),
      count_(count),
      deliver_(std::move(deliver)) {}

void DesSource::start() {
  if (count_ > 0) sim_.schedule_in(1.0 / rate_, [this] { emit(); });
}

void DesSource::set_rate(double r) {
  if (r > 0) rate_ = r;
}

void DesSource::emit() {
  if (emitted_ >= count_) return;
  ++emitted_;
  deliver_();
  if (emitted_ < count_) sim_.schedule_in(1.0 / rate_, [this] { emit(); });
}

// --------------------------------------------------------------- manager

/// Adapter mapping rule-fired operations onto DesFarm actuators.
class DesFarmManager::Sink final : public rules::OperationSink {
 public:
  Sink(DesFarmManager& m) : m_(m) {}

  void fire_operation(const std::string& op, const std::string& data) override {
    if (op == am::ops::kAddExecutor) {
      std::size_t n = m_.p_.add_per_step;
      if (const auto c = m_.consts_.get(data)) n = static_cast<std::size_t>(*c);
      m_.farm_.add_workers(n);
      ++m_.adds_;
      m_.suppressed_until_ = m_.sim_.now() + m_.p_.cooldown_s;
    } else if (op == am::ops::kRemoveExecutor) {
      m_.farm_.remove_workers(1);
      ++m_.removes_;
      m_.suppressed_until_ = m_.sim_.now() + m_.p_.cooldown_s;
    } else if (op == am::ops::kRaiseViolation) {
      ++m_.violations_;
      if (m_.on_violation) m_.on_violation(data);
    }
    // BALANCE_LOAD is a no-op: the central-queue model is always balanced.
  }

 private:
  DesFarmManager& m_;
};

DesFarmManager::DesFarmManager(Simulator& sim, DesFarm& farm,
                               DesManagerParams p)
    : sim_(sim), farm_(farm), p_(p) {
  for (rules::Rule& r : rules::parse_rules(am::farm_rules()))
    engine_.add_rule(std::move(r));
  set_contract(p_.contract_lo, p_.contract_hi);
  consts_.set(am::consts::kFarmMinNumWorkers,
              static_cast<double>(p_.min_workers));
  consts_.set(am::consts::kFarmMaxNumWorkers,
              static_cast<double>(p_.max_workers));
  // Central queue: never unbalanced.
  consts_.set(am::consts::kFarmMaxUnbalance, am::kUnbounded);
  consts_.set(am::consts::kFarmAddWorkers,
              static_cast<double>(p_.add_per_step));
}

void DesFarmManager::set_contract(double lo, double hi) {
  p_.contract_lo = lo;
  p_.contract_hi = hi;
  consts_.set(am::consts::kFarmLowPerfLevel, lo);
  consts_.set(am::consts::kFarmHighPerfLevel,
              std::isinf(hi) ? am::kUnbounded : hi);
}

void DesFarmManager::start() {
  running_ = true;
  suppressed_until_ = sim_.now() + p_.warmup_s;
  sim_.schedule_in(p_.period_s, [this] { cycle(); });
}

void DesFarmManager::stop() { running_ = false; }

void DesFarmManager::cycle() {
  if (!running_) return;
  ++cycles_;

  const double dep = farm_.departure_rate();
  const double arr = farm_.arrival_rate();
  wm_.set(am::beans::kArrivalRate, arr);
  wm_.set(am::beans::kDepartureRate, dep);
  wm_.set(am::beans::kNumWorker, static_cast<double>(farm_.workers()));
  wm_.set(am::beans::kQueueVariance, 0.0);
  wm_.set(am::beans::kQueueVariancePaper, 0.0);

  if (converged_at_ < 0.0 && dep >= p_.contract_lo && dep <= p_.contract_hi)
    converged_at_ = sim_.now();

  if (sim_.now() >= suppressed_until_) {
    Sink sink(*this);
    engine_.run_cycle(wm_, consts_, sink);
  }
  sim_.schedule_in(p_.period_s, [this] { cycle(); });
}

}  // namespace bsk::des
