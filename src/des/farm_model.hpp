#pragma once
// DES models of the behavioural-skeleton patterns and their managers.
//
// The models share the *policy* layer with the threaded runtime: a
// DesFarmManager owns a real rules::Engine loaded with the same Fig. 5
// text (am::farm_rules()), fed with the same beans; only the mechanisms
// differ (event-driven queueing model instead of threads). This lets the
// scale ablations (bench/des_scale) claim they exercise the paper's
// policies, not a reimplementation of them.
//
// Model shape: a farm is a central-queue multi-server station (the
// on-demand scheduling limit of the runtime farm); a source is a
// constant-rate arrival process with a retunable rate (the incRate/decRate
// actuator); managers are periodic events.

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "des/kernel.hpp"
#include "rules/engine.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace bsk::des {

// ------------------------------------------------------------------ farm

struct DesFarmParams {
  double service_s = 1.0;          ///< per-task demand
  bool exponential_service = false;
  std::size_t initial_workers = 1;
  std::size_t max_workers = 1 << 20;
  double window_s = 10.0;
  std::uint64_t seed = 1;
};

/// Central-queue multi-server farm model with live resize.
class DesFarm {
 public:
  DesFarm(Simulator& sim, DesFarmParams p);

  /// Offer one task at the current simulation time.
  void offer();

  /// Actuators (mirroring rt::Farm's reconfiguration surface).
  void add_workers(std::size_t n);
  void remove_workers(std::size_t n);  ///< lazy: busy workers finish first

  /// Sensors.
  std::size_t workers() const { return target_workers_; }
  std::size_t max_workers() const { return p_.max_workers; }
  std::size_t queued() const { return queue_; }
  double arrival_rate() const { return arrivals_.rate(sim_.now()); }
  double departure_rate() const { return departures_.rate(sim_.now()); }
  std::uint64_t completed() const { return departures_.total(); }
  std::uint64_t offered() const { return arrivals_.total(); }

  /// Hook invoked at each task completion (wire stages together).
  std::function<void()> on_departure;

  /// History of (time, worker count) at every resize.
  const std::vector<std::pair<DesTime, std::size_t>>& worker_history() const {
    return history_;
  }

 private:
  void try_start();      // dispatch queued tasks onto idle workers
  void complete_one();   // service completion event

  double sample_service();

  Simulator& sim_;
  DesFarmParams p_;
  support::Rng rng_;
  std::size_t target_workers_;
  std::size_t busy_ = 0;
  std::size_t queue_ = 0;
  support::RateEstimator arrivals_;
  support::RateEstimator departures_;
  std::vector<std::pair<DesTime, std::size_t>> history_;
};

// ---------------------------------------------------------------- source

/// Constant-rate arrival process with a retunable rate; feeds a callback.
class DesSource {
 public:
  DesSource(Simulator& sim, double rate, std::uint64_t count,
            std::function<void()> deliver);

  void start();
  void set_rate(double r);
  double rate() const { return rate_; }
  bool done() const { return emitted_ >= count_; }

 private:
  void emit();

  Simulator& sim_;
  double rate_;
  std::uint64_t count_;
  std::uint64_t emitted_ = 0;
  std::function<void()> deliver_;
};

// --------------------------------------------------------------- manager

struct DesManagerParams {
  double period_s = 5.0;
  double contract_lo = 0.0;
  double contract_hi = std::numeric_limits<double>::infinity();
  std::size_t min_workers = 1;
  std::size_t max_workers = 1 << 20;
  std::size_t add_per_step = 2;
  double cooldown_s = 10.0;
  double warmup_s = 10.0;
};

/// Periodic farm manager driving a DesFarm with the Fig. 5 rule set —
/// the same text the threaded managers load.
class DesFarmManager {
 public:
  using ViolationHandler =
      std::function<void(const std::string& kind)>;

  DesFarmManager(Simulator& sim, DesFarm& farm, DesManagerParams p);

  void start();
  void stop();

  /// Re-contract at run time (hierarchical renegotiation): updates the
  /// throughput bounds and the derived rule constants.
  void set_contract(double lo, double hi);

  double contract_lo() const { return p_.contract_lo; }
  double contract_hi() const { return p_.contract_hi; }
  std::size_t max_workers() const { return p_.max_workers; }

  /// Parent hook (hierarchy): called on RAISE_VIOLATION.
  ViolationHandler on_violation;

  // Counters for the scale ablations.
  std::uint64_t cycles() const { return cycles_; }
  std::uint64_t adds() const { return adds_; }
  std::uint64_t removes() const { return removes_; }
  std::uint64_t violations() const { return violations_; }

  /// First simulation time the delivered rate entered the contract range
  /// (negative until it happens).
  DesTime converged_at() const { return converged_at_; }

 private:
  void cycle();

  class Sink;

  Simulator& sim_;
  DesFarm& farm_;
  DesManagerParams p_;
  rules::Engine engine_;
  rules::WorkingMemory wm_;
  rules::ConstantTable consts_;
  bool running_ = false;
  double suppressed_until_ = 0.0;
  std::uint64_t cycles_ = 0;
  std::uint64_t adds_ = 0;
  std::uint64_t removes_ = 0;
  std::uint64_t violations_ = 0;
  DesTime converged_at_ = -1.0;
};

}  // namespace bsk::des
