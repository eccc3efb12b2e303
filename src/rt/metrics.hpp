#pragma once
// Thread-safe runtime metrics — the raw material of the ABC's sensors.
//
// Each skeleton instance owns a NodeMetrics; its threads record arrivals,
// departures, and service times, and the manager's monitor phase reads
// rates over a sliding simulated-time window. This is the C++ counterpart
// of what the paper's ABC "monitoring" interface exposes to the AM.
//
// Records land on every task the dataplane moves, so there is no mutex
// here: rates come from obs::AtomicRateWindow (lock-free bucketed sliding
// window) and means from obs::AtomicMean (sharded count/sum pairs). These
// are sensors feeding the control loop — functional, not optional — so they
// do not honor the obs::enabled() instrumentation gate.

#include "obs/metrics.hpp"
#include "support/clock.hpp"

namespace bsk::rt {

/// Aggregated, thread-safe counters and rate estimators for one skeleton.
class NodeMetrics {
 public:
  explicit NodeMetrics(support::SimDuration rate_window =
                           support::SimDuration(10.0))
      : arrivals_(rate_window.count()), departures_(rate_window.count()) {}

  void record_arrival() { arrivals_.record(support::Clock::now()); }

  void record_departure() { departures_.record(support::Clock::now()); }

  void record_service_time(double s) { service_.add(s); }

  /// Tasks/second entering the skeleton over the trailing window — the
  /// paper's ArrivalRateBean ("input pressure").
  double arrival_rate() const { return arrivals_.rate(support::Clock::now()); }

  /// Tasks/second leaving the skeleton — the paper's DepartureRateBean
  /// (delivered throughput).
  double departure_rate() const {
    return departures_.rate(support::Clock::now());
  }

  std::size_t total_arrivals() const {
    return static_cast<std::size_t>(arrivals_.total());
  }

  std::size_t total_departures() const {
    return static_cast<std::size_t>(departures_.total());
  }

  /// Mean observed per-task service time (seconds).
  double mean_service_time() const { return service_.mean(); }

  /// Callers quiesce recording threads first (reconfiguration barriers do).
  void reset() {
    arrivals_.reset();
    departures_.reset();
    service_.reset();
  }

 private:
  obs::AtomicRateWindow arrivals_;
  obs::AtomicRateWindow departures_;
  obs::AtomicMean service_;
};

}  // namespace bsk::rt
