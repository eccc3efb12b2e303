#pragma once
// Single-threaded online statistics: Welford mean/variance (OnlineStats),
// a sliding-window event-rate estimator over explicit timestamps
// (RateEstimator, the rate sensor of the DES farm model), and the population
// variance behind QueueVarianceBean (rt::Farm). None of these is
// thread-safe; the threaded farm's concurrent rate sensor is
// obs::AtomicRateWindow.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <vector>

#include "support/clock.hpp"

namespace bsk::support {

/// Incremental mean/variance via Welford's algorithm.
class OnlineStats {
 public:
  void add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  void reset() { *this = OnlineStats{}; }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  /// Merge another summary into this one (parallel Welford combination).
  void merge(const OnlineStats& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double d = o.mean_ - mean_;
    const auto n1 = static_cast<double>(n_);
    const auto n2 = static_cast<double>(o.n_);
    mean_ += d * n2 / (n1 + n2);
    m2_ += o.m2_ + d * d * n1 * n2 / (n1 + n2);
    n_ += o.n_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Sliding-window event-rate estimator over explicit timestamps.
///
/// record() stamps an event; rate() returns events/second over the last
/// `window` seconds. des::DesFarm feeds the paper's ArrivalRateBean /
/// DepartureRateBean from two of these.
class RateEstimator {
 public:
  explicit RateEstimator(SimDuration window = SimDuration(10.0))
      : window_(window) {}

  void record(SimTime t) {
    events_.push_back(t);
    evict(t);
  }

  /// Events per simulated second over the trailing window ending at `now`.
  double rate(SimTime now) const {
    const SimTime lo = now - window_.count();
    std::size_t n = 0;
    for (auto it = events_.rbegin(); it != events_.rend() && *it >= lo; ++it)
      ++n;
    return window_.count() > 0 ? static_cast<double>(n) / window_.count() : 0.0;
  }

  std::size_t total() const { return total_ + events_.size(); }

 private:
  void evict(SimTime now) {
    const SimTime lo = now - window_.count();
    while (!events_.empty() && events_.front() < lo) {
      events_.pop_front();
      ++total_;
    }
  }

  SimDuration window_;
  std::deque<SimTime> events_;
  std::size_t total_ = 0;
};

/// Population variance of a snapshot vector — used for the paper's
/// QueueVarianceBean (variance of per-worker queue lengths).
inline double population_variance(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double v = 0.0;
  for (double x : xs) v += (x - mean) * (x - mean);
  return v / static_cast<double>(xs.size());
}

}  // namespace bsk::support
