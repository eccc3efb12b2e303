#pragma once
// Pure measurement logic of the end-to-end benchmark: percentile reporting,
// exactly-once delivery checking, and step-reaction detection on sampled
// rate series. Header-only and free of runtime dependencies so the unit
// tests exercise exactly the code the workloads use.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace e2e {

// ------------------------------------------------------------ percentiles

/// Nearest-rank percentile of an ascending-sorted sample (p in [0, 100]).
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::min(rank, n);
}

/// The highest of the ladder 50, 90, 99, 99.9, ... that still has at least
/// `min_beyond` samples beyond it; 0 when not even the median qualifies.
inline double top_percentile(std::size_t n, std::size_t min_beyond = 10) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999})
    if (samples_beyond(n, p) >= min_beyond) best = p;
  return best;
}

/// Median, p90, p99 and the highest percentile the sample supports.
struct Summary {
  std::size_t n = 0;
  double p50 = 0, p90 = 0, p99 = 0;
  double top_p = 0;      ///< top_percentile(n)
  double top_value = 0;  ///< value at top_p
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = percentile_sorted(v, 50);
  s.p90 = percentile_sorted(v, 90);
  s.p99 = percentile_sorted(v, 99);
  s.top_p = top_percentile(v.size());
  s.top_value = s.top_p > 0 ? percentile_sorted(v, s.top_p) : 0.0;
  return s;
}

/// Nearest-rank q-quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 100.0 * q);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The entries of a per-task vector that were filled in (>= 0).
inline std::vector<double> recorded(const std::vector<double>& v) {
  std::vector<double> out;
  out.reserve(v.size());
  for (double x : v)
    if (x >= 0) out.push_back(x);
  return out;
}

/// The p-th percentile of each consecutive window of `per_window` samples.
/// Negative entries (no sample) are skipped; windows left with fewer than
/// 20 samples yield nothing.
inline std::vector<double> window_percentiles(const std::vector<double>& v,
                                              std::size_t per_window,
                                              double p) {
  std::vector<double> per;
  for (std::size_t i = 0; per_window > 0 && i < v.size(); i += per_window) {
    std::vector<double> w;
    for (std::size_t j = i; j < std::min(v.size(), i + per_window); ++j)
      if (v[j] >= 0) w.push_back(v[j]);
    if (w.size() < 20) continue;
    std::sort(w.begin(), w.end());
    per.push_back(percentile_sorted(w, p));
  }
  return per;
}

// --------------------------------------------------------- exactly-once

/// Checks a delivered id stream against the ids 0..n-1 that were sent:
/// every id exactly once, optionally in order.
class DeliveryCheck {
 public:
  /// `capacity` ids are allocated up front, so the checker's own memory
  /// does not depend on how far the stream got.
  explicit DeliveryCheck(std::size_t capacity = 0) : seen_(capacity, 0) {}

  /// Record one delivered id.
  void deliver(std::uint64_t id) {
    if (id >= kMaxId) {  // no stream this long is ever sent
      ++bogus_late_;
      ++delivered_;
      return;
    }
    if (id >= seen_.size()) seen_.resize(std::max<std::size_t>(id + 1, seen_.size() * 2), 0);
    if (seen_[id]) ++duplicates_;
    seen_[id] = 1;
    if (delivered_ > 0 && id != last_ + 1) ++out_of_order_;
    if (delivered_ == 0 && id != 0) ++out_of_order_;
    last_ = id;
    ++delivered_;
  }

  /// Finish against `sent` ids (0..sent-1). Ids at or beyond `sent` count
  /// as bogus deliveries.
  void finish(std::uint64_t sent) {
    lost_ = 0;
    for (std::uint64_t i = 0; i < sent; ++i)
      if (i >= seen_.size() || !seen_[i]) ++lost_;
    bogus_ = bogus_late_;
    for (std::size_t i = sent; i < seen_.size(); ++i)
      if (seen_[i]) ++bogus_;
  }

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t lost() const { return lost_; }
  std::uint64_t duplicates() const { return duplicates_; }
  std::uint64_t bogus() const { return bogus_; }
  /// Deliveries that did not directly follow their predecessor id.
  std::uint64_t out_of_order() const { return out_of_order_; }

  /// Tasks counted as failed: lost + duplicated + bogus, plus out-of-order
  /// deliveries when order must be preserved.
  std::uint64_t failures(bool ordered) const {
    return lost_ + duplicates_ + bogus_ + (ordered ? out_of_order_ : 0);
  }

 private:
  static constexpr std::uint64_t kMaxId = 1ull << 32;
  std::vector<std::uint8_t> seen_;
  std::uint64_t bogus_late_ = 0;
  std::uint64_t delivered_ = 0, duplicates_ = 0, out_of_order_ = 0;
  std::uint64_t lost_ = 0, bogus_ = 0;
  std::uint64_t last_ = 0;
};

// ------------------------------------------------------- step reaction

struct RateSample {
  double t = 0;     ///< simulated seconds
  double rate = 0;  ///< delivered throughput at t
};

/// How the sampled throughput answered one disturbance (a load step).
struct StepReaction {
  double step_t = 0;
  bool left = false;       ///< the series left the contract after the step
  bool recovered = false;  ///< ... and came back before the next step
  double left_t = 0;       ///< first out-of-contract sample
  double react_s = 0;      ///< step -> first in-contract sample after leaving
};

inline bool in_contract(double rate, double lo, double hi) {
  return rate >= lo && rate <= hi;
}

/// For each step time (ascending), find the first sample in [step, next
/// step) that is out of [lo, hi], then the first later sample back inside.
/// A step whose window ends still out of contract is censored: recovered is
/// false and react_s is the window length.
inline std::vector<StepReaction> detect_reactions(
    const std::vector<RateSample>& series, const std::vector<double>& steps,
    double lo, double hi, double end_t) {
  std::vector<StepReaction> out;
  for (std::size_t k = 0; k < steps.size(); ++k) {
    StepReaction r;
    r.step_t = steps[k];
    const double until = k + 1 < steps.size() ? steps[k + 1] : end_t;
    for (const RateSample& s : series) {
      if (s.t < r.step_t || s.t >= until) continue;
      if (!r.left) {
        if (!in_contract(s.rate, lo, hi)) {
          r.left = true;
          r.left_t = s.t;
        }
      } else if (in_contract(s.rate, lo, hi)) {
        r.recovered = true;
        r.react_s = s.t - r.step_t;
        break;
      }
    }
    if (r.left && !r.recovered) r.react_s = until - r.step_t;
    out.push_back(r);
  }
  return out;
}

/// Share of samples at or after `from_t` inside [lo, hi].
inline double sla_fraction(const std::vector<RateSample>& series, double lo,
                           double hi, double from_t) {
  std::size_t n = 0, in = 0;
  for (const RateSample& s : series) {
    if (s.t < from_t) continue;
    ++n;
    if (in_contract(s.rate, lo, hi)) ++in;
  }
  return n ? static_cast<double>(in) / static_cast<double>(n) : 0.0;
}

}  // namespace e2e
