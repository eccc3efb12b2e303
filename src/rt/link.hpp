#pragma once
// Link: cost and security state of one directed machine-to-machine edge.
//
// Factored out of Conduit so the farm can charge per-worker output costs
// without a channel per worker: each worker owns a Link describing its edge
// to the farm's home, where results leave the farm, while emitter→worker
// edges embed a Link inside a Conduit. charge() blocks for the simulated transfer time and counts
// *insecure exposures* — data messages sent over an unsecured untrusted
// link, the metric the Sec. 3.2 two-phase protocol eliminates.

#include <atomic>
#include <cstdint>

#include "sim/platform.hpp"
#include "support/clock.hpp"
#include "rt/task.hpp"

namespace bsk::rt {

/// Placement of a runtime node on the simulated platform.
struct Placement {
  const sim::Platform* platform = nullptr;  ///< null disables cost modelling
  sim::MachineId machine = 0;
};

/// Directed edge with communication cost and SSL state. Thread-safe.
/// charge()/secure() are virtual so transport-backed links (bsk::net) can
/// extend them with real wire behaviour while keeping the cost accounting.
class Link {
 public:
  Link() = default;
  virtual ~Link() = default;

  void set_endpoints(Placement from, Placement to) {
    from_ = from;
    to_ = to;
  }

  const Placement& from() const { return from_; }
  const Placement& to() const { return to_; }

  /// True when the edge crosses an untrusted domain.
  bool untrusted() const {
    return from_.platform != nullptr &&
           from_.platform->link_untrusted(from_.machine, to_.machine);
  }

  /// Charge the transfer cost of `t` (blocks for simulated time) and track
  /// insecure exposure. Control tasks travel free.
  virtual void charge(const Task& t) {
    if (!t.is_data()) return;
    msgs_.fetch_add(1, std::memory_order_relaxed);
    if (!from_.platform) return;
    const bool sec = secured_.load(std::memory_order_relaxed);
    if (untrusted() && !sec)
      insecure_msgs_.fetch_add(1, std::memory_order_relaxed);
    const double cost =
        from_.platform->comm_time(from_.machine, to_.machine, t.size_mb, sec);
    if (cost > 0.0) support::Clock::sleep_for(support::SimDuration(cost));
  }

  /// Secure the edge (idempotent). Charges the SSL handshake when the edge
  /// actually crosses an untrusted domain.
  virtual void secure() {
    if (secured_.exchange(true)) return;
    if (from_.platform) {
      const double hs =
          from_.platform->ssl_handshake_time(from_.machine, to_.machine);
      if (hs > 0.0) support::Clock::sleep_for(support::SimDuration(hs));
    }
  }

  bool secured() const { return secured_.load(std::memory_order_relaxed); }

  /// Data messages that crossed the edge unsecured while it was untrusted.
  std::uint64_t insecure_messages() const { return insecure_msgs_.load(); }

  /// Total data messages charged.
  std::uint64_t messages() const { return msgs_.load(); }

 private:
  Placement from_{};
  Placement to_{};
  std::atomic<bool> secured_{false};
  std::atomic<std::uint64_t> insecure_msgs_{0};
  std::atomic<std::uint64_t> msgs_{0};
};

}  // namespace bsk::rt
