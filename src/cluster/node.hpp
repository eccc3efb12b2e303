#pragma once
// ClusterNode: the self-assembly engine one bskd runs.
//
// Discovery + anti-entropy gossip over the existing wire protocol. Each
// gossip tick the node dials one or two peers — the elected root (views
// converge through the membership authority fastest) plus a rotating other
// member, or a seed while it still knows nobody — performs the role-3
// handshake, pushes a ClusterHello carrying its member record and full
// view, and merges the ClusterWelcome (the peer's merged view) that comes
// back. Membership is therefore eventually consistent with no coordinator:
// the hierarchy is recomputed locally from the converged view (see
// hierarchy.hpp), never negotiated.
//
// Failure detection: a member whose gossip dials fail `suspect_after`
// consecutive times is evicted (tombstoned at its incarnation, epoch
// bumped) and the departure propagates with the view. A graceful peer
// instead broadcasts a Leave frame on shutdown, so deregistration is
// immediate rather than waiting out the suspicion window.
//
// Optional UDP beacon (multicast on the loopback-reachable group
// 239.255.77.77): every beacon period the node announces `host:port` plus
// weight; listeners fold the sighting into their table and gossip fills in
// the rest. Purely additive to the seed list — environments without
// multicast lose nothing but zero-config discovery.
//
// Thread model: one gossip thread, one optional beacon thread, plus
// handle_frame() calls arriving on the daemon's executor threads (the
// net::Daemon that owns the node serves its role-3 connections). One mutex
// guards the table; everything heavy (dials, handshakes) happens outside
// it.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <deque>

#include "cluster/gossip_core.hpp"
#include "cluster/gossip_defaults.hpp"
#include "cluster/hierarchy.hpp"
#include "cluster/membership.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "net/worker_pool.hpp"  // net::Endpoint
#include "support/rng.hpp"
#include "support/thread_annotations.hpp"

namespace bsk::cluster {

struct ClusterOptions {
  std::vector<net::Endpoint> seeds;
  std::size_t fanout = 2;  ///< k of the elected k-ary hierarchy
  double gossip_period_wall_s = 0.1;
  /// Fractional ± jitter on every gossip/beacon period, plus a random
  /// initial phase in [0, period): N daemons started by one launcher must
  /// not beacon, dial the seed, and gossip in lockstep — at fleet scale a
  /// synchronized boot self-DoSes the seed node. 0 disables (tests that
  /// assert exact timing).
  double jitter = 0.25;
  /// Bound on how hard the fleet leans on the elected root: each tick the
  /// root is dialed with probability min(1, root_fanout/(members-1)), so
  /// the root absorbs ~root_fanout dials per period regardless of fleet
  /// size while convergence still biases through it.
  std::size_t root_fanout = defaults::kRootFanout;
  /// Delta gossip (digest + changed-records exchange) on by default. Off =
  /// the PR-6 full-table exchange on every dial — the equivalence tests and
  /// the E7c before/after comparison run both.
  bool delta_gossip = defaults::kDeltaGossip;
  /// Consecutive failed dials to a member before it is evicted.
  std::size_t suspect_after = defaults::kSuspectAfter;
  /// Bound on the re-probe queue: members whose dial failed are re-dialed
  /// ahead of the rotation (at most one per tick) so suspicion eviction
  /// latency stays ~suspect_after ticks instead of scaling with fleet
  /// size. The queue is bounded — a partition that kills half the fleet
  /// queues at most this many concurrent suspects per node. 0 disables.
  std::size_t suspect_queue = defaults::kSuspectQueue;
  double handshake_timeout_wall_s = 2.0;
  net::TcpOptions tcp{.connect_timeout_s = 0.5, .connect_retries = 0};
  /// UDP beacon discovery; nullopt disables.
  std::optional<std::uint16_t> beacon_port;
  double beacon_period_wall_s = 0.5;
  /// Dial seam: tests swap in chaos-wrapped (FaultInjector) or in-process
  /// transports. Default: TcpTransport::connect with `tcp`.
  std::function<std::shared_ptr<net::Transport>(const net::Endpoint&)>
      connect_fn;
};

class ClusterNode {
 public:
  /// `self.born` == 0 is stamped with a fresh incarnation automatically.
  ClusterNode(net::Member self, ClusterOptions opts = {});
  ~ClusterNode();

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// Start the gossip (and beacon, if configured) threads.
  void start();

  /// Stop the threads. With `broadcast_leave`, first tell every known peer
  /// we are going (immediate deregistration instead of suspicion).
  void stop(bool broadcast_leave = true);

  /// Process one frame of an inbound role-3 connection (the daemon calls
  /// this after the Hello/HelloAck exchange): a ClusterHello gossip
  /// exchange or a Leave notification. Fills `reply` when the frame
  /// warrants an answer (the ClusterWelcome of a gossip exchange). Returns
  /// false once the exchange is over (Shutdown). Cheap and non-blocking.
  bool handle_frame(const net::Frame& f, std::optional<net::Frame>& reply);

  // ------------------------------------------------------------- queries

  net::MembershipView view() const;
  HierarchyView hierarchy() const;  ///< elect() over the current view
  std::uint64_t epoch() const;
  std::size_t members() const;
  std::string self_key() const { return self_key_; }

  /// Epoch fence for parent claims (see HierarchyView::accepts_parent).
  bool accepts_parent(const std::string& key, std::uint64_t epoch) const;

  /// Fires on every membership change: (joined, left, view-after). Runs on
  /// whichever thread observed the change; must be cheap and reentrant.
  void set_on_change(
      std::function<void(std::size_t, std::size_t, const net::MembershipView&)>
          fn);

  std::uint64_t gossip_rounds() const { return gossip_rounds_.load(); }
  std::uint64_t evictions() const { return evictions_.load(); }
  /// Exchanges this node sent as full tables vs as deltas (both directions:
  /// hellos it dialed out and welcomes it replied with).
  std::uint64_t full_exchanges() const { return full_exchanges_.load(); }
  std::uint64_t delta_exchanges() const { return delta_exchanges_.load(); }
  /// The random initial gossip phase drawn at construction, in seconds —
  /// 0 when opts.jitter == 0 (the boot-storm regression asserts spread).
  double boot_phase_s() const { return boot_phase_s_; }

 private:
  void gossip_loop(const std::stop_token& st);
  void beacon_loop(const std::stop_token& st);
  void gossip_with(const net::Endpoint& ep, const std::string& member_key);
  std::shared_ptr<net::Transport> dial(const net::Endpoint& ep);
  void apply_delta(const MergeDelta& d);
  /// A peer's Leave, from a role-3 channel: tombstone it at once.
  void peer_left(const net::LeaveMsg& msg);
  void broadcast_leave();
  /// Record a beacon sighting / gossip sender introduction.
  void sighted(const net::Member& m);
  void note_dial_failed(const std::string& member_key);
  void forget_peer(const std::string& key) BSK_REQUIRES(mu_);
  /// One period scaled by ± opts.jitter.
  double jittered(double period_s, support::Rng& rng) const;
  /// sleep_for in small slices so stop() does not wait out a full period.
  static void interruptible_sleep(const std::stop_token& st, double s);

  net::Member self_;
  std::string self_key_;
  ClusterOptions opts_;

  mutable support::Mutex mu_{"ClusterNode"};
  /// The pure protocol state (table + per-peer delta sync + dial-failure
  /// streaks); every protocol decision goes through gossip_core so the
  /// model checker (analysis/mc) explores exactly the shipped logic.
  GossipState gs_ BSK_GUARDED_BY(mu_);
  /// Members with a recent failed dial, re-probed ahead of the rotation
  /// (bounded by opts.suspect_queue).
  std::deque<std::string> suspects_ BSK_GUARDED_BY(mu_);
  std::size_t rotate_ BSK_GUARDED_BY(mu_) = 0;
  std::function<void(std::size_t, std::size_t, const net::MembershipView&)>
      on_change_ BSK_GUARDED_BY(mu_);

  std::atomic<std::uint64_t> gossip_rounds_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> full_exchanges_{0};
  std::atomic<std::uint64_t> delta_exchanges_{0};
  std::atomic<bool> running_{false};
  std::uint64_t rng_seed_ = 0;
  double boot_phase_s_ = 0.0;

  std::jthread gossip_;
  std::jthread beacon_;
};

/// Stamp a fresh incarnation (strictly increasing across restarts of the
/// same endpoint, unique enough within one host).
std::uint64_t fresh_incarnation();

}  // namespace bsk::cluster
