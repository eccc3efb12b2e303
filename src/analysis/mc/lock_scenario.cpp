// lock_scenario: see lock_scenario.hpp.

#include "analysis/mc/lock_scenario.hpp"

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/node.hpp"
#include "net/daemon.hpp"
#include "net/transport.hpp"  // net::wall_now
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/channel.hpp"
#include "support/thread_annotations.hpp"

namespace bsk::analysis::mc {
namespace {

cluster::ClusterOptions fast_opts(std::vector<net::Endpoint> seeds = {}) {
  cluster::ClusterOptions o;
  o.seeds = std::move(seeds);
  o.gossip_period_wall_s = 0.03;
  o.suspect_after = 3;
  o.handshake_timeout_wall_s = 1.0;
  o.tcp.connect_timeout_s = 0.25;
  o.tcp.connect_retries = 0;
  return o;
}

/// One in-process fleet member: a daemon with clustering on, exactly as
/// `bskd --join` runs it.
std::unique_ptr<net::Daemon> fleet_member(std::uint32_t cores,
                                          cluster::ClusterOptions opts) {
  net::DaemonOptions o;
  o.clustering = true;
  o.cluster_opts = std::move(opts);
  o.cores = cores;
  return std::make_unique<net::Daemon>(std::move(o));
}

bool wait_converged(const std::vector<std::unique_ptr<net::Daemon>>& peers,
                    std::size_t n, double deadline_s) {
  const double deadline = net::wall_now() + deadline_s;
  while (net::wall_now() < deadline) {
    bool ok = true;
    for (const auto& p : peers)
      if (p->cluster_node()->members() != n) {
        ok = false;
        break;
      }
    if (ok) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// The support-layer hot paths the fleet alone does not cross: channel
/// producer/consumer handoff, metrics shards, trace log appends.
void exercise_support_paths() {
  support::Channel<int> ch(4);
  std::thread prod([&] {
    for (int i = 0; i < 64; ++i) ch.push(i);
    ch.close();
  });
  int v = 0;
  while (ch.pop(v) == support::ChannelStatus::Ok) {
    obs::MetricsRegistry::global()
        .counter("bsk_verify_lock_scenario_items_total")
        .inc();
  }
  prod.join();
  obs::MapeSpan span;
  span.manager = "bsk-verify";
  span.mode = "passive";
  obs::TraceLog::global().record(std::move(span));
}

/// The seeded defect: two verifier-owned named mutexes locked a->b on one
/// code path and b->a on another. Sequential, so the run cannot hang — but
/// the order graph gains both edges and the cycle detector must fire.
void seed_inversion() {
  static support::Mutex a("Verify.inversionA");
  static support::Mutex b("Verify.inversionB");
  {
    support::MutexLock la(a);
    support::MutexLock lb(b);
  }
  {
    support::MutexLock lb(b);
    support::MutexLock la(a);
  }
}

}  // namespace

LockScenarioResult run_lock_scenario(const LockScenarioOptions& opt) {
  LockScenarioResult out;
  support::lock_order::reset();
  support::lock_order::enable();

  {
    std::vector<std::unique_ptr<net::Daemon>> peers;
    peers.push_back(fleet_member(4, fast_opts()));
    const net::Endpoint seed{"127.0.0.1", peers[0]->port()};
    for (std::size_t i = 1; i < opt.fleet; ++i)
      peers.push_back(fleet_member(2, fast_opts({seed})));
    for (auto& p : peers) p->start();

    out.converged =
        wait_converged(peers, opt.fleet, opt.converge_deadline_s);

    exercise_support_paths();
    if (opt.inversion_defect) seed_inversion();

    // Graceful leave from the tail (exercises broadcast_leave + the
    // remaining nodes' merge paths), then stop the rest.
    peers.back()->stop();
    peers.pop_back();
    for (auto& p : peers) p->stop(/*orderly=*/false);
  }

  support::lock_order::disable();
  out.report = support::lock_order::report();
  out.ok = out.converged && out.report.ok();
  return out;
}

}  // namespace bsk::analysis::mc
