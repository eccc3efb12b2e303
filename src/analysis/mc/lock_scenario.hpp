#pragma once
// lock_scenario: the `bsk-verify --locks` driver.
//
// Runs a real workload under the support::lock_order recorder — a live
// in-process fleet of net::Daemons with clustering on, the daemon bskd runs
// (gossip threads, epoll loops, executor pools, graceful leave), plus the
// channel / metrics / trace hot paths — then snapshots the class-level
// lock-acquisition graph and fails on any ordering cycle (see
// support/lock_order.hpp for why a cycle is a potential deadlock even if
// this particular run never blocked).
//
// `inversion_defect` seeds the classic bug on purpose: one thread takes
// two verifier-owned mutexes a→b, another path takes them b→a. The run
// itself cannot deadlock (the orders are sequential), but the graph gains
// both edges and the analysis must flag the cycle — the mutation fixture
// that proves the detector detects.

#include <cstddef>

#include "analysis/mc/explorer.hpp"
#include "support/lock_order.hpp"

namespace bsk::analysis::mc {

struct LockScenarioOptions {
  std::size_t fleet = 3;            ///< in-process cluster nodes
  double converge_deadline_s = 8.0; ///< wall budget for fleet convergence
  bool inversion_defect = false;    ///< seed an a->b / b->a cycle
};

struct LockScenarioResult {
  bool ok = true;  ///< acyclic graph (and the fleet actually converged)
  support::lock_order::Report report;
  bool converged = false;  ///< the workload exercised what it claims
};

LockScenarioResult run_lock_scenario(const LockScenarioOptions& opt);

}  // namespace bsk::analysis::mc
