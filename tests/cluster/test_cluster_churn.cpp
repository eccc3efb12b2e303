// Membership churn at scale: a 64-node in-process fleet on loopback TCP,
// driven through interleaved joins, graceful leaves, and crashes.
//
// This is the E7 regression gate: the boot-storm fixes (jittered phases,
// bounded root fan-in, suspect re-probe queue) and delta gossip must hold
// up when the fleet is an order of magnitude bigger than the three-node
// tests — convergence inside a bound, no tombstone resurrection after the
// dust settles, and delta exchanges carrying the steady-state traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/fleet_peer.hpp"
#include "cluster/node.hpp"
#include "net/transport.hpp"

namespace bsk::cluster {
namespace {

ClusterOptions churn_opts(std::vector<net::Endpoint> seeds = {}) {
  ClusterOptions o;
  o.seeds = std::move(seeds);
  o.gossip_period_wall_s = 0.1;
  o.suspect_after = 6;  // churn headroom: one slow tick must not evict
  o.handshake_timeout_wall_s = 2.0;
  o.tcp.connect_timeout_s = 0.25;
  o.tcp.connect_retries = 0;
  return o;
}

bool all_converged(const std::vector<Peer*>& peers, std::size_t n,
                   double deadline_wall_s) {
  const double deadline = net::wall_now() + deadline_wall_s;
  while (net::wall_now() < deadline) {
    bool ok = true;
    std::uint64_t epoch0 = 0;
    for (std::size_t i = 0; i < peers.size(); ++i) {
      const net::MembershipView v = peers[i]->node->view();
      if (v.members.size() != n) {
        ok = false;
        break;
      }
      if (i == 0)
        epoch0 = v.epoch;
      else if (v.epoch != epoch0) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

// --------------------------------------------------------- boot-storm fix

TEST(ClusterChurn, BootPhasesSpreadAcrossTheGossipPeriod) {
  // 32 nodes constructed by one launcher in the same instant must not all
  // fire their first gossip tick together — the random initial phase is
  // the boot-storm fix, and it has to survive identical construction times
  // (the seed mixes in the object address, not just the clock).
  ClusterOptions o;
  o.gossip_period_wall_s = 0.5;
  o.jitter = 0.25;
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  std::set<double> phases;
  double lo = 1e9, hi = -1.0;
  for (int i = 0; i < 32; ++i) {
    net::Member self;
    self.host = "127.0.0.1";
    self.port = static_cast<std::uint16_t>(9000 + i);
    nodes.push_back(std::make_unique<ClusterNode>(self, o));
    const double p = nodes.back()->boot_phase_s();
    EXPECT_GE(p, 0.0);
    EXPECT_LT(p, o.gossip_period_wall_s);
    phases.insert(p);
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  // 32 i.i.d. uniform draws: all landing in one tenth of the period has
  // probability ~1e-31 — a collapse here means the seeds are correlated.
  EXPECT_GT(phases.size(), 16u);
  EXPECT_GT(hi - lo, 0.05);

  // jitter = 0 is the escape hatch for timing-exact tests: no phase at all.
  ClusterOptions exact = o;
  exact.jitter = 0.0;
  net::Member self;
  self.host = "127.0.0.1";
  self.port = 9999;
  ClusterNode plain(self, exact);
  EXPECT_EQ(plain.boot_phase_s(), 0.0);
}

// ------------------------------------------------- delta ≡ full, live path

TEST(ClusterChurn, DeltaGossipFleetConvergesLikeFullTableFleet) {
  // Two disjoint 8-node fleets, identical except for the gossip encoding:
  // both must converge, and the byte-saving one must actually have used
  // deltas (seed dials and digest-mismatch repairs are always full,
  // steady state is not).
  const auto build = [](bool delta) {
    auto fleet = std::make_unique<std::vector<std::unique_ptr<Peer>>>();
    for (int i = 0; i < 8; ++i) {
      ClusterOptions o = churn_opts(
          fleet->empty() ? std::vector<net::Endpoint>{}
                         : std::vector<net::Endpoint>{(*fleet)[0]->ep()});
      o.gossip_period_wall_s = 0.05;
      o.delta_gossip = delta;
      fleet->push_back(std::make_unique<Peer>(
          static_cast<std::uint32_t>(fleet->empty() ? 8 : 2), std::move(o)));
      fleet->back()->start();
    }
    return fleet;
  };
  auto with_delta = build(true);
  auto full_only = build(false);

  const auto raw = [](std::vector<std::unique_ptr<Peer>>& f) {
    std::vector<Peer*> v;
    for (auto& p : f) v.push_back(p.get());
    return v;
  };
  ASSERT_TRUE(all_converged(raw(*with_delta), 8, 30.0));
  ASSERT_TRUE(all_converged(raw(*full_only), 8, 30.0));

  // Let a few steady-state (no-change) rounds run: that is where deltas
  // replace full tables.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  std::uint64_t deltas = 0, fulls = 0, deltas_off = 0;
  for (auto& p : *with_delta) {
    deltas += p->node->delta_exchanges();
    fulls += p->node->full_exchanges();
  }
  for (auto& p : *full_only) deltas_off += p->node->delta_exchanges();
  EXPECT_GT(deltas, 0u);  // steady state really ran on deltas
  EXPECT_GT(fulls, 0u);   // and first contact really was a full table
  EXPECT_EQ(deltas_off, 0u);  // the off switch means off

  // Same converged shape on both protocols: every node sees every node.
  for (auto& p : *with_delta)
    for (auto& q : *with_delta)
      EXPECT_TRUE([&] {
        for (const net::Member& m : p->node->view().members)
          if (m.key() == q->key()) return true;
        return false;
      }()) << p->key() << " missing " << q->key();

  for (auto& p : *with_delta) p->leave();
  for (auto& p : *full_only) p->leave();
}

// ----------------------------------------------------------- churn at 64

TEST(ClusterChurn, SixtyFourNodesSurviveInterleavedJoinsLeavesAndCrashes) {
  constexpr std::size_t kFleet = 64;
  std::vector<std::unique_ptr<Peer>> peers;
  peers.reserve(kFleet + 4);

  // Seed first (heaviest → elected root), then the boot storm: everyone
  // started back-to-back against the same seed, phases jittered.
  peers.push_back(
      std::make_unique<Peer>(static_cast<std::uint32_t>(64), churn_opts()));
  peers[0]->start();
  for (std::size_t i = 1; i < kFleet; ++i) {
    peers.push_back(std::make_unique<Peer>(
        static_cast<std::uint32_t>(1 + (i % 4)), churn_opts({peers[0]->ep()})));
    peers.back()->start();
  }

  const auto live = [&](const std::vector<std::size_t>& skip = {}) {
    std::vector<Peer*> v;
    for (std::size_t i = 0; i < peers.size(); ++i)
      if (std::find(skip.begin(), skip.end(), i) == skip.end())
        v.push_back(peers[i].get());
    return v;
  };

  ASSERT_TRUE(all_converged(live(), kFleet, 90.0))
      << "boot storm failed to assemble at N=" << kFleet;

  // Interleave the churn: crash 3, gracefully retire 3, and admit 3 new
  // members, alternating so the table is absorbing joins and deaths at
  // the same time (the resurrection-prone window).
  const std::vector<std::size_t> crashed = {9, 21, 33};
  const std::vector<std::size_t> left = {14, 27, 40};
  // A dead peer is an incarnation, (key, born): a joiner that binds the
  // dead peer's recycled ephemeral port legitimately reuses its key under
  // a fresh `born`.
  std::vector<std::pair<std::string, std::uint64_t>> dead;
  for (std::size_t i = 0; i < 3; ++i) {
    dead.emplace_back(peers[crashed[i]]->key(), peers[crashed[i]]->born());
    peers[crashed[i]]->crash();
    dead.emplace_back(peers[left[i]]->key(), peers[left[i]]->born());
    peers[left[i]]->leave();
    peers.push_back(std::make_unique<Peer>(
        static_cast<std::uint32_t>(2), churn_opts({peers[0]->ep()})));
    peers.back()->start();
  }

  std::vector<std::size_t> gone = crashed;
  gone.insert(gone.end(), left.begin(), left.end());
  // 64 - 6 + 3 joiners = 61 members once every leave is gossiped and every
  // crash has ridden out the suspicion window.
  ASSERT_TRUE(all_converged(live(gone), kFleet - 3, 90.0))
      << "fleet failed to re-converge after churn";

  // No tombstone resurrection: hold for several gossip periods (slow
  // replicas of the dead records are still circulating) and re-check that
  // no dead incarnation reappears in any live view.
  for (int pass = 0; pass < 2; ++pass) {
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    for (Peer* p : live(gone)) {
      const net::MembershipView v = p->node->view();
      for (const net::Member& m : v.members)
        for (const auto& [key, born] : dead)
          EXPECT_FALSE(m.key() == key && m.born == born)
              << key << " born " << born << " resurrected in " << p->key()
              << " pass " << pass;
    }
  }

  // The graceful leavers travel as tombstones in the converged view.
  std::set<std::string> tombs;
  for (const net::Departed& d : peers[0]->node->view().departed)
    tombs.insert(d.key);
  for (std::size_t i : left)
    EXPECT_TRUE(tombs.count(peers[i]->key()))
        << "no tombstone for graceful leaver " << peers[i]->key();

  // Steady state at N=61 ran on deltas, not full tables.
  std::uint64_t deltas = 0;
  for (Peer* p : live(gone)) deltas += p->node->delta_exchanges();
  EXPECT_GT(deltas, 0u);

  for (Peer* p : live(gone)) p->leave();
}

}  // namespace
}  // namespace bsk::cluster
