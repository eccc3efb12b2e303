// In-process fleets: net::Daemons with clustering on, over loopback TCP.
//
// Covers the live self-assembly loop end to end — seed discovery, gossip
// convergence, weighted root election, graceful leave vs. suspicion
// eviction, re-election behind the epoch fence — plus convergence under
// bsk::net chaos fault injection and (where the environment allows it)
// zero-config UDP beacon discovery.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/fleet_peer.hpp"
#include "cluster/node.hpp"
#include "net/chaos.hpp"
#include "support/event_log.hpp"
#include "support/thread_annotations.hpp"

namespace bsk::cluster {
namespace {

ClusterOptions fast_opts(std::vector<net::Endpoint> seeds = {}) {
  ClusterOptions o;
  o.seeds = std::move(seeds);
  o.gossip_period_wall_s = 0.03;
  o.suspect_after = 3;
  o.handshake_timeout_wall_s = 1.0;
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
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

TEST(ClusterInproc, ThreeNodesConvergeAndElectHeaviestRoot) {
  Peer a(8, fast_opts());
  Peer b(4, fast_opts({a.ep()}));
  Peer c(2, fast_opts({a.ep()}));
  a.start();
  b.start();
  c.start();

  ASSERT_TRUE(all_converged({&a, &b, &c}, 3, 10.0));

  // Every node computes the same tree: the heaviest member is the root and
  // the two lighter ones hang under it (k=2).
  for (Peer* p : {&a, &b, &c}) {
    const HierarchyView h = p->node->hierarchy();
    EXPECT_EQ(h.root_key(), a.key());
    EXPECT_EQ(h.parent_of(b.key()), a.key());
    EXPECT_EQ(h.parent_of(c.key()), a.key());
  }
  // The epoch fence accepts the current tree and rejects a stale claim.
  EXPECT_TRUE(c.node->accepts_parent(a.key(), c.node->epoch()));
  EXPECT_FALSE(c.node->accepts_parent(a.key(), c.node->epoch() - 1));

  c.leave();
  b.leave();
  a.leave();
}

TEST(ClusterInproc, GracefulLeaveDeregistersWithoutEviction) {
  // Suspicion would need 50 consecutive failed dials (~1.5 s) to fire: far
  // slower than a Leave broadcast, yet well inside the convergence window —
  // so evictions()==0 below really means the Leave was honored, not that
  // suspicion lost a photo finish with the announcement.
  const auto patient = [](std::vector<net::Endpoint> seeds = {}) {
    ClusterOptions o = fast_opts(std::move(seeds));
    o.suspect_after = 50;
    return o;
  };
  Peer a(8, patient());
  Peer b(4, patient({a.ep()}));
  Peer c(2, patient({a.ep()}));
  a.start();
  b.start();
  c.start();
  ASSERT_TRUE(all_converged({&a, &b, &c}, 3, 10.0));

  // on_change runs on a's serve/gossip thread after the table lock drops:
  // count atomically and poll, do not assume it beat the view read.
  std::atomic<std::size_t> leaves_seen{0};
  a.node->set_on_change(
      [&](std::size_t, std::size_t left, const net::MembershipView&) {
        leaves_seen += left;
      });
  const std::string gone = c.key();
  c.leave();

  ASSERT_TRUE(all_converged({&a, &b}, 2, 5.0));
  const double cb_deadline = net::wall_now() + 2.0;
  while (leaves_seen.load() == 0 && net::wall_now() < cb_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(leaves_seen.load(), 1u);
  // Nobody had to suspect anything: the departure was announced, not
  // detected.
  EXPECT_EQ(a.node->evictions(), 0u);
  EXPECT_EQ(b.node->evictions(), 0u);
  if (a.node->evictions() + b.node->evictions() > 0)
    support::global_event_log().dump(std::cerr);
  // The tombstone travels with the view so slow gossip cannot resurrect.
  bool tombstoned = false;
  for (const net::Departed& d : a.node->view().departed)
    if (d.key == gone) tombstoned = true;
  EXPECT_TRUE(tombstoned);

  b.leave();
  a.leave();
}

TEST(ClusterInproc, RootCrashTriggersSuspicionEvictionAndReElection) {
  Peer a(8, fast_opts());
  Peer b(4, fast_opts({a.ep()}));
  Peer c(2, fast_opts({a.ep()}));
  a.start();
  b.start();
  c.start();
  ASSERT_TRUE(all_converged({&a, &b, &c}, 3, 10.0));
  const std::uint64_t old_epoch = c.node->epoch();
  ASSERT_EQ(c.node->hierarchy().root_key(), a.key());

  a.crash();

  ASSERT_TRUE(all_converged({&b, &c}, 2, 10.0));
  EXPECT_GE(b.node->evictions() + c.node->evictions(), 1u);
  // The next-heaviest node is the new root, on a strictly newer epoch.
  EXPECT_EQ(b.node->hierarchy().root_key(), b.key());
  EXPECT_EQ(c.node->hierarchy().root_key(), b.key());
  EXPECT_GT(c.node->epoch(), old_epoch);
  // Parent claims from the dead tree are fenced off; the new tree's are
  // accepted.
  EXPECT_FALSE(c.node->accepts_parent(a.key(), old_epoch));
  EXPECT_TRUE(c.node->accepts_parent(b.key(), c.node->epoch()));

  c.leave();
  b.leave();
}

TEST(ClusterInproc, GossipConvergesUnderChaosInjection) {
  // Every gossip dial goes through a FaultInjector: drops, duplicates, and
  // delays on the membership exchange itself. Anti-entropy must still
  // converge — a lost exchange is just a retried tick.
  net::ChaosSpec spec;
  spec.drop = 0.15;
  spec.dup = 0.1;
  spec.delay_prob = 0.3;
  spec.delay_s = 0.005;
  auto plan = std::make_shared<net::FaultPlan>(42, spec);

  support::Mutex inj_mu;
  std::vector<std::shared_ptr<net::FaultInjector>> injectors;
  std::atomic<int> dial_seq{0};
  const auto chaotic_connect =
      [&](const net::Endpoint& ep) -> std::shared_ptr<net::Transport> {
    net::TcpOptions tcp;
    tcp.connect_timeout_s = 0.25;
    tcp.connect_retries = 0;
    auto tp = net::TcpTransport::connect(ep.host, ep.port, tcp);
    if (!tp) return nullptr;
    // A distinct stream id per dial: the fault schedule must not replay
    // identically on every (short) gossip connection.
    auto inj = std::make_shared<net::FaultInjector>(
        std::move(tp), plan, "dial#" + std::to_string(dial_seq.fetch_add(1)));
    support::MutexLock lk(inj_mu);
    injectors.push_back(inj);
    return inj;
  };

  // Dropped exchanges count toward suspicion: give it headroom so chaos
  // does not evict a live member mid-test.
  ClusterOptions oa = fast_opts();
  oa.suspect_after = 8;
  oa.connect_fn = chaotic_connect;
  Peer a(8, std::move(oa));
  ClusterOptions ob = fast_opts({a.ep()});
  ob.suspect_after = 8;
  ob.connect_fn = chaotic_connect;
  Peer b(4, std::move(ob));
  ClusterOptions oc = fast_opts({a.ep()});
  oc.suspect_after = 8;
  oc.connect_fn = chaotic_connect;
  Peer c(2, std::move(oc));
  a.start();
  b.start();
  c.start();

  EXPECT_TRUE(all_converged({&a, &b, &c}, 3, 20.0));
  EXPECT_EQ(a.node->hierarchy().root_key(), a.key());

  c.leave();
  b.leave();
  a.leave();

  // The chaos layer really was in the path.
  net::ChaosStats sum;
  {
    support::MutexLock lk(inj_mu);
    for (const auto& inj : injectors) {
      const net::ChaosStats s = inj->chaos_stats();
      sum.frames_seen += s.frames_seen;
      sum.dropped += s.dropped;
      sum.duplicated += s.duplicated;
      sum.delayed += s.delayed;
    }
  }
  EXPECT_GT(sum.frames_seen, 0u);
  EXPECT_GT(sum.dropped + sum.duplicated + sum.delayed, 0u);
}

bool multicast_loopback_available() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = 0;
  ip_mreq mreq{};
  ::inet_pton(AF_INET, "239.255.77.77", &mreq.imr_multiaddr);
  mreq.imr_interface.s_addr = htonl(INADDR_LOOPBACK);
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::setsockopt(fd, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq, sizeof(mreq)) ==
          0;
  ::close(fd);
  return ok;
}

TEST(ClusterInproc, BeaconDiscoversPeersWithoutSeeds) {
  if (!multicast_loopback_available())
    GTEST_SKIP() << "no loopback multicast in this environment";

  // Same UDP beacon port, disjoint from other tests via the pid.
  const auto beacon =
      static_cast<std::uint16_t>(47000 + (::getpid() % 1000));
  ClusterOptions oa = fast_opts();
  oa.beacon_port = beacon;
  oa.beacon_period_wall_s = 0.05;
  ClusterOptions ob = fast_opts();
  ob.beacon_port = beacon;
  ob.beacon_period_wall_s = 0.05;

  Peer a(4, std::move(oa));
  Peer b(2, std::move(ob));
  a.start();
  b.start();

  // No seed list anywhere: discovery is the beacon, convergence is gossip.
  EXPECT_TRUE(all_converged({&a, &b}, 2, 10.0));
  EXPECT_EQ(b.node->hierarchy().root_key(), a.key());

  b.leave();
  a.leave();
}

}  // namespace
}  // namespace bsk::cluster
