// net::Daemon in-process: the daemon bskd runs, embedded in the test
// process with no fork. One daemon serves a worker session on each carrier
// (TCP and the shm ring share one role-1 frame handler), a stats pull, and
// a membership pull dialled the moment start() returns — the cluster node
// must already be in place when the first connection is served.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/client.hpp"
#include "net/daemon.hpp"
#include "net/worker_pool.hpp"
#include "obs/trace.hpp"
#include "rt/node.hpp"

namespace bsk::net {
namespace {

/// Push `n` tasks through `node` and collect every result id.
std::vector<std::uint64_t> run_tasks(rt::Node& node, int n) {
  std::vector<std::uint64_t> seen;
  for (int i = 0; i < n; ++i) {
    rt::Task t = rt::Task::data(static_cast<std::uint64_t>(i), 0.0,
                                std::string("p") + std::to_string(i));
    if (auto r = node.process(std::move(t))) seen.push_back(r->id);
  }
  while (auto r = node.flush()) seen.push_back(r->id);
  return seen;
}

TEST(Daemon, InProcessServesTcpShmStatsAndMembership) {
  DaemonOptions opts;
  opts.clustering = true;
  opts.cores = 3;
  Daemon daemon(std::move(opts));
  ASSERT_TRUE(daemon.valid());
  daemon.start();
  const Endpoint ep{"127.0.0.1", daemon.port()};

  // Role 2, MembershipReq: answered from the node built before the loop.
  const auto view = cluster::fetch_membership(ep);
  ASSERT_TRUE(view.has_value());
  ASSERT_EQ(view->members.size(), 1u);
  EXPECT_EQ(view->members[0].port, daemon.port());
  EXPECT_EQ(view->members[0].cores, 3u);

  // Role 1 over TCP.
  WorkerPoolOptions tcp_opts;
  tcp_opts.node_kind = "echo";
  tcp_opts.allow_shm = false;
  WorkerPool tcp_pool({ep}, tcp_opts);
  auto tcp_node = tcp_pool.make_node();
  ASSERT_EQ(tcp_pool.remote_nodes_created(), 1u);
  EXPECT_EQ(tcp_pool.shm_attached(), 0u);
  EXPECT_EQ(run_tasks(*tcp_node, 10).size(), 10u);

  // Role 1 over the shm ring, TCP kept as the anchor.
  WorkerPoolOptions shm_opts;
  shm_opts.node_kind = "echo";
  WorkerPool shm_pool({ep}, shm_opts);
  auto shm_node = shm_pool.make_node();
  ASSERT_EQ(shm_pool.remote_nodes_created(), 1u);
  EXPECT_EQ(shm_pool.shm_attached(), 1u);
  EXPECT_EQ(run_tasks(*shm_node, 10).size(), 10u);

  // Role 2, StatsReq.
  const auto text = pull_bskd_stats(ep, StatsRequest::What::Prometheus);
  ASSERT_TRUE(text.has_value());
  std::istringstream in(*text);
  std::string err;
  EXPECT_TRUE(obs::validate_prometheus_text(in, &err)) << err;

  tcp_node.reset();
  shm_node.reset();
  daemon.stop();
}

}  // namespace
}  // namespace bsk::net
