#pragma once
// net::Daemon — the bsk worker daemon. bskd is a thin main around one;
// tests and tools run daemons in-process through the same class.
//
// Hosts farm workers for a parent process speaking the bsk::net wire
// protocol. One TCP connection per hosted worker: the parent's
// RemoteWorkerNode connects, handshakes (Hello/HelloAck), then streams
// TaskMsg frames; the daemon runs each task through the node kind the
// handshake requested and replies with a ResultMsg (a WorkerDone-kind reply
// marks a filtered task). The daemon beats a heartbeat every
// `heartbeat_wall_s` (from the Hello) on each worker connection so the
// parent's failure detector can tell a long-running task from a dead peer.
//
// Architecture: one edge-triggered epoll loop (EpollServer) owns every
// connection — accept, framing, heartbeats, and flow control all happen on
// that single thread, so the daemon holds thousands of connections with a
// bounded thread count. Work that can block (task execution holds the
// session lock for the task's duration) runs on a lazily-grown executor
// pool capped by `workers`: each connection owns an ordered inbox of work
// items (handshake, frames, close) that at most one executor drains at a
// time, preserving per-connection ordering without a thread per connection.
//
// Colocated fast path: a Hello carrying want_shm makes the daemon create a
// named shared-memory segment (ShmTransport::create_named) and advertise it
// in the HelloAck; the client attaches and task/result frames then bypass
// the kernel entirely. The TCP connection stays open as the anchor —
// heartbeats and Leave still travel over it, and its death closes the shm
// session.
//
// Reliability: tasks carry sequence numbers; the daemon executes each
// sequence at most once and keeps a bounded cache of recent results, so a
// retransmitted task (lost TaskMsg, lost ResultMsg, or duplication on a
// faulty wire) gets its cached result resent instead of re-executing. A
// connection that dies without a Shutdown parks its session for
// `session_linger_s` seconds: a client reconnecting with the session id
// (and the right epoch — stale zombies are fenced) re-attaches the same
// worker node and the same dedup state, so a transient partition costs a
// replay of unacked tasks, not a worker replacement.
//
// Observability: a connection whose Hello carries role 2 is a *stats
// channel* — it gets StatsReq/StatsRep RPC service instead of a worker
// session, answering with this process's Prometheus exposition, metrics
// JSONL, or decision-trace JSONL (spans + event log), so a parent process
// can fold the daemon's half of the story into one merged trace. A role-2
// channel also answers MembershipReq with the live cluster view.
//
// Clustering (bsk::cluster): with `clustering` on, the daemon runs a
// ClusterNode gossiping its membership record — host:port plus the node
// weight (cores × core_speed) the weighted hierarchy election ranks on.
// Role-3 connections are gossip exchanges; on an orderly stop the daemon
// broadcasts a Leave frame so peers deregister it immediately instead of
// waiting out the suspicion window.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/node.hpp"
#include "net/epoll_server.hpp"
#include "net/wire.hpp"
#include "support/thread_annotations.hpp"

namespace bsk::net {

/// bskd's command line: one field per flag, except --port-file and
/// --trace-file, which bskd's main handles itself.
struct DaemonOptions {
  std::uint16_t port = 0;          ///< --port; 0 binds an ephemeral port
  double session_linger_s = 10.0;  ///< --session-linger
  std::size_t workers = 64;        ///< --workers: executor thread cap
  /// --cluster (implied by --join and --beacon): run a ClusterNode.
  bool clustering = false;
  /// --join seeds, --fanout, --beacon, --gossip-period, --gossip-full.
  cluster::ClusterOptions cluster_opts;
  /// --cores and --core-speed: this node's weight in the fleet election.
  std::uint32_t cores = std::max(1u, std::thread::hardware_concurrency());
  double core_speed = 1.0;
};

/// One obs snapshot of this process as text — what a StatsRep carries.
std::string stats_text(StatsRequest::What what);

class ShmTransport;
struct Session;
class SessionRegistry;
class ExecutorPool;

class Daemon final : private EpollServer::Handler {
 public:
  /// Binds the listener and, with clustering on, builds the ClusterNode
  /// (its wire identity is the bound port). No thread runs before start().
  explicit Daemon(DaemonOptions opts);
  /// A daemon destroyed without stop() goes away like a crashed process.
  ~Daemon() override;

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// False when the listener could not bind.
  bool valid() const { return server_->valid(); }
  std::uint16_t port() const { return server_->port(); }
  /// The fleet-membership engine; null when clustering is off.
  cluster::ClusterNode* cluster_node() const { return cluster_.get(); }

  /// Start serving: the epoll loop, then the gossip.
  void start();

  /// Drop sessions parked longer than the linger — the client's grace
  /// window has certainly closed; it will have recruited a replacement.
  void reap();

  /// Stop serving. An orderly stop (bskd's SIGTERM path) says goodbye to
  /// live sessions, so their clients fail over at once instead of burning
  /// a grace window, and broadcasts a Leave to cluster peers. Otherwise
  /// nobody is told, as when a process crashes. Idempotent.
  void stop(bool orderly = true);

 private:
  using ConnId = EpollServer::ConnId;
  struct Item;
  struct ConnState;

  // Loop-thread callbacks: enqueue and get out of the way.
  void on_hello(ConnId c, const Hello& h) override;
  void on_frame(ConnId c, Frame&& f) override;
  void on_closed(ConnId c) override;

  std::shared_ptr<ConnState> find(ConnId c);
  void schedule(const std::shared_ptr<ConnState>& cs);
  void pump(const std::shared_ptr<ConnState>& cs);
  void process(ConnState& cs, Item& it);
  void handle_hello(ConnState& cs, const Hello& hello);

  /// One frame of a worker session, from either carrier (the TCP
  /// connection or the shm ring). False once a Shutdown ended the session.
  bool session_frame(const std::shared_ptr<Session>& s, std::uint32_t epoch,
                     ConnId conn, const Frame& f);
  void role2_frame(ConnState& cs, const Frame& f);
  void role3_frame(ConnState& cs, const Frame& f);

  void serve_shm_async(std::shared_ptr<Session> s,
                       std::shared_ptr<ShmTransport> shm, std::uint32_t epoch,
                       ConnId conn);
  void serve_shm(const std::stop_token& st, const std::shared_ptr<Session>& s,
                 const std::shared_ptr<ShmTransport>& shm, std::uint32_t epoch,
                 ConnId conn);

  const double linger_s_;
  /// Set first thing in stop(): a connection closing from then on retires
  /// its session instead of parking it.
  std::atomic<bool> stopping_{false};
  std::unique_ptr<ExecutorPool> pool_;
  std::unique_ptr<SessionRegistry> registry_;
  std::unique_ptr<EpollServer> server_;
  std::unique_ptr<cluster::ClusterNode> cluster_;

  mutable support::Mutex conns_mu_{"bskd.conns"};
  std::map<ConnId, std::shared_ptr<ConnState>> conns_
      BSK_GUARDED_BY(conns_mu_);

  support::Mutex shm_mu_{"bskd.shm"};
  std::vector<std::jthread> shm_threads_ BSK_GUARDED_BY(shm_mu_);
};

}  // namespace bsk::net
