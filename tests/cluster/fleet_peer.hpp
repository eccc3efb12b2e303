#pragma once
// Peer: one member of an in-process cluster fleet — a net::Daemon with
// clustering on, the same daemon `bskd --join` runs. Its listener is bound
// at construction, so ep() can seed the next peer before anything starts.

#include <cstdint>
#include <string>
#include <utility>

#include "cluster/node.hpp"
#include "net/daemon.hpp"

namespace bsk::cluster {

inline net::DaemonOptions fleet_member(std::uint32_t cores,
                                       ClusterOptions opts) {
  net::DaemonOptions o;
  o.clustering = true;
  o.cluster_opts = std::move(opts);
  o.cores = cores;
  return o;
}

struct Peer {
  net::Daemon daemon;
  ClusterNode* const node;

  Peer(std::uint32_t cores, ClusterOptions opts)
      : daemon(fleet_member(cores, std::move(opts))),
        node(daemon.cluster_node()) {}

  void start() { daemon.start(); }
  /// A crash: threads die, listener closes, nobody is told.
  void crash() { daemon.stop(/*orderly=*/false); }
  /// An orderly shutdown, as bskd does on SIGTERM: the listener closes,
  /// then the Leave broadcast goes out.
  void leave() { daemon.stop(); }
  std::string key() const { return node->self_key(); }
  /// This incarnation's `born` stamp, read from the node's own view.
  std::uint64_t born() const {
    for (const net::Member& m : node->view().members)
      if (m.key() == key()) return m.born;
    return 0;
  }
  net::Endpoint ep() const { return {"127.0.0.1", daemon.port()}; }
};

}  // namespace bsk::cluster
