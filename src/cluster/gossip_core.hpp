#pragma once
// gossip_core: the pure protocol heart of the anti-entropy exchange.
//
// ClusterNode (node.cpp) interleaves the gossip *protocol decisions* —
// what a hello carries, how a welcome is answered, when a peer is evicted
// — with locks, dials, timeouts and metrics. This header extracts the
// decisions into pure functions over a value-type `GossipState`, so the
// exact code the fleet runs is also the code `bsk-verify` (analysis/mc)
// explores exhaustively: every function here is
//
//   step(state, input) -> (state', output)
//
// with no I/O, no clocks, no locks. ClusterNode calls them under `mu_`;
// the model checker calls them on copied states along every interleaving.
//
// `GossipDefect` is the mutation-testing seam: a verification-only knob
// that re-introduces one historical class of protocol bug (tombstones not
// gossiped, an exclusive delta boundary, a skipped digest-mismatch
// repair). Production code always passes GossipDefect::None; the seeded
// fixture tests assert bsk-verify catches each defect.

#include <cstdint>
#include <map>
#include <string>

#include "cluster/gossip_defaults.hpp"
#include "cluster/membership.hpp"
#include "net/wire.hpp"

namespace bsk::cluster {

/// Per-peer delta-gossip bookkeeping: `sent_up_to` is OUR epoch whose
/// records the peer provably holds (a digest-agreed exchange, or a delta
/// we sent on top of one); the next delta resends everything stamped
/// >= it. First contact (`sent_up_to == 0`) is an optimistic *probe* —
/// self + digest, no records — because at fleet scale nearly every pair
/// meets for the first time inside a converged view where the peer
/// already has everything. `force_full`, set on digest mismatch,
/// upgrades the next exchange to the whole table — the repair path that
/// makes delta gossip converge exactly like the full-table protocol.
struct PeerSync {
  std::uint64_t sent_up_to = 0;
  bool force_full = false;
};

/// Seeded protocol defects for mutation-testing the verifier. Each one is
/// a bug class the real protocol had to get right; bsk-verify must flag
/// every one of them (tests/analysis gates this).
enum class GossipDefect : std::uint8_t {
  None = 0,
  /// Gossip payloads omit the departed (tombstone) records entirely:
  /// eviction news stops propagating and dead members resurrect.
  DropTombstones,
  /// `delta_since(since)` becomes exclusive (`since + 1`): records merge()
  /// stamped exactly at the acknowledged epoch are silently never resent.
  DeltaBoundary,
  /// Digest mismatch no longer schedules a full-table repair: a dropped
  /// welcome desynchronizes `sent_up_to` and the peer never recovers.
  SkipRepair,
};

struct GossipConfig {
  bool delta_gossip = defaults::kDeltaGossip;
  GossipDefect defect = GossipDefect::None;
};

/// The complete protocol-visible state of one gossiping node. Plain value
/// type: copyable (the explorer snapshots it per interleaving), comparable
/// through MembershipTable::view()/digest().
struct GossipState {
  MembershipTable table;
  std::map<std::string, PeerSync> peer_sync;
  /// Consecutive failed dials per member (reset on any successful dial).
  std::map<std::string, std::size_t> dial_failures;

  explicit GossipState(net::Member self) : table(std::move(self)) {}
};

struct HelloBuild {
  net::ClusterHelloMsg msg;
  /// Our epoch at build time — committed into `peer_sync.sent_up_to` only
  /// when the peer's welcome actually comes back (gossip_apply_welcome).
  std::uint64_t sent_epoch = 0;
};

/// Dialer, step 1: build the ClusterHello for `peer_key` (empty when
/// dialing a raw seed endpoint). Clears the peer's dial-failure count —
/// the dial itself succeeded.
HelloBuild gossip_build_hello(GossipState& st, const std::string& peer_key,
                              const GossipConfig& cfg);

struct WelcomeBuild {
  net::ClusterWelcomeMsg msg;
  MergeDelta delta;          ///< what the hello changed locally
  bool stale_epoch = false;  ///< hello carried an epoch older than ours
};

/// Replier: fold a received ClusterHello in (sender sighting + view merge)
/// and build the ClusterWelcome. `self_defend` is false only while the
/// node is deliberately leaving (see MembershipTable::merge).
WelcomeBuild gossip_handle_hello(GossipState& st,
                                 const net::ClusterHelloMsg& hello,
                                 bool self_defend, const GossipConfig& cfg);

struct WelcomeApply {
  MergeDelta delta;
  bool stale_epoch = false;
};

/// Dialer, step 2: fold the peer's ClusterWelcome in and commit the
/// delta-sync watermark captured at gossip_build_hello time.
WelcomeApply gossip_apply_welcome(GossipState& st, const std::string& peer_key,
                                  std::uint64_t sent_epoch,
                                  const net::ClusterWelcomeMsg& welcome,
                                  bool self_defend, const GossipConfig& cfg);

struct DialFailure {
  MergeDelta delta;
  bool evicted = false;  ///< failure streak hit `suspect_after`
  bool suspect = false;  ///< not yet evicted — caller may queue a re-probe
};

/// A dial to `member_key` failed (connect/handshake refused). Seeds
/// (empty key) are never evicted. On eviction the member is tombstoned
/// and its sync state forgotten.
DialFailure gossip_dial_failed(GossipState& st, const std::string& member_key,
                               std::size_t suspect_after);

/// Drop every per-peer record for `key` (it left, or we evicted it).
void gossip_forget_peer(GossipState& st, const std::string& key);

}  // namespace bsk::cluster
