#pragma once
// Default gossip-protocol tuning, defined once. ClusterOptions and
// GossipConfig take their defaults from here, and the manager's vocabulary
// (am/vocabulary.hpp) exposes the same values to rule programs as the
// CLUSTER_* constants. Header-only with no dependencies, so the am layer
// includes it without linking bsk_cluster.

#include <cstddef>

namespace bsk::cluster::defaults {

inline constexpr std::size_t kRootFanout = 4;
inline constexpr std::size_t kSuspectAfter = 3;
inline constexpr std::size_t kSuspectQueue = 8;
inline constexpr bool kDeltaGossip = true;

}  // namespace bsk::cluster::defaults
