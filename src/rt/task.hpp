#pragma once
// Stream items flowing through the skeleton runtime.
//
// A Task is a unit of the input stream: an opaque payload plus the metadata
// the runtime and the managers need — a sequence id (for ordered collection),
// the computational demand in reference-seconds (used by simulated compute
// nodes), a message size (used by the platform's communication cost model),
// and timestamps for latency accounting. Control tasks (poison pills,
// filtered-task markers) share the same type so they can travel the same
// channels.

#include <any>
#include <cstdint>
#include <utility>

#include "support/clock.hpp"

namespace bsk::rt {

/// Discriminates stream data from runtime control messages.
enum class TaskKind : std::uint8_t {
  Data,        ///< ordinary stream element
  Poison,      ///< tells one worker to drain and exit
  WorkerDone,  ///< wire reply marking a task the worker filtered out
};

/// One stream element (or control message).
struct Task {
  TaskKind kind = TaskKind::Data;
  std::uint64_t id = 0;       ///< source-assigned stream sequence number
  std::uint64_t order = 0;    ///< farm-emitter-assigned order for collection
  std::any payload;           ///< user data (opaque to the runtime)
  double work_s = 0.0;        ///< compute demand, reference-core seconds
  double size_mb = 0.1;       ///< message size for the comm-cost model
  support::SimTime created = 0.0;   ///< when the source emitted it
  support::SimTime completed = 0.0; ///< when the sink received it

  static Task poison() {
    Task t;
    t.kind = TaskKind::Poison;
    return t;
  }

  static Task worker_done() {
    Task t;
    t.kind = TaskKind::WorkerDone;
    return t;
  }

  static Task data(std::uint64_t id, double work_s, std::any payload = {}) {
    Task t;
    t.id = id;
    t.work_s = work_s;
    t.payload = std::move(payload);
    t.created = support::Clock::now();
    return t;
  }

  bool is_data() const { return kind == TaskKind::Data; }
};

}  // namespace bsk::rt
