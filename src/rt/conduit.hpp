#pragma once
// Conduit: a bounded task channel between two placed runtime nodes.
//
// Couples a blocking Channel<Task> with a Link (communication cost + SSL
// state). Pushing a data task first charges the link's simulated transfer
// time, then enqueues. The farm's load balancer uses steal_back() to pull
// queued tasks out of a backlogged worker's conduit.
//
// The interface is virtual so transport-backed conduits (bsk::net's
// RemoteConduit) can substitute a real wire for the in-memory queue while
// the runtime keeps talking to the same abstraction.

#include <deque>
#include <memory>
#include <vector>

#include "support/channel.hpp"
#include "rt/link.hpp"
#include "rt/task.hpp"

namespace bsk::rt {

/// A directed, bounded, cost-modelled task queue.
class Conduit {
 public:
  explicit Conduit(std::size_t capacity = 1024) : ch_(capacity) {}
  virtual ~Conduit() = default;

  Conduit(const Conduit&) = delete;
  Conduit& operator=(const Conduit&) = delete;

  virtual void set_endpoints(Placement from, Placement to) {
    link().set_endpoints(from, to);
  }

  /// Blocking push with cost accounting. False when closed.
  virtual bool push(Task t) {
    link_.charge(t);
    return ch_.push(std::move(t));
  }

  /// Non-blocking push (still charges transfer cost). False when full/closed.
  virtual bool try_push(Task t) {
    link_.charge(t);
    return ch_.try_push(std::move(t));
  }

  /// Timed push waiting for space. Moves from `t` only on Ok, so a caller
  /// can retry a full queue elsewhere. Charges the link only on success
  /// (unlike try_push retry loops, which would re-charge every attempt).
  virtual support::ChannelStatus push_for(Task& t, support::SimDuration d) {
    const auto st = ch_.push_for(t, d);
    // Moved-from Task keeps its scalar cost fields (kind, size_mb), which
    // is all charge() reads.
    if (st == support::ChannelStatus::Ok) link_.charge(t);
    return st;
  }

  /// Batched blocking push: one lock+notify for the whole batch. Returns
  /// the number of tasks accepted (short only if the channel closed).
  virtual std::size_t push_n(std::vector<Task>& ts) {
    for (const Task& t : ts) link_.charge(t);
    return ch_.push_n(ts);
  }

  virtual support::ChannelStatus pop(Task& out) { return ch_.pop(out); }

  virtual support::ChannelStatus pop_for(Task& out, support::SimDuration d) {
    return ch_.pop_for(out, d);
  }

  /// Batched blocking pop: wait for at least one task, then drain up to
  /// `max` under one lock acquisition.
  virtual support::ChannelStatus pop_n(std::vector<Task>& out,
                                       std::size_t max) {
    return ch_.pop_n(out, max);
  }

  /// A farm worker's pop: wait for tasks, then take them under its own
  /// lock, counted in size() until release(n) so the queue-length sensors
  /// still see its staged batch.
  bool wait_nonempty() { return ch_.wait_nonempty(); }
  std::size_t try_pop_n_held(std::vector<Task>& out, std::size_t max) {
    return ch_.try_pop_n_held(out, max);
  }
  void release(std::size_t n) { ch_.release(n); }

  virtual support::ChannelStatus pop_n_for(std::vector<Task>& out,
                                           std::size_t max,
                                           support::SimDuration d) {
    return ch_.pop_n_for(out, max, d);
  }

  virtual void close() { ch_.close(); }
  virtual bool closed() const { return ch_.closed(); }
  virtual std::size_t size() const { return ch_.size(); }
  virtual std::size_t capacity() const { return ch_.capacity(); }

  /// Pull up to n tasks from the back of the queue (rebalancing). Remote
  /// conduits return an empty deque: tasks already committed to the wire
  /// cannot be recalled.
  virtual std::deque<Task> steal_back(std::size_t n) {
    return ch_.steal_back(n);
  }

  virtual Link& link() { return link_; }
  virtual const Link& link() const { return link_; }

 private:
  support::Channel<Task> ch_;
  Link link_;
};

using ConduitPtr = std::shared_ptr<Conduit>;

}  // namespace bsk::rt
