#pragma once
// OrderedWindow: sliding-window reorder buffer for an ordered farm.
//
// Workers deliver their results, tagged with the emitter-assigned
// Task::order, under the farm's delivery lock. Delivery
// downstream must be in order. A std::map keyed by order gives O(log n)
// insert plus node allocation per task — measurable on that lock's hot
// path. This buffer instead keys a ring of `window` slots by
// `order % window`: O(1) insert, O(1) pop, zero steady-state allocation.
//
// An arrival beyond the current window (order >= next + window) grows the
// ring geometrically and re-seats the buffered tasks, so in-order delivery
// is never sacrificed to a fixed bound — growth is amortized O(1) and the
// ring stops growing once it covers the farm's actual reorder distance.
// Orders that will never arrive (a crashed worker's dropped tasks) are
// skipped by flush() at end of stream, exactly like the map-based buffer
// this replaces. A straggler already behind the delivery point
// (order < next) is emitted immediately rather than lost.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "rt/task.hpp"

namespace bsk::rt {

class OrderedWindow {
 public:
  /// `window` is the initial reorder capacity; 0 normalizes to 1.
  explicit OrderedWindow(std::size_t window)
      : slots_(window == 0 ? 1 : window) {}

  /// Insert one result; calls `emit(Task)` for every task that becomes
  /// deliverable in order (possibly none, possibly many).
  template <typename Emit>
  void push(Task t, Emit&& emit) {
    if (t.order < next_) {  // straggler behind the window: deliver, don't drop
      emit(std::move(t));
      return;
    }
    if (t.order >= next_ + slots_.size()) grow(t.order);
    auto& slot = slots_[t.order % slots_.size()];
    if (!slot) ++pending_;
    slot = std::move(t);  // duplicate order: the newer result wins
    while (pending_ > 0 && slots_[next_ % slots_.size()]) advance_one(emit);
  }

  /// Emit everything still buffered, in order, skipping gaps.
  template <typename Emit>
  void flush(Emit&& emit) {
    while (pending_ > 0) advance_one(emit);
  }

  /// The next order value the window is waiting to deliver.
  std::uint64_t next_order() const { return next_; }

  /// Buffered tasks not yet deliverable.
  std::size_t pending() const { return pending_; }

 private:
  /// Double the ring until `order` fits, re-seating buffered tasks at their
  /// new `order % size` positions.
  void grow(std::uint64_t order) {
    std::size_t w = slots_.size();
    while (order >= next_ + w) w *= 2;
    std::vector<std::optional<Task>> bigger(w);
    for (auto& s : slots_)
      if (s) {
        const std::size_t at = static_cast<std::size_t>(s->order % w);
        bigger[at] = std::move(s);
      }
    slots_ = std::move(bigger);
  }

  template <typename Emit>
  void advance_one(Emit&& emit) {
    auto& slot = slots_[next_ % slots_.size()];
    if (slot) {
      --pending_;
      Task t = std::move(*slot);
      slot.reset();
      emit(std::move(t));
    }
    ++next_;
  }

  std::vector<std::optional<Task>> slots_;
  std::uint64_t next_ = 0;
  std::size_t pending_ = 0;
};

}  // namespace bsk::rt
