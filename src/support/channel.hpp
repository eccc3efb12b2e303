#pragma once
// Bounded multi-producer / multi-consumer blocking channel.
//
// The general-purpose inter-node link of the skeleton runtime. Follows the
// Core Guidelines concurrency idioms: a mutex defined together with the data
// it guards, condition waits re-checked in a loop, RAII locks only. The lock
// discipline is machine-checked: the mutex is a support::Mutex capability and
// every guarded member carries BSK_GUARDED_BY, so the clang CI job
// (-Werror=thread-safety) rejects any access outside a critical section.
// Close semantics let a producer signal end-of-stream: after close(), pops
// drain remaining items then report Closed.
//
// The dataplane hot path uses the batched operations: push_n/pop_n move a
// whole batch under a single lock acquisition and a single notification,
// amortizing the mutex+CV round-trip that dominates per-item transfer cost
// (see bench/micro_runtime BM_ChannelBatchTransfer vs BM_ChannelPushPop).
// size() reads an atomic mirror of the queue depth maintained inside the
// critical sections, so schedulers and sensors polling queue lengths never
// contend on the channel mutex.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "support/clock.hpp"
#include "support/thread_annotations.hpp"

namespace bsk::support {

/// Result of a channel pop.
enum class ChannelStatus {
  Ok,       ///< item delivered
  Closed,   ///< channel closed and drained
  TimedOut  ///< timed pop expired
};

/// Bounded blocking MPMC FIFO channel.
///
/// Capacity 0 is normalized to 1. All operations are thread-safe.
template <typename T>
class Channel {
 public:
  explicit Channel(std::size_t capacity = 64)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Block until space is available, then enqueue. Returns false if the
  /// channel was closed (item is dropped).
  bool push(T item) {
    MutexLock lk(mu_);
    while (!closed_ && q_.size() >= capacity_) not_full_.wait(mu_);
    if (closed_) return false;
    q_.push_back(std::move(item));
    size_.fetch_add(1, std::memory_order_relaxed);
    lk.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking enqueue. Returns false when full or closed.
  bool try_push(T item) {
    {
      MutexLock lk(mu_);
      if (closed_ || q_.size() >= capacity_) return false;
      q_.push_back(std::move(item));
      size_.fetch_add(1, std::memory_order_relaxed);
    }
    not_empty_.notify_one();
    return true;
  }

  /// Timed enqueue waiting on the not-full condition. Moves from `item`
  /// only on Ok; on TimedOut/Closed the caller still owns it and can retry
  /// elsewhere (the farm's on-demand scheduler relies on this to wait for
  /// space without holding any scheduler lock). d <= 0 is a pure try.
  ChannelStatus push_for(T& item, SimDuration d) {
    MutexLock lk(mu_);
    if (d.count() <= 0.0) {
      if (closed_) return ChannelStatus::Closed;
      if (q_.size() >= capacity_) return ChannelStatus::TimedOut;
    } else {
      const auto deadline = std::chrono::steady_clock::now() + Clock::to_wall(d);
      while (!closed_ && q_.size() >= capacity_) {
        if (not_full_.wait_until(mu_, deadline) == std::cv_status::timeout &&
            !closed_ && q_.size() >= capacity_)
          return ChannelStatus::TimedOut;
      }
      if (closed_) return ChannelStatus::Closed;
    }
    q_.push_back(std::move(item));
    size_.fetch_add(1, std::memory_order_relaxed);
    lk.unlock();
    not_empty_.notify_one();
    return ChannelStatus::Ok;
  }

  /// Batched blocking enqueue: move every element of `items` into the
  /// channel under as few lock acquisitions as capacity allows. Blocks for
  /// space chunk by chunk; returns the number of items accepted (short only
  /// when the channel closes mid-push). Elements up to the returned count
  /// are moved-from; the rest are untouched.
  std::size_t push_n(std::vector<T>& items) {
    std::size_t pushed = 0;
    MutexLock lk(mu_);
    while (pushed < items.size()) {
      while (!closed_ && q_.size() >= capacity_) not_full_.wait(mu_);
      if (closed_) break;
      const std::size_t room = capacity_ - q_.size();
      const std::size_t take = std::min(room, items.size() - pushed);
      for (std::size_t i = 0; i < take; ++i)
        q_.push_back(std::move(items[pushed++]));
      size_.fetch_add(take, std::memory_order_relaxed);
      // Notify while looping: consumers must drain to make room for the
      // rest of the batch.
      if (take > 1)
        not_empty_.notify_all();
      else
        not_empty_.notify_one();
    }
    return pushed;
  }

  /// Block until an item is available or the channel is closed and drained.
  ChannelStatus pop(T& out) {
    MutexLock lk(mu_);
    while (!closed_ && q_.empty()) not_empty_.wait(mu_);
    if (q_.empty()) return ChannelStatus::Closed;
    out = std::move(q_.front());
    q_.pop_front();
    size_.fetch_sub(1, std::memory_order_relaxed);
    lk.unlock();
    not_full_.notify_one();
    return ChannelStatus::Ok;
  }

  /// Pop with a simulated-time timeout.
  ChannelStatus pop_for(T& out, SimDuration d) {
    MutexLock lk(mu_);
    const auto deadline = std::chrono::steady_clock::now() + Clock::to_wall(d);
    while (!closed_ && q_.empty()) {
      if (not_empty_.wait_until(mu_, deadline) == std::cv_status::timeout &&
          !closed_ && q_.empty())
        return ChannelStatus::TimedOut;
    }
    if (q_.empty()) return ChannelStatus::Closed;
    out = std::move(q_.front());
    q_.pop_front();
    size_.fetch_sub(1, std::memory_order_relaxed);
    lk.unlock();
    not_full_.notify_one();
    return ChannelStatus::Ok;
  }

  /// Batched blocking pop: wait until at least one item is available, then
  /// append up to `max` items to `out` under one lock acquisition.
  ChannelStatus pop_n(std::vector<T>& out, std::size_t max) {
    MutexLock lk(mu_);
    while (!closed_ && q_.empty()) not_empty_.wait(mu_);
    if (q_.empty()) return ChannelStatus::Closed;
    const std::size_t take = drain_locked(out, max);
    lk.unlock();
    notify_drained(take);
    return ChannelStatus::Ok;
  }

  /// Batched pop with a simulated-time timeout.
  ChannelStatus pop_n_for(std::vector<T>& out, std::size_t max,
                          SimDuration d) {
    MutexLock lk(mu_);
    const auto deadline = std::chrono::steady_clock::now() + Clock::to_wall(d);
    while (!closed_ && q_.empty()) {
      if (not_empty_.wait_until(mu_, deadline) == std::cv_status::timeout &&
          !closed_ && q_.empty())
        return ChannelStatus::TimedOut;
    }
    if (q_.empty()) return ChannelStatus::Closed;
    const std::size_t take = drain_locked(out, max);
    lk.unlock();
    notify_drained(take);
    return ChannelStatus::Ok;
  }

  /// Block until an item is queued (true) or the channel is closed and
  /// drained (false). Pops nothing, so a consumer can then take the items
  /// with try_pop_n_held under a lock of its own.
  bool wait_nonempty() {
    MutexLock lk(mu_);
    while (!closed_ && q_.empty()) not_empty_.wait(mu_);
    return !q_.empty();
  }

  /// Non-blocking batched pop; returns the number of items taken. They
  /// stay counted in size() until the consumer release()s them — for a
  /// consumer that stages a batch before working through it, so a depth
  /// sensor never sees a staged item counted nowhere.
  std::size_t try_pop_n_held(std::vector<T>& out, std::size_t max) {
    MutexLock lk(mu_);
    if (q_.empty()) return 0;
    const std::size_t take = drain_locked(out, max, /*hold=*/true);
    lk.unlock();
    notify_drained(take);
    return take;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::optional<T> out;
    {
      MutexLock lk(mu_);
      if (q_.empty()) return std::nullopt;
      out.emplace(std::move(q_.front()));
      q_.pop_front();
      size_.fetch_sub(1, std::memory_order_relaxed);
    }
    not_full_.notify_one();
    return out;
  }

  /// Close the channel: producers fail fast, consumers drain then see Closed.
  void close() {
    {
      MutexLock lk(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Reopen a closed channel (used when re-wiring a reconfigured skeleton).
  /// Wakes every blocked producer and consumer so they re-evaluate their
  /// conditions against the reopened state instead of sleeping on a
  /// notification that close() already consumed.
  void reopen() {
    {
      MutexLock lk(mu_);
      closed_ = false;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    MutexLock lk(mu_);
    return closed_;
  }

  /// Lock-free queue depth plus items taken by try_pop_n_held and not yet
  /// released (an atomic counter updated inside every critical section —
  /// exact whenever the channel is quiescent, and never more than one
  /// operation stale under contention).
  std::size_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Stop counting `n` items taken by try_pop_n_held.
  void release(std::size_t n) { size_.fetch_sub(n, std::memory_order_relaxed); }

  std::size_t capacity() const { return capacity_; }

  bool empty() const { return size() == 0; }

  /// Remove up to `n` items from the back of the queue (most recently
  /// enqueued first). Used by the farm load-balancer to redistribute queued
  /// tasks away from a backlogged worker.
  std::deque<T> steal_back(std::size_t n) {
    std::deque<T> out;
    {
      MutexLock lk(mu_);
      while (n-- > 0 && !q_.empty()) {
        out.push_front(std::move(q_.back()));
        q_.pop_back();
      }
      size_.fetch_sub(out.size(), std::memory_order_relaxed);
    }
    not_full_.notify_all();
    return out;
  }

 private:
  /// Move up to `max` queued items into `out` (queue known non-empty);
  /// returns the number taken. Caller unlocks, then notify_drained().
  std::size_t drain_locked(std::vector<T>& out, std::size_t max,
                           bool hold = false) BSK_REQUIRES(mu_) {
    const std::size_t take = std::min(max == 0 ? 1 : max, q_.size());
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(std::move(q_.front()));
      q_.pop_front();
    }
    if (!hold) size_.fetch_sub(take, std::memory_order_relaxed);
    return take;
  }

  void notify_drained(std::size_t take) {
    if (take > 1)
      not_full_.notify_all();
    else
      not_full_.notify_one();
  }

  const std::size_t capacity_;
  mutable Mutex mu_{"Channel"};
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> q_ BSK_GUARDED_BY(mu_);
  std::atomic<std::size_t> size_{0};
  bool closed_ BSK_GUARDED_BY(mu_) = false;
};

}  // namespace bsk::support
