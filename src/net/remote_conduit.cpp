#include "net/remote_conduit.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/metrics.hpp"

namespace bsk::net {

namespace {

// Fault-tolerance path counters, summed across all remote workers.
struct ConduitObs {
  obs::Counter& reconnects = obs::counter(
      "bsk_net_reconnects_total", "successful reconnect handshakes");
  obs::Counter& resumes = obs::counter(
      "bsk_net_session_resumes_total",
      "reconnects where the server kept worker state (resumed=true)");
  obs::Counter& replaces = obs::counter(
      "bsk_net_session_replaces_total",
      "reconnects that restarted the session from scratch");
  obs::Counter& retransmits = obs::counter(
      "bsk_net_retransmits_total", "task frames re-sent (timeout or replay)");
  obs::Counter& credit_stalls = obs::counter(
      "bsk_net_credit_stalls_total",
      "sends that filled the credit window and had to await a result");
  obs::Counter& hard_failures = obs::counter(
      "bsk_net_worker_hard_failures_total",
      "remote workers declared crashed (grace window expired)");
};

ConduitObs& conduit_obs() {
  static ConduitObs o;
  return o;
}

}  // namespace

support::ChannelStatus RemoteConduit::pop_wall(rt::Task& out,
                                               double wall_seconds) {
  const bool bounded = wall_seconds >= 0.0;
  const double deadline = bounded ? wall_now() + wall_seconds : 0.0;
  Frame f;
  for (;;) {
    RecvStatus st;
    if (bounded) {
      const double left = deadline - wall_now();
      if (left <= 0.0) return support::ChannelStatus::TimedOut;
      st = tp_->recv_for(f, left);
    } else {
      st = tp_->recv(f);
    }
    if (st == RecvStatus::Closed) return support::ChannelStatus::Closed;
    if (st == RecvStatus::TimedOut) return support::ChannelStatus::TimedOut;

    if (f.type == recv_type_) {
      if (auto t = parse_task(f)) {
        out = std::move(*t);
        return support::ChannelStatus::Ok;
      }
      continue;  // malformed frame: drop, keep the stream alive
    }
    if (f.type == FrameType::SecureAck) {
      tp_->mark_secured();
      continue;
    }
    if (f.type == FrameType::Shutdown || f.type == FrameType::Leave) {
      tp_->close();
      return support::ChannelStatus::Closed;
    }
    // Unrelated frame type on this channel: ignore.
  }
}

void RemoteWorkerNode::mark_hard_failed() const {
  if (hard_failed_.exchange(true)) return;
  // A graceful goodbye (Leave frame) is a departure, not a crash: it must
  // not feed the endpoint quarantine or the hard-failure counter, or a
  // daemon draining at end of run would poison its own endpoint.
  const bool graceful = peer_left_.load(std::memory_order_relaxed);
  if (!graceful) conduit_obs().hard_failures.inc();
  {
    support::MutexLock lk(tp_mu_);
    tp_->close();
  }
  if (!graceful && opts_.on_hard_fail) opts_.on_hard_fail();
}

bool RemoteWorkerNode::failed() const {
  if (hard_failed_.load(std::memory_order_relaxed)) return true;
  const auto tp = transport_ptr();
  if (!transport_sick(*tp)) return false;
  if (!resumable()) {
    mark_hard_failed();
    return true;
  }
  // Transient-vs-crash: a sick connection starts (or continues) the grace
  // window; only its expiry is a failure. The worker thread races to resume
  // within the same window.
  double expected = -1.0;
  down_since_.compare_exchange_strong(expected, wall_now());
  const double since = down_since_.load(std::memory_order_relaxed);
  if (since >= 0.0 && wall_now() - since > opts_.reconnect_grace_wall_s) {
    mark_hard_failed();
    return true;
  }
  return false;
}

std::optional<rt::Task> RemoteWorkerNode::process(rt::Task t) {
  link_.charge(t);
  std::size_t in_flight;
  {
    // Stage the recovery copy *before* anything can fail: whatever happens
    // from here on — send failure, peer death, a monitor declaring us
    // crashed mid-call — the task is reachable through drain_unacked().
    support::MutexLock lk(mu_);
    const std::uint64_t seq = ++next_seq_;
    unacked_.push_back(PendingTask{seq, std::move(t), wall_now()});
    in_flight = unacked_.size();
  }
  if (hard_failed_.load(std::memory_order_relaxed)) return std::nullopt;
  bool sent = true;
  {
    // Zero-copy send straight from the staged recovery copy: the lock
    // keeps the entry alive under the serializer (the retransmit path
    // already sends under mu_, so there is no new lock-ordering edge).
    const auto tp = transport_ptr();
    support::MutexLock lk(mu_);
    if (!unacked_.empty()) {
      const PendingTask& p = unacked_.back();
      sent = tp->send_serialized(FrameType::TaskMsg, 1,
                                 [&p](std::size_t, wire::Writer& w) {
                                   w.u64(p.seq);
                                   put_task(w, p.task);
                                 });
    }
  }
  if (!sent) {
    // Send failure is a sick connection, not yet a crash: a successful
    // resume replays the staged task along with everything else unacked.
    if (!try_resume()) {
      mark_hard_failed();
      return std::nullopt;
    }
  }
  // Credit-based pipelining: keep up to credit_window tasks on the wire
  // before insisting on a result, overlapping transfer with the peer's
  // computation. The result returned belongs to the *oldest* in-flight
  // task, not to `t`; Task::order travels with it, so ordered collection
  // is unaffected. The farm calls flush() for the rest whenever the
  // worker's input is empty, and at end of stream.
  const std::size_t window = opts_.credit_window == 0 ? 1 : opts_.credit_window;
  if (in_flight < window) return std::nullopt;
  conduit_obs().credit_stalls.inc();
  return await_result();
}

std::optional<rt::Task> RemoteWorkerNode::await_result() {
  for (;;) {
    // Deliver the oldest task's result if it is already buffered (arrived
    // out of order behind a reordering fault or a resume replay).
    {
      support::MutexLock lk(mu_);
      if (unacked_.empty()) {
        // A monitor drained the recovery deque and re-offered the tasks
        // elsewhere; whatever arrives now is being re-executed. Discard to
        // keep result emission exactly-once.
        mark_hard_failed();
        return std::nullopt;
      }
      auto it = ready_.find(unacked_.front().seq);
      if (it != ready_.end()) {
        rt::Task r = std::move(it->second);
        ready_.erase(it);
        last_acked_ = unacked_.front().seq;
        unacked_.pop_front();
        if (r.kind == rt::TaskKind::WorkerDone) return std::nullopt;
        return r;
      }
    }
    if (hard_failed_.load(std::memory_order_relaxed)) return std::nullopt;

    Frame f;
    const auto tp = transport_ptr();
    switch (tp->recv_for(f, opts_.result_poll_wall_s)) {
      case RecvStatus::Ok: {
        if (f.type == FrameType::SecureAck) {
          tp->mark_secured();
          continue;
        }
        if (f.type == FrameType::Shutdown) {
          tp->close();
          continue;  // next iteration sees the sick connection
        }
        if (f.type == FrameType::Leave) {
          // Orderly peer departure: fail fast instead of burning the whole
          // reconnect grace window dialing a daemon that said goodbye.
          peer_left_.store(true, std::memory_order_relaxed);
          tp->close();
          continue;
        }
        if (f.type != FrameType::ResultMsg) continue;
        auto parsed = parse_task_seq(f);
        if (!parsed) continue;  // corrupt payload: graceful skip, protocol
                                // recovers by retransmitting the oldest
        const std::uint64_t seq = parsed->first;
        rt::Task r = std::move(parsed->second);

        support::MutexLock lk(mu_);
        if (unacked_.empty()) {
          mark_hard_failed();
          return std::nullopt;
        }
        switch (classify_result(unacked_, seq, r)) {
          case ResultClass::DeliverFront:
            last_acked_ = seq;
            unacked_.pop_front();
            if (r.kind == rt::TaskKind::WorkerDone) return std::nullopt;
            return r;
          case ResultClass::BufferAhead:
            ready_.emplace(seq, std::move(r));
            continue;
          case ResultClass::DuplicateBehind:
            // Behind the oldest: already delivered once. Suppress.
            dups_suppressed_.fetch_add(1, std::memory_order_relaxed);
            continue;
          case ResultClass::Poison:   // corrupt masquerade: not an ack
          case ResultClass::Orphan:   // matches nothing we sent
            continue;
        }
        continue;
      }
      case RecvStatus::Closed:
        if (!try_resume()) {
          mark_hard_failed();
          return std::nullopt;
        }
        continue;
      case RecvStatus::TimedOut: {
        if (transport_sick(*tp)) {
          if (!try_resume()) {
            mark_hard_failed();
            return std::nullopt;
          }
          continue;
        }
        // Connection healthy but the oldest task is silent: its TaskMsg or
        // ResultMsg was lost. Retransmit (the peer dedups by seq).
        if (opts_.retransmit_timeout_wall_s > 0.0) {
          support::MutexLock lk(mu_);
          if (!unacked_.empty() &&
              wall_now() - unacked_.front().last_sent >
                  opts_.retransmit_timeout_wall_s) {
            PendingTask& front = unacked_.front();
            front.last_sent = wall_now();
            tp->send_serialized(FrameType::TaskMsg, 1,
                                [&front](std::size_t, wire::Writer& w) {
                                  w.u64(front.seq);
                                  put_task(w, front.task);
                                });
            retransmits_.fetch_add(1, std::memory_order_relaxed);
            conduit_obs().retransmits.inc();
          }
        }
        continue;
      }
    }
  }
}

bool RemoteWorkerNode::try_resume() {
  if (!resumable()) return false;
  double expected = -1.0;
  down_since_.compare_exchange_strong(expected, wall_now());
  double backoff = opts_.reconnect_backoff_wall_s;

  while (!hard_failed_.load(std::memory_order_relaxed)) {
    const double since = down_since_.load(std::memory_order_relaxed);
    if (since < 0.0 || wall_now() - since > opts_.reconnect_grace_wall_s)
      return false;  // grace window closed: crash semantics take over

    if (auto fresh = opts_.reconnect(); fresh && !fresh->closed()) {
      Hello h = opts_.hello;
      ResumeFence fence{session_.load(std::memory_order_relaxed),
                        epoch_.load(std::memory_order_relaxed)};
      {
        support::MutexLock lk(mu_);
        fence.stamp(h, last_acked_);
      }
      HelloAck ack;
      if (client_handshake(*fresh, h, opts_.handshake_timeout_wall_s, &ack)) {
        // Post-handshake upgrade (e.g. the pool's colocated shm attach)
        // happens before the swap and before the replay, so replayed tasks
        // ride the upgraded path from the first frame.
        if (opts_.upgrade) {
          if (auto up = opts_.upgrade(fresh, ack)) fresh = std::move(up);
        }
        bool was_secured;
        {
          support::MutexLock lk(tp_mu_);
          was_secured = tp_->secured();
          tp_->close();
          tp_ = fresh;
          link_.set_transport(fresh);
        }
        fence.commit(ack);
        session_.store(fence.session, std::memory_order_relaxed);
        epoch_.store(fence.epoch, std::memory_order_relaxed);
        conduit_obs().reconnects.inc();
        if (ack.resumed) {
          resumes_.fetch_add(1, std::memory_order_relaxed);
          conduit_obs().resumes.inc();
        } else {
          conduit_obs().replaces.inc();
        }
        if (was_secured) {
          // The security contract survives the blip: re-upgrade before any
          // replayed task crosses the new connection.
          fresh->send(Frame{FrameType::SecureReq, {}});
          fresh->mark_secured();
        }
        // Replay everything unacked, serialized straight out of the pending
        // deque in one scatter/gather batch. The peer's seq dedup turns
        // replays of already-executed tasks into cached-result resends, so
        // this is safe whether the session resumed or restarted from scratch.
        {
          support::MutexLock lk(mu_);
          if (!unacked_.empty()) {
            const double now = wall_now();
            fresh->send_serialized(FrameType::TaskMsg, unacked_.size(),
                                   [this](std::size_t i, wire::Writer& w) {
                                     w.u64(unacked_[i].seq);
                                     put_task(w, unacked_[i].task);
                                   });
            for (PendingTask& p : unacked_) p.last_sent = now;
            retransmits_.fetch_add(unacked_.size(),
                                   std::memory_order_relaxed);
            conduit_obs().retransmits.inc(unacked_.size());
          }
        }
        down_since_.store(-1.0, std::memory_order_relaxed);
        return true;
      }
      fresh->close();
    }

    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    backoff = std::min(backoff * 2.0, opts_.reconnect_backoff_max_wall_s);
  }
  return false;
}

std::optional<rt::Task> RemoteWorkerNode::flush() {
  for (;;) {
    {
      support::MutexLock lk(mu_);
      if (unacked_.empty()) return std::nullopt;
    }
    if (hard_failed_.load(std::memory_order_relaxed)) return std::nullopt;
    if (auto r = await_result()) return r;
    // nullopt here is either a filtered task (keep draining) or a hard
    // failure (the next iteration exits; the farm recovers the leftovers
    // through drain_unacked()).
  }
}

std::vector<rt::Task> RemoteWorkerNode::drain_unacked() {
  support::MutexLock lk(mu_);
  std::vector<rt::Task> out;
  out.reserve(unacked_.size());
  for (PendingTask& p : unacked_) out.push_back(std::move(p.task));
  unacked_.clear();
  ready_.clear();  // buffered results belong to tasks now re-offered elsewhere
  return out;
}

bool client_handshake(Transport& tp, const Hello& hello,
                      double timeout_wall_s, HelloAck* ack_out) {
  if (!tp.send(make_hello(hello))) return false;
  const double deadline = wall_now() + timeout_wall_s;
  Frame f;
  for (;;) {
    const double left = deadline - wall_now();
    if (left <= 0.0) return false;
    if (tp.recv_for(f, left) != RecvStatus::Ok) return false;
    if (f.type != FrameType::HelloAck) continue;  // e.g. an early heartbeat
    const auto ack = parse_hello_ack(f);
    if (!ack) return false;
    if (ack_out) *ack_out = *ack;
    return ack->ok && ack->version == kProtocolVersion;
  }
}

bool server_handshake(Transport& tp, double timeout_wall_s,
                      std::uint64_t session, Hello* hello_out) {
  Frame f;
  if (tp.recv_for(f, timeout_wall_s) != RecvStatus::Ok) return false;
  if (f.type != FrameType::Hello) return false;
  const auto hello = parse_hello(f);
  HelloAck ack;
  ack.session = session;
  ack.ok = hello.has_value() && hello->magic == kMagic &&
           hello->version == kProtocolVersion;
  tp.send(make_hello_ack(ack));
  if (!ack.ok) return false;
  if (hello_out) *hello_out = *hello;
  return true;
}

}  // namespace bsk::net
