#pragma once
// Transport-backed runtime adapters: the seam between rt::Farm and bsk::net.
//
// Three pieces, layered exactly like their local counterparts:
//
//   RemoteLink — an rt::Link whose secure() upgrades the underlying wire
//     connection (SecureReq; the peer confirms with SecureAck). Cost
//     accounting (simulated transfer and handshake time) stays in the base
//     class, so managers observe the same economics for local and remote
//     edges.
//
//   RemoteConduit — an rt::Conduit that sends pushed tasks as TaskMsg
//     frames and turns received ResultMsg frames back into tasks.
//     steal_back() returns nothing: tasks already committed to the wire
//     cannot be recalled (crash recovery instead replays the in-flight copy
//     kept on the parent side).
//
//   RemoteWorkerNode — an rt::Node whose computation lives in a peer
//     process (bskd). process() pipelines up to credit_window tasks onto
//     the wire before insisting on a result, so the round-trip latency is
//     amortized across the window instead of paid per task; the result it
//     returns then belongs to the *oldest* in-flight task (Task::order
//     travels with it, so ordered collection is unaffected). flush()
//     releases in-flight results one at a time: the farm calls it whenever
//     the worker's input runs dry, so a result never waits for
//     credit_window more arrivals, and at end of stream for the tail. The
//     window thus fills only while input is queued. The node owns the
//     crash-recovery copies of everything in flight (owns_recovery()): a
//     peer crash is recovered by draining the unacknowledged deque —
//     exactly once, because drains are destructive and the result path
//     discards results whose task a monitor already re-offered elsewhere.
//     failed() reports peer death — connection EOF or heartbeat silence —
//     which Farm::fail_crashed_workers() turns into WorkerFailureBean facts.
//
// Ordering note: SecureReq is sent on the same ordered stream as task
// frames, and the peer upgrades before reading anything sent after it — so
// "secured before any task reaches the worker" holds without blocking for
// the ack (which is absorbed whenever it arrives).

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/resume_core.hpp"
#include "net/transport.hpp"
#include "support/thread_annotations.hpp"
#include "net/wire.hpp"
#include "rt/conduit.hpp"
#include "rt/node.hpp"

namespace bsk::net {

/// Link over a live transport: secure() upgrades the wire channel.
class RemoteLink final : public rt::Link {
 public:
  explicit RemoteLink(std::shared_ptr<Transport> tp) : tp_(std::move(tp)) {}

  void secure() override {
    if (tp_ && !tp_->secured()) {
      tp_->send(Frame{FrameType::SecureReq, {}});
      tp_->mark_secured();
    }
    rt::Link::secure();  // idempotent; charges the simulated handshake
  }

  /// Session resume re-targets the link at the replacement connection.
  void set_transport(std::shared_ptr<Transport> tp) { tp_ = std::move(tp); }

 private:
  std::shared_ptr<Transport> tp_ BSK_GUARDED_BY(tp_mu_);
};

/// Conduit whose queue is a peer process reached through a Transport.
class RemoteConduit final : public rt::Conduit {
 public:
  explicit RemoteConduit(std::shared_ptr<Transport> tp,
                         FrameType send_type = FrameType::TaskMsg,
                         FrameType recv_type = FrameType::ResultMsg)
      : tp_(std::move(tp)),
        send_type_(send_type),
        recv_type_(recv_type),
        link_(tp_) {}

  bool push(rt::Task t) override {
    link_.charge(t);
    pushed_.fetch_add(1, std::memory_order_relaxed);
    // Zero-copy: serialize straight into the transport's send buffer (the
    // TCP/shm backends skip the intermediate Frame entirely; decorators
    // fall back to a materialized frame via the base default).
    return tp_->send_serialized(send_type_, 1,
                                [&t](std::size_t, wire::Writer& w) {
                                  w.u64(0);  // unsequenced
                                  put_task(w, t);
                                });
  }

  bool try_push(rt::Task t) override { return push(std::move(t)); }

  /// Batched push: serialize the whole batch into the transport's send
  /// buffer under one lock and one I/O wakeup, so the frames leave in as
  /// few segments as the kernel allows.
  std::size_t push_n(std::vector<rt::Task>& ts) override {
    if (ts.empty()) return 0;
    for (rt::Task& t : ts) link_.charge(t);
    pushed_.fetch_add(ts.size(), std::memory_order_relaxed);
    const bool ok = tp_->send_serialized(
        send_type_, ts.size(), [&ts](std::size_t i, wire::Writer& w) {
          w.u64(0);  // unsequenced
          put_task(w, ts[i]);
        });
    return ok ? ts.size() : 0;
  }

  support::ChannelStatus pop(rt::Task& out) override {
    return pop_wall(out, -1.0);
  }

  support::ChannelStatus pop_for(rt::Task& out,
                                 support::SimDuration d) override {
    const auto wall = std::chrono::duration_cast<
        std::chrono::duration<double>>(support::Clock::to_wall(d));
    return pop_wall(out, wall.count());
  }

  /// pop with a *wall*-seconds timeout (< 0 = block until closed).
  support::ChannelStatus pop_wall(rt::Task& out, double wall_seconds);

  void close() override {
    tp_->send(Frame{FrameType::Shutdown, {}});
    tp_->close();
  }
  bool closed() const override { return tp_->closed(); }

  /// Wire depth is not observable; report the tasks we have committed.
  std::size_t size() const override { return 0; }
  std::size_t capacity() const override { return 1; }

  /// Tasks on the wire cannot be recalled.
  std::deque<rt::Task> steal_back(std::size_t) override { return {}; }

  rt::Link& link() override { return link_; }
  const rt::Link& link() const override { return link_; }

  Transport& transport() { return *tp_; }
  std::uint64_t pushed() const { return pushed_.load(); }

 private:
  std::shared_ptr<Transport> tp_ BSK_GUARDED_BY(tp_mu_);
  FrameType send_type_;
  FrameType recv_type_;
  RemoteLink link_;
  std::atomic<std::uint64_t> pushed_{0};
};

/// Tuning knobs of a remote worker node.
struct RemoteNodeOptions {
  /// How often the result wait wakes up to re-check peer liveness.
  double result_poll_wall_s = 0.25;
  /// Peer silence (no frames, heartbeats included) past this marks the
  /// worker failed. <= 0 disables the heartbeat detector (EOF still fires).
  double liveness_timeout_wall_s = 2.0;
  /// Tasks kept in flight on the wire (credit-based pipelining). 1
  /// degenerates to the strict round-trip-per-task protocol; larger windows
  /// overlap transfer with remote computation. Purely client-side: the peer
  /// executes its FIFO serially and results acknowledge in send order.
  std::size_t credit_window = 4;

  // ------------------------------------------------- reconnect & resume
  /// How long a sick connection (EOF or heartbeat silence) is treated as a
  /// *transient partition* before the node hard-fails and the farm replaces
  /// it. 0 disables resume entirely: any failure is a crash (PR-1
  /// semantics). Requires `reconnect` to be set.
  double reconnect_grace_wall_s = 0.0;
  /// Exponential-backoff reconnect pacing inside the grace window.
  double reconnect_backoff_wall_s = 0.05;
  double reconnect_backoff_max_wall_s = 0.5;
  /// Oldest unacked task is retransmitted after this silence (lost TaskMsg
  /// or lost ResultMsg; the peer deduplicates by sequence number).
  double retransmit_timeout_wall_s = 2.0;
  double handshake_timeout_wall_s = 2.0;
  /// Dial a replacement connection to the *same* endpoint. Returning
  /// nullptr means "still unreachable" (the node backs off and retries
  /// until the grace window closes).
  std::function<std::shared_ptr<Transport>()> reconnect;
  /// Post-handshake transport upgrade (the pool's colocated shm attach):
  /// given the fresh connection and the ack it handshook, return the
  /// transport the session should continue on — possibly the input
  /// unchanged. Runs before the replay, so replayed tasks ride the
  /// upgraded path.
  std::function<std::shared_ptr<Transport>(std::shared_ptr<Transport>,
                                           const HelloAck&)>
      upgrade;
  /// Handshake template for resume attempts (node kind, clock, heartbeat).
  Hello hello;
  /// Session identity from the initial HelloAck (resume presents it).
  std::uint64_t session = 0;
  std::uint32_t epoch = 0;
  /// Fired exactly once when the node gives up (grace expired or resume
  /// impossible) — the pool's quarantine bookkeeping hangs off this.
  std::function<void()> on_hard_fail;
};

/// Farm worker whose computation lives in a peer process.
///
/// Reliability protocol: every task carries a session-scoped sequence
/// number. The peer executes each sequence number at most once (duplicates
/// get the cached result resent), so this side may retransmit freely: the
/// oldest unacknowledged task is resent after retransmit_timeout, and a
/// successful resume replays everything unacknowledged. Results may arrive
/// out of order (reordering faults, resume replays) — they are buffered and
/// surfaced strictly oldest-first, duplicates suppressed, so delivery stays
/// exactly-once no matter what the wire does.
class RemoteWorkerNode final : public rt::Node {
 public:
  explicit RemoteWorkerNode(std::shared_ptr<Transport> tp,
                            RemoteNodeOptions opts = {})
      : tp_(std::move(tp)),
        opts_(std::move(opts)),
        link_(tp_),
        session_(opts_.session),
        epoch_(opts_.epoch) {}

  std::optional<rt::Task> process(rt::Task t) override;

  // Pipelining/recovery protocol (see rt::Node): this node keeps the
  // authoritative crash-recovery copy of every task accepted but not yet
  // answered by the peer.
  bool owns_recovery() const override { return true; }
  std::vector<rt::Task> drain_unacked() override;
  std::optional<rt::Task> flush() override;

  /// Tasks currently in flight on the wire (sent, no result yet).
  std::size_t in_flight() const {
    support::MutexLock lk(mu_);
    return unacked_.size();
  }

  /// Crash predicate the farm's failure detector polls. A sick connection
  /// inside the reconnect grace window is NOT a failure — reporting one
  /// would recruit a replacement for a worker about to resume.
  bool failed() const override;

  std::size_t secure_channels() override {
    auto tp = transport_ptr();
    if (tp->secured()) return 0;
    link_.secure();
    return 1;
  }

  void on_stop() override {
    auto tp = transport_ptr();
    if (!tp->closed()) {
      tp->send(Frame{FrameType::Shutdown, {}});
      tp->close();
    }
  }

  Transport& transport() { return *transport_ptr(); }

  // ------------------------------------------------------ chaos telemetry
  std::uint64_t resumes() const { return resumes_.load(); }
  std::uint64_t retransmits() const { return retransmits_.load(); }
  std::uint64_t duplicates_suppressed() const { return dups_suppressed_.load(); }
  std::uint64_t session() const { return session_.load(); }
  std::uint32_t epoch() const { return epoch_.load(); }
  /// True once the peer announced a graceful departure (Leave frame). The
  /// node then fails fast — no reconnect attempts against a daemon that
  /// told us it is gone, and no on_hard_fail/quarantine penalty for an
  /// orderly goodbye.
  bool peer_left() const { return peer_left_.load(); }

 private:
  /// Wait for (and deliver) the result of the oldest in-flight task.
  /// nullopt when the peer filtered that task, the connection hard-failed,
  /// or a monitor drained the recovery deque out from under us (the result
  /// is then discarded: its task is being re-executed elsewhere).
  std::optional<rt::Task> await_result();

  /// Reconnect-with-backoff inside the grace window, resume the session,
  /// and replay everything unacked. False once the window closes.
  bool try_resume();

  std::shared_ptr<Transport> transport_ptr() const {
    support::MutexLock lk(tp_mu_);
    return tp_;
  }
  bool transport_sick(const Transport& tp) const {
    return tp.closed() || (opts_.liveness_timeout_wall_s > 0.0 &&
                           tp.idle_seconds() > opts_.liveness_timeout_wall_s);
  }
  bool resumable() const {
    return opts_.reconnect && opts_.reconnect_grace_wall_s > 0.0 &&
           !peer_left_.load(std::memory_order_relaxed);
  }
  /// Terminal failure: close, fire on_hard_fail once.
  void mark_hard_failed() const;

  mutable support::Mutex tp_mu_{"RemoteWorkerNode.transport"};  ///< tp_ swap on resume
  std::shared_ptr<Transport> tp_ BSK_GUARDED_BY(tp_mu_);
  RemoteNodeOptions opts_;
  RemoteLink link_;

  mutable std::atomic<bool> hard_failed_{false};
  mutable std::atomic<bool> peer_left_{false};
  /// Wall time the connection was first seen sick (-1 = healthy). The grace
  /// window is measured from here by both the worker thread (resume loop)
  /// and the farm's failure detector (failed()).
  mutable std::atomic<double> down_since_{-1.0};

  /// Recovery copies of sent-but-unanswered tasks, oldest first, plus
  /// results that arrived ahead of the oldest (reordered or replayed).
  /// Incoming results are placed by resume_core's classify_result — the
  /// same pure function the model checker drives.
  mutable support::Mutex mu_{"RemoteWorkerNode.pending"};
  std::deque<PendingTask> unacked_ BSK_GUARDED_BY(mu_);
  std::map<std::uint64_t, rt::Task> ready_ BSK_GUARDED_BY(mu_);
  std::uint64_t next_seq_ BSK_GUARDED_BY(mu_) = 0;
  std::uint64_t last_acked_ BSK_GUARDED_BY(mu_) = 0;

  std::atomic<std::uint64_t> session_{0};
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint64_t> resumes_{0};
  std::atomic<std::uint64_t> retransmits_{0};
  std::atomic<std::uint64_t> dups_suppressed_{0};
};

// ------------------------------------------------------------- handshake

/// Client side of the connection handshake: send Hello, await HelloAck.
/// False on timeout, version mismatch, or refusal (transport is closed).
bool client_handshake(Transport& tp, const Hello& hello,
                      double timeout_wall_s, HelloAck* ack_out = nullptr);

/// Server side: await Hello, validate magic/version, reply HelloAck.
/// False on timeout or a malformed/incompatible Hello (refusal is sent).
bool server_handshake(Transport& tp, double timeout_wall_s,
                      std::uint64_t session, Hello* hello_out = nullptr);

}  // namespace bsk::net
