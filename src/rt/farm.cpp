#include "rt/farm.hpp"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"
#include "support/stats.hpp"
#include "support/thread_name.hpp"

namespace bsk::rt {

namespace {
// Input batch the emitter pops per lock acquisition, and the dispatch-bucket
// granularity for RoundRobin coalescing.
constexpr std::size_t kEmitterBatch = 64;
// Tasks a worker claims per pop. Kept small so a slow worker stages little
// work ahead of its peers.
constexpr std::size_t kWorkerBatch = 8;

// Process-wide dataplane instruments. Registered once; every farm in the
// process records into the same series (per-batch, never per-task, so the
// E14 overhead budget holds).
struct FarmObs {
  obs::Counter& dispatched = obs::counter(
      "bsk_farm_tasks_dispatched_total", "data tasks dispatched by emitters");
  obs::Counter& collected = obs::counter(
      "bsk_farm_tasks_collected_total", "data tasks emitted downstream");
  obs::Counter& failures = obs::counter("bsk_farm_worker_failures_total",
                                        "worker crash recoveries");
  obs::Histogram& emitter_batch =
      obs::histogram("bsk_farm_emitter_batch_size", {1, 2, 4, 8, 16, 32, 64},
                     "data tasks per emitter dispatch batch");
  obs::Histogram& worker_batch =
      obs::histogram("bsk_farm_worker_batch_size", {1, 2, 4, 8},
                     "tasks per worker claim batch");
  obs::Gauge& epoch = obs::gauge("bsk_farm_snapshot_epoch",
                                 "latest published dispatch-snapshot epoch");
  obs::Gauge& sched_workers = obs::gauge(
      "bsk_farm_sched_workers", "schedulable workers in the latest snapshot");
  obs::Gauge& queued = obs::gauge("bsk_farm_queued_tasks",
                                  "queued tasks across worker queues "
                                  "(latest sensor read)");
  obs::Gauge& reorder_occupancy =
      obs::gauge("bsk_farm_reorder_occupancy",
                 "tasks parked in the ordered farm's OrderedWindow");
};

FarmObs& farm_obs() {
  static FarmObs o;
  return o;
}

}  // namespace

Farm::Farm(std::string name, FarmConfig cfg, NodeFactory worker_factory,
           Placement home)
    : Runnable(std::move(name)),
      cfg_(cfg),
      factory_(std::move(worker_factory)),
      home_(home),
      reorder_(cfg.reorder_window),
      metrics_(cfg.rate_window) {
  // A farm with no workers would deadlock its emitter; one is the floor.
  if (cfg_.initial_workers == 0) cfg_.initial_workers = 1;
  // Broadcast copies of a task share its order: nothing to reorder.
  if (cfg_.policy == SchedPolicy::Broadcast) cfg_.ordered = false;
  // Self-made boundary conduits so a standalone farm is usable out of the
  // box (an enclosing pipeline overwrites them during wiring). Their
  // capacity is independent of worker_queue_capacity: shallow *worker*
  // queues are a scheduling choice, but a shallow *output* would deadlock
  // producers that drain results only after wait().
  const std::size_t boundary =
      std::max<std::size_t>(cfg_.worker_queue_capacity, 1024);
  in_ = std::make_shared<Conduit>(boundary);
  out_ = std::make_shared<Conduit>(boundary);
}

Farm::~Farm() {
  if (started_) {
    if (in_) in_->close();
    wait();
  }
}

void Farm::start() {
  if (started_) return;
  started_ = true;
  // Initial workers are part of deployment, not reconfiguration: no pause.
  const double delay = cfg_.reconfig_delay_s;
  cfg_.reconfig_delay_s = 0.0;
  for (std::size_t i = 0; i < cfg_.initial_workers; ++i) add_worker(home_);
  cfg_.reconfig_delay_s = delay;
  emitter_thread_ = std::jthread([this] {
    support::set_thread_name("farm-emitter");
    emitter_loop();
  });
}

void Farm::wait() {
  if (!started_) return;
  if (emitter_thread_.joinable()) emitter_thread_.join();
  // Snapshot worker threads under the lock, join outside it.
  std::vector<Worker*> ws;
  {
    support::MutexLock lk(workers_mu_);
    for (auto& w : workers_) ws.push_back(w.get());
  }
  for (Worker* w : ws)
    if (w->thread.joinable()) w->thread.join();
}

// ----------------------------------------------------------------- snapshot

void Farm::refresh_snapshot_locked() {
  const std::uint64_t e = epoch_.load(std::memory_order_relaxed) + 1;
  auto s = std::make_shared<Snapshot>();
  s->epoch = e;
  s->all.reserve(workers_.size());
  for (auto& w : workers_) {
    s->all.push_back(w.get());
    if (w->retiring.load()) continue;
    s->active.push_back(w.get());
    if (w->started.load() && !w->failed.load()) s->sched.push_back(w.get());
  }
  const std::size_t sched_n = s->sched.size();
  {
    support::MutexLock lk(snap_mu_);
    snap_ = std::move(s);
  }
  // Publish the epoch after the snapshot so a dispatcher that observes the
  // new epoch is guaranteed to fetch the new snapshot.
  epoch_.store(e, std::memory_order_release);
  FarmObs& fo = farm_obs();
  fo.epoch.set(static_cast<double>(e));
  fo.sched_workers.set(static_cast<double>(sched_n));
}

std::shared_ptr<const Farm::Snapshot> Farm::snapshot() const {
  support::MutexLock lk(snap_mu_);
  return snap_;
}

std::shared_ptr<const Farm::Snapshot> Farm::dispatch_snapshot() {
  support::MutexLock lk(workers_mu_);
  for (;;) {
    if (!reconfiguring_.load()) {
      bool dispatchable = false;
      for (auto& w : workers_)
        if (w->started.load() && !w->retiring.load() && !w->failed.load()) {
          dispatchable = true;
          break;
        }
      if (dispatchable) break;
    }
    reconfig_cv_.wait(workers_mu_);
  }
  refresh_snapshot_locked();
  lk.unlock();
  return snapshot();
}

// ---------------------------------------------------------------- actuators

bool Farm::add_worker(Placement place, std::optional<sim::CoreLease> lease,
                      bool secure_links) {
  if (shutting_down_.load()) return false;

  // The reconfiguration pause: dispatch is suspended for the configured
  // simulated duration (the paper's visible sensor blackout), *without*
  // holding the worker-set lock.
  if (started_ && cfg_.reconfig_delay_s > 0.0) {
    reconfiguring_.store(true);
    support::Clock::sleep_for(support::SimDuration(cfg_.reconfig_delay_s));
  }

  auto w = std::make_unique<Worker>();
  w->wid = 0;  // assigned under the lock
  w->node = factory_();
  w->place = place.platform ? place : home_;
  w->lease = lease;
  w->in = std::make_shared<Conduit>(cfg_.worker_queue_capacity);
  w->in->set_endpoints(home_, w->place);
  w->out_link.set_endpoints(w->place, home_);
  if (secure_links) {
    // Secure *before* the worker can be scheduled: the commit step of the
    // two-phase multi-concern protocol. Remote nodes also upgrade the wire
    // channel they privately own.
    w->in->link().secure();
    w->out_link.secure();
    w->node->secure_channels();
  }

  Worker* raw = w.get();
  {
    support::MutexLock lk(workers_mu_);
    if (shutting_down_.load()) {
      reconfiguring_.store(false);
      reconfig_cv_.notify_all();
      return false;
    }
    w->wid = next_wid_++;
    spawned_.fetch_add(1);
    workers_.push_back(std::move(w));
    refresh_snapshot_locked();
  }
  if (started_) {
    raw->thread = std::jthread([this, raw] {
      support::set_thread_name("farm-worker-" + std::to_string(raw->wid));
      worker_loop(raw);
    });
    raw->started.store(true);
    support::MutexLock lk(workers_mu_);
    refresh_snapshot_locked();  // now dispatchable
  }
  // A replacement worker inherits tasks recovered while no survivor existed.
  flush_orphans_to(raw);

  reconfiguring_.store(false);
  reconfig_cv_.notify_all();
  return true;
}

RemoveWorkerResult Farm::remove_worker() {
  if (started_ && cfg_.reconfig_delay_s > 0.0) {
    reconfiguring_.store(true);
    support::Clock::sleep_for(support::SimDuration(cfg_.reconfig_delay_s));
  }

  RemoveWorkerResult result;
  Worker* victim = nullptr;
  {
    support::MutexLock lk(workers_mu_);
    std::size_t active = 0;
    for (auto& w : workers_)
      if (!w->retiring.load() && w->started.load()) ++active;
    if (active > 1) {
      // Retire the most recently added active worker.
      for (auto it = workers_.rbegin(); it != workers_.rend(); ++it) {
        if (!(*it)->retiring.load() && (*it)->started.load()) {
          victim = it->get();
          break;
        }
      }
    }
    if (victim) {
      victim->retiring.store(true);
      result.removed = true;
      result.lease = victim->lease;
      victim->lease.reset();
      refresh_snapshot_locked();
    }
  }
  if (victim) victim->in->push(Task::poison());

  reconfiguring_.store(false);
  reconfig_cv_.notify_all();
  return result;
}

std::size_t Farm::rebalance() {
  // Under workers_mu_ no actuator retires or fails a worker and the emitter
  // poisons none at end of stream while tasks move, so no task (and no
  // poison) moves to or from a worker on its way out.
  support::MutexLock lk(workers_mu_);
  if (shutting_down_.load()) return 0;
  std::vector<Worker*> active;
  for (auto& w : workers_)
    if (w->started.load() && !w->retiring.load() && !w->failed.load())
      active.push_back(w.get());
  if (active.size() < 2) return 0;

  std::size_t moved = 0;
  // Iterate until queue depths are within 1 of each other (or nothing can
  // be moved). Depth counts the channel plus the worker's staged batch, as
  // queue_lengths() does, and both are stealable: the channel first, then
  // the back of the staged batch, which the worker then skips.
  const auto depth = [](const Worker* w) { return w->in->size(); };
  for (int pass = 0; pass < 64; ++pass) {
    Worker* longest = active.front();
    Worker* shortest = active.front();
    for (Worker* w : active) {
      if (depth(w) > depth(longest)) longest = w;
      if (depth(w) < depth(shortest)) shortest = w;
    }
    const std::size_t hi = depth(longest);
    const std::size_t lo = depth(shortest);
    if (hi <= lo + 1) break;
    const std::size_t k = (hi - lo) / 2;
    std::deque<Task> stolen;
    {
      support::MutexLock lk(longest->inflight_mu);  // holds its pop still
      stolen = longest->in->steal_back(k);
      std::size_t n = 0;
      for (; stolen.size() < k && !longest->pending.empty(); ++n) {
        stolen.push_front(std::move(longest->pending.back()));
        longest->pending.pop_back();
      }
      longest->in->release(n);
    }
    if (stolen.empty()) break;
    for (auto& t : stolen) {
      // Never block on a give-back: every queue (including the source,
      // which workers keep draining) gets a non-blocking offer, shortest
      // first. Blocking here deadlocked when all queues were full and the
      // workers themselves were parked on a full farm output.
      if (shortest->in->push_for(t, support::SimDuration(0)) ==
          support::ChannelStatus::Ok) {
        ++moved;
        continue;
      }
      std::vector<Worker*> by_depth(active);
      std::sort(by_depth.begin(), by_depth.end(),
                [&](Worker* a, Worker* b) { return depth(a) < depth(b); });
      bool placed = false;
      for (Worker* w : by_depth) {
        if (w->in->push_for(t, support::SimDuration(0)) ==
            support::ChannelStatus::Ok) {
          if (w != longest) ++moved;
          placed = true;
          break;
        }
      }
      // Last resort (everything full): park it; the last one out delivers
      // parked tasks at end of stream rather than losing them.
      if (!placed) stash_orphan(std::move(t));
    }
  }
  return moved;
}

std::size_t Farm::secure_all_links() {
  const auto snap = snapshot();
  std::size_t n = 0;
  for (Worker* w : snap->all) {
    if (w->in->link().untrusted() && !w->in->link().secured()) {
      w->in->link().secure();
      ++n;
    }
    if (w->out_link.untrusted() && !w->out_link.secured()) {
      w->out_link.secure();
      ++n;
    }
    n += w->node->secure_channels();
  }
  return n;
}

// ------------------------------------------------------------------ sensors
//
// Sensors read the published snapshot plus per-worker atomics; none of them
// touch workers_mu_, so a manager polling at high frequency never contends
// with dispatch or reconfiguration. The worker list is append-only, so the
// snapshot's pointers stay valid for the farm's lifetime.

std::size_t Farm::worker_count() const {
  const auto snap = snapshot();
  std::size_t n = 0;
  for (const Worker* w : snap->all)
    if (!w->retiring.load()) ++n;
  return n;
}

std::size_t Farm::running_workers() const {
  const auto snap = snapshot();
  std::size_t n = 0;
  for (const Worker* w : snap->all)
    if (!w->exited.load()) ++n;
  return n;
}

std::vector<std::size_t> Farm::queue_lengths() const {
  // Queued = in the channel + staged in the worker's popped-but-unclaimed
  // batch, which the worker pops held so in->size() counts both in one
  // value: no pop leaves a task momentarily counted nowhere.
  const auto snap = snapshot();
  std::vector<std::size_t> out;
  std::size_t total = 0;
  for (const Worker* w : snap->all)
    if (!w->retiring.load()) {
      out.push_back(w->in->size());
      total += out.back();
    }
  farm_obs().queued.set(static_cast<double>(total));
  return out;
}

double Farm::queue_variance() const {
  const auto qs = queue_lengths();
  std::vector<double> xs(qs.begin(), qs.end());
  return support::population_variance(xs);
}

std::vector<double> Farm::worker_busy_seconds() const {
  const auto snap = snapshot();
  std::vector<double> out;
  for (const Worker* w : snap->all)
    if (!w->retiring.load()) out.push_back(w->busy_s.load());
  return out;
}

std::uint64_t Farm::insecure_messages() const {
  const auto snap = snapshot();
  std::uint64_t n = 0;
  for (const Worker* w : snap->all)
    n += w->in->link().insecure_messages() + w->out_link.insecure_messages();
  return n;
}

bool Farm::has_unsecured_untrusted_links() const {
  const auto snap = snapshot();
  for (const Worker* w : snap->all) {
    if (w->retiring.load()) continue;
    if ((w->in->link().untrusted() && !w->in->link().secured()) ||
        (w->out_link.untrusted() && !w->out_link.secured()))
      return true;
  }
  return false;
}

// ------------------------------------------------------------------ threads

void Farm::emitter_loop() {
  std::vector<Task> batch;
  batch.reserve(kEmitterBatch);
  std::size_t rr_next = 0;                 // emitter-private RR cursor
  std::vector<std::vector<Task>> buckets;  // RoundRobin coalescing, reused

  auto snap = snapshot();
  // Steady state costs two relaxed loads per task; only reconfiguration
  // (epoch bump / blackout) drops dispatch onto the slow locked path.
  auto fresh = [&] {
    if (reconfiguring_.load(std::memory_order_relaxed) ||
        snap->epoch != epoch_.load(std::memory_order_acquire) ||
        snap->sched.empty())
      snap = dispatch_snapshot();
  };

  bool open = true;
  while (open) {
    batch.clear();
    if (!in_ || in_->pop_n(batch, kEmitterBatch) != support::ChannelStatus::Ok)
      break;

    // Stamp and count the data tasks under no lock at all.
    std::size_t n_data = 0;
    for (Task& t : batch) {
      if (!t.is_data()) continue;
      metrics_.record_arrival();
      t.order = order_seq_.fetch_add(1, std::memory_order_relaxed);
      ++n_data;
    }
    if (n_data == 0) continue;
    {
      FarmObs& fo = farm_obs();
      fo.dispatched.inc(n_data);
      fo.emitter_batch.observe(static_cast<double>(n_data));
    }

    if (cfg_.policy == SchedPolicy::Broadcast) {
      fresh();
      std::vector<Task> copies;
      copies.reserve(n_data);
      for (Worker* w : snap->sched) {
        copies.clear();
        for (const Task& t : batch)
          if (t.is_data()) copies.push_back(t);
        w->in->push_n(copies);
      }
      continue;
    }

    if (cfg_.policy == SchedPolicy::RoundRobin) {
      // Bucket the batch by target, then deliver each bucket with a single
      // lock+notify. Same per-task assignment as per-task round-robin.
      fresh();
      if (buckets.size() < snap->sched.size())
        buckets.resize(snap->sched.size());
      for (Task& t : batch) {
        if (!t.is_data()) continue;
        buckets[rr_next++ % snap->sched.size()].push_back(std::move(t));
      }
      for (std::size_t i = 0; i < snap->sched.size(); ++i) {
        if (buckets[i].empty()) continue;
        const std::size_t accepted = snap->sched[i]->in->push_n(buckets[i]);
        // Short acceptance = the target's queue closed mid-push (worker
        // crashed): re-offer the tail through the failure-proof path.
        for (std::size_t j = accepted; j < buckets[i].size(); ++j)
          resubmit(std::move(buckets[i][j]));
        buckets[i].clear();
      }
      continue;
    }

    // OnDemand: late binding per task — shortest queue at dispatch time,
    // and never parked on one full queue while another could take the task:
    // wait (wall-bounded) on the shortest queue's not-full CV, then rescan.
    // This replaces the old sleep-and-rescan retry.
    for (Task& t : batch) {
      if (!t.is_data()) continue;
      for (;;) {
        fresh();
        // Shortest by channel + staged batch (both in in->size()): a worker
        // serially chewing through a popped batch is not idle.
        Worker* best = snap->sched.front();
        for (Worker* w : snap->sched)
          if (w->in->size() < best->in->size()) best = w;
        if (best->in->push_for(t, support::SimDuration(0)) ==
            support::ChannelStatus::Ok)
          break;
        const auto st = best->in->push_for(
            t, support::SimDuration(100e-6 * support::Clock::scale()));
        if (st == support::ChannelStatus::Ok) break;
        if (st == support::ChannelStatus::Closed)  // dead queue: don't spin
          std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }

  // End of stream: refuse further growth, poison every worker.
  shutting_down_.store(true);
  std::vector<Worker*> ws;
  {
    support::MutexLock lk(workers_mu_);
    for (auto& w : workers_) ws.push_back(w.get());
    refresh_snapshot_locked();
  }
  for (Worker* w : ws)
    if (!w->retiring.exchange(true)) w->in->push(Task::poison());
  count_out(/*emitter=*/true);
}

void Farm::worker_loop(Worker* w) {
  w->node->set_placement(w->place);
  w->node->on_start();
  // A node that pipelines tasks toward a backing executor keeps its own
  // recovery copies (drained via drain_unacked()); the farm's per-call
  // inflight stash would double-recover, so it is skipped for such nodes.
  const bool node_recovers = w->node->owns_recovery();

  std::vector<Task> batch;
  batch.reserve(kWorkerBatch);
  std::vector<Task> results;  // batched delivery downstream
  results.reserve(kWorkerBatch);
  std::vector<Task> to_recover;

  auto stage_result = [&](Task r) {
    w->out_link.charge(r);
    results.push_back(std::move(r));
  };

  bool poisoned = false;
  bool crashed = false;

  // Exactly-once handoff of one node call's outcome — a process() return or
  // a pipelined result released by flush() — decided under the per-worker
  // recovery lock. Sets `crashed` when the worker or its node has failed.
  auto handoff = [&](std::optional<Task> r) {
    bool emit = false;
    {
      support::MutexLock lk(w->inflight_mu);
      if (node_recovers) {
        // A returned result's task was acknowledged off the node's
        // recovery deque before any drain could have seen it, so it is
        // valid even when the injector already marked us failed. What is
        // still unacknowledged is drained here — destructively, so this
        // composes with a racing monitor's own drain.
        if (w->failed.load() || w->node->failed()) {
          w->failed.store(true);
          crashed = true;
          for (Task& rt : w->node->drain_unacked())
            to_recover.push_back(std::move(rt));
          w->take_pending(to_recover);
        }
        emit = r.has_value();
      } else if (w->failed.load()) {
        emit = false;  // injector captured the copies; discard our result
        crashed = true;
      } else if (w->node->failed()) {
        // Node died during process() and no monitor noticed yet: recover
        // the in-flight copy and the staged batch ourselves, once.
        w->failed.store(true);
        crashed = true;
        if (w->inflight) {
          to_recover.push_back(std::move(*w->inflight));
          w->inflight.reset();
        }
        w->take_pending(to_recover);
      } else {
        emit = true;
        w->inflight.reset();
      }
    }
    if (emit && r) stage_result(std::move(*r));
  };
  // Release pipelined results one at a time while `keep_going()` holds,
  // until nothing remains in flight or the worker crashed.
  auto drain_node = [&](auto keep_going) {
    while (!crashed && keep_going()) {
      std::optional<Task> r = w->node->flush();
      const bool more = r.has_value();
      handoff(std::move(r));
      deliver(results);
      if (!more) break;
    }
  };

  while (!poisoned && !crashed) {
    batch.clear();
    if (!w->in->wait_nonempty()) break;

    // Pop and stage the batch for crash recovery under the recovery lock,
    // before executing any of it: rebalance() and recover_worker() then
    // find every task in the channel or in pending, never in between, and
    // in->size() counts the pending batch (held) until each task leaves it.
    {
      support::MutexLock lk(w->inflight_mu);
      if (w->failed.load()) {
        crashed = true;  // the exit path below recovers the queue
        break;
      }
      if (w->in->try_pop_n_held(batch, kWorkerBatch) == 0) continue;
      std::size_t staged = 0;
      for (const Task& t : batch)
        if (t.is_data()) {
          w->pending.push_back(t);
          ++staged;
        }
      w->in->release(batch.size() - staged);  // control tasks
    }
    farm_obs().worker_batch.observe(static_cast<double>(batch.size()));

    for (Task& t : batch) {
      if (t.kind == TaskKind::Poison) {
        poisoned = true;  // staged leftovers of this batch handled below
        break;
      }
      if (!t.is_data()) continue;

      // Claim the task: its recovery copy moves from pending to inflight.
      // A recovery-owning node instead stages its own copy before the wire
      // send; until then a racing injector's drain is compensated by our
      // own post-process drain below. rebalance() steals from the back of
      // pending, so an empty pending means this and every later data task
      // of the batch moved to another worker.
      {
        support::MutexLock lk(w->inflight_mu);
        if (w->failed.load()) {
          crashed = true;  // injector drained pending, incl. this task
          break;
        }
        if (w->pending.empty()) continue;
        w->pending.pop_front();
        w->in->release(1);
        if (!node_recovers) w->inflight = t;
      }

      const auto t0 = support::Clock::now();
      std::optional<Task> r = w->node->process(std::move(t));
      const double dt = support::Clock::now() - t0;
      w->busy_s.fetch_add(dt);
      metrics_.record_service_time(dt);

      handoff(std::move(r));
      if (crashed) break;
    }

    deliver(results);

    // A pipelining node keeps results of tasks already on the wire until
    // its credit window fills. With no input queued, release them now
    // rather than holding them until more input (or end of stream) comes;
    // the window still fills whenever input is queued.
    if (node_recovers && !poisoned)
      drain_node([&] { return w->in->size() == 0; });
  }

  // Drain pipelined results still in flight at end of stream; if the peer
  // died mid-drain, the handoff recovers what it never acknowledged.
  if (node_recovers) drain_node([] { return true; });

  // Tasks handed to this worker that it will never run: batch entries
  // staged behind a poison, and whatever raced into the queue after it.
  // Closing first makes a dispatcher still holding a stale snapshot re-route
  // instead of pushing into a queue nobody reads. Broadcast copies are
  // dropped by design — every other worker holds its own copy.
  if (poisoned) {
    w->in->close();
    std::deque<Task> leftover;
    {
      support::MutexLock lk(w->inflight_mu);
      w->take_pending(leftover);
    }
    if (cfg_.policy != SchedPolicy::Broadcast) {
      for (Task& t : leftover)
        if (t.is_data()) to_recover.push_back(std::move(t));
      for (Task& t : w->in->steal_back(w->in->size() + 8))
        if (t.is_data()) to_recover.push_back(std::move(t));
    }
  }

  if (crashed) {
    // A crashed worker recovers its own queue on the way out. The monitor's
    // recover_worker only reaches workers that are not yet retiring, so an
    // end-of-stream crash (grace window expiring after the poison already
    // marked us retiring) would otherwise strand everything queued behind
    // the crash — the collector can then finish the stream without those
    // tasks ever surfacing. Close first so concurrent emitter pushes fail
    // over to the re-routing path; both this steal and the node drain are
    // destructive, so a racing monitor recovery composes exactly-once.
    w->in->close();
    if (cfg_.policy != SchedPolicy::Broadcast) {
      for (Task& t : w->in->steal_back(w->in->size() + 8))
        if (t.is_data()) to_recover.push_back(std::move(t));
      support::MutexLock lk(w->inflight_mu);
      for (Task& t : w->node->drain_unacked())
        if (t.is_data()) to_recover.push_back(std::move(t));
    }
    support::MutexLock lk(workers_mu_);
    refresh_snapshot_locked();  // stop the emitter dispatching to us
  }
  for (Task& t : to_recover)
    if (t.is_data()) resubmit(std::move(t));

  deliver(results);
  w->node->on_stop();
  w->exited.store(true);
  count_out(/*emitter=*/false);
}

void Farm::resubmit(Task t) {
  // Timed offers that re-resolve the target: a plain blocking push would
  // consume the task even when the target's queue closed under a
  // concurrent failure. push_for moves from the task only on Ok, so the
  // loop retries against a fresh snapshot until someone accepts.
  for (;;) {
    const auto snap = snapshot();
    Worker* target = nullptr;
    for (Worker* w : snap->all) {
      if (!w->retiring.load() && !w->failed.load() && w->started.load()) {
        target = w;
        break;
      }
    }
    if (target == nullptr) break;
    if (target->in->push_for(t, support::SimDuration(
            0.01 * support::Clock::scale())) == support::ChannelStatus::Ok)
      return;
  }
  stash_orphan(std::move(t));  // parked for the replacement worker
}

bool Farm::inject_worker_failure() {
  Worker* victim = nullptr;
  {
    support::MutexLock lk(workers_mu_);
    std::size_t active = 0;
    for (auto& w : workers_)
      if (!w->retiring.load() && w->started.load()) ++active;
    if (active < 2) return false;  // survivors must exist to recover onto
    for (auto it = workers_.rbegin(); it != workers_.rend(); ++it) {
      if (!(*it)->retiring.load() && (*it)->started.load()) {
        victim = it->get();
        break;
      }
    }
    victim->retiring.store(true);  // exclude from further scheduling
    refresh_snapshot_locked();
  }
  recover_worker(victim);
  return true;
}

std::size_t Farm::fail_crashed_workers() {
  // Mark every crashed worker retiring first, so redistribution targets
  // exclude workers that are about to be recovered themselves (a whole
  // worker process dying takes several workers down at once).
  std::vector<Worker*> victims;
  {
    support::MutexLock lk(workers_mu_);
    for (auto& w : workers_) {
      if (w->retiring.load() || !w->started.load()) continue;
      if (w->node->failed() || w->failed.load()) {
        w->retiring.store(true);
        victims.push_back(w.get());
      }
    }
    if (!victims.empty()) refresh_snapshot_locked();
  }
  for (Worker* v : victims) recover_worker(v);
  return victims.size();
}

void Farm::recover_worker(Worker* victim) {
  // Recover the victim's queue, its staged-but-unstarted batch, its
  // in-flight task, and (for recovery-owning nodes) the wire-pipelined
  // tasks its node never got acknowledged. The in-flight capture races the
  // worker's own recovery (worker_loop) — the failed flag decides the
  // winner under the victim's lock, and the node drain is destructive, so
  // every task is re-offered exactly once.
  // Order matters against a dispatching emitter: decide the exactly-once
  // winner, CLOSE the victim's queue (from here on every emitter push
  // fails and gets re-routed), then drain destructively. A task the
  // emitter squeezed in before the close is caught by the drain or by the
  // victim's own crashed-path resubmit — both are destructive pops, so it
  // surfaces exactly once either way. The close also wakes a victim
  // blocked on an empty pop, which the old poison-push did.
  std::deque<Task> orphans;
  {
    support::MutexLock lk(victim->inflight_mu);
    if (!victim->failed.exchange(true)) {
      if (victim->inflight) {
        orphans.push_front(std::move(*victim->inflight));
        victim->inflight.reset();
      }
      victim->take_pending(orphans);
    }
    for (Task& t : victim->node->drain_unacked())
      orphans.push_back(std::move(t));
  }
  victim->in->close();
  for (Task& t : victim->in->steal_back(victim->in->size() + 8))
    orphans.push_back(std::move(t));

  // Redistribute onto the survivors; with none left, park the tasks for the
  // replacement worker the manager will add.
  std::vector<Worker*> survivors;
  {
    support::MutexLock lk(workers_mu_);
    for (auto& w : workers_)
      if (!w->retiring.load() && !w->failed.load() && w->started.load())
        survivors.push_back(w.get());
    refresh_snapshot_locked();
  }
  std::size_t i = 0;
  for (Task& t : orphans) {
    if (!t.is_data()) continue;  // a stolen poison must not kill a survivor
    bool placed = false;
    for (std::size_t k = 0; !placed && k < survivors.size(); ++k) {
      Worker* s = survivors[(i + k) % survivors.size()];
      placed = s->in->push_for(t, support::SimDuration(0)) ==
               support::ChannelStatus::Ok;
    }
    ++i;
    // All full, all dead, or none left: the re-resolving path blocks,
    // retries, and parks the task for a replacement as a last resort.
    if (!placed) resubmit(std::move(t));
  }

  failures_.fetch_add(1);
  farm_obs().failures.inc();
  // The crashed "machine" takes its lease down with it: deliberately not
  // returned to any resource manager.
  victim->lease.reset();
}

void Farm::stash_orphan(Task t) {
  support::MutexLock lk(orphans_mu_);
  orphans_.push_back(std::move(t));
}

void Farm::flush_orphans_to(Worker* w) {
  // Under orphans_mu_: a task the new worker refuses (its queue closed at
  // end of stream or on a crash) goes back to orphans_ before the last one
  // out can deliver them, instead of being dropped.
  support::MutexLock lk(orphans_mu_);
  std::deque<Task> refused;
  for (Task& t : orphans_)
    if (!w->in->push(t)) refused.push_back(std::move(t));
  orphans_.swap(refused);
}

// ---------------------------------------------------------------- collector

void Farm::deliver(std::vector<Task>& results) {
  if (results.empty()) return;
  if (cfg_.collect == CollectMode::Gather && !cfg_.ordered) {
    emit(results);
    return;
  }
  support::MutexLock lk(deliver_mu_);
  for (Task& t : results) collect_locked(std::move(t));
  results.clear();
  farm_obs().reorder_occupancy.set(static_cast<double>(reorder_.pending()));
  emit(released_);
}

void Farm::collect_locked(Task t) {
  if (cfg_.collect == CollectMode::Reduce) {
    if (!accum_)
      accum_ = std::move(t);
    else if (cfg_.reducer)
      accum_ = cfg_.reducer(std::move(*accum_), std::move(t));
    return;
  }
  std::vector<Task>& out = released_;
  if (cfg_.ordered)
    reorder_.push(std::move(t), [&out](Task r) { out.push_back(std::move(r)); });
  else
    out.push_back(std::move(t));
}

void Farm::emit(std::vector<Task>& ts) {
  for (std::size_t i = 0; i < ts.size(); ++i) metrics_.record_departure();
  farm_obs().collected.inc(ts.size());
  if (out_) out_->push_n(ts);
  ts.clear();
}

void Farm::count_out(bool emitter) {
  support::MutexLock lk(deliver_mu_);
  if (emitter)
    emitter_done_ = true;
  else
    ++workers_out_;
  // add_worker refuses once the emitter is done, so spawned_ is final here.
  if (!emitter_done_ || workers_out_ != spawned_.load()) return;

  // Crash-recovery tasks that never found a replacement worker are
  // delivered unprocessed rather than lost (last-resort delivery).
  std::deque<Task> leftovers;
  {
    support::MutexLock olk(orphans_mu_);
    leftovers.swap(orphans_);
  }
  for (Task& t : leftovers)
    if (t.is_data()) collect_locked(std::move(t));
  // Flush whatever the reorder window still holds (gaps can exist if a
  // retired worker dropped tasks on shutdown) and the reduction result.
  std::vector<Task>& out = released_;
  reorder_.flush([&out](Task r) { out.push_back(std::move(r)); });
  if (accum_) released_.push_back(std::move(*accum_));
  emit(released_);
  if (out_) out_->close();
}

}  // namespace bsk::rt
