#include "net/daemon.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <optional>
#include <sstream>
#include <utility>

#include "net/remote_conduit.hpp"
#include "net/resume_core.hpp"
#include "net/shm.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rt/node.hpp"
#include "support/clock.hpp"
#include "support/event_log.hpp"
#include "support/thread_name.hpp"

namespace bsk::net {

namespace {

/// Instantiate the worker node a session asked for.
std::unique_ptr<rt::Node> make_node(const std::string& kind) {
  using rt::LambdaNode;
  using rt::Task;
  if (kind == "echo")
    return std::make_unique<LambdaNode>(
        [](Task t) -> std::optional<Task> { return t; });
  if (kind == "filter_odd")
    return std::make_unique<LambdaNode>([](Task t) -> std::optional<Task> {
      if (t.id % 2 == 1) return std::nullopt;
      return t;
    });
  return std::make_unique<rt::SimComputeNode>();  // "sim" and anything unknown
}

/// Cached results kept per session for duplicate-seq resends. Far larger
/// than any client credit window, so a still-wanted result is never evicted.
constexpr std::size_t kResultCacheCap = 256;

void log_session(const char* what, std::uint64_t id) {
  support::global_event_log().record("bskd", what, static_cast<double>(id));
}

}  // namespace

/// One hosted worker: the node, its dedup state, and whichever connection
/// currently owns it. Survives connection death (parked) until reaped.
/// The epoch fence and the dedup cache live in net::SessionCore — the pure
/// protocol state the model checker (analysis/mc) drives directly.
struct Session {
  std::uint64_t id = 0;
  std::string kind;

  support::Mutex mu{"bskd.Session"};
  SessionCore core BSK_GUARDED_BY(mu){kResultCacheCap};
  std::unique_ptr<rt::Node> node BSK_GUARDED_BY(mu);
  bool secured BSK_GUARDED_BY(mu) = false;
  /// The epoll connection owning this session (0 while parked).
  EpollServer::ConnId conn BSK_GUARDED_BY(mu) = 0;
  /// Colocated fast path, if negotiated; replies prefer it once attached.
  std::shared_ptr<ShmTransport> shm BSK_GUARDED_BY(mu);
  /// Atomic so the reaper can scan without the session lock (which task
  /// execution holds for the duration of a task).
  std::atomic<double> parked_at{-1.0};

  /// Close and forget the shm segment, if one was negotiated.
  void drop_shm() BSK_REQUIRES(mu) {
    if (shm) shm->close();
    shm.reset();
  }
};

namespace {

/// Send a frame back to the session's client: over the shm ring when the
/// client has attached one (bypassing the kernel), else over the epoll
/// connection. A never-attached segment is skipped — writing into a ring
/// nobody drains would just fill it.
bool reply_to(EpollServer& server, Session& s, const Frame& f)
    BSK_REQUIRES(s.mu) {
  if (s.shm && s.shm->peer_attached() && !s.shm->closed())
    return s.shm->send(f);
  return s.conn != 0 && server.send(s.conn, f);
}

/// Execute (or dedup) one sequenced task and send the reply. Caller holds
/// nothing; the session lock serializes execution across connections.
void handle_task(EpollServer& server, Session& s, const Frame& f) {
  auto parsed = parse_task_seq(f);
  if (!parsed) return;  // malformed (corrupt payload): drop, stream lives
  const std::uint64_t seq = parsed->first;

  support::MutexLock lk(s.mu);
  if (const Frame* cached = s.core.admit(seq)) {
    // Already executed: a retransmit or wire duplicate. Resend the cached
    // result — never re-execute (at-most-once execution per seq).
    reply_to(server, s, *cached);
    return;
  }
  auto r = s.node->process(std::move(parsed->second));
  const Frame reply =
      r ? make_task(*r, FrameType::ResultMsg, seq)
        : make_task(rt::Task::worker_done(), FrameType::ResultMsg, seq);
  s.core.cache(seq, reply);
  reply_to(server, s, reply);
}

}  // namespace

class SessionRegistry {
 public:
  std::shared_ptr<Session> create(const std::string& kind) {
    auto s = std::make_shared<Session>();
    s->kind = kind;
    {
      support::MutexLock slk(s->mu);
      s->node = make_node(kind);
      s->node->on_start();
    }
    support::MutexLock lk(mu_);
    s->id = next_++;
    sessions_[s->id] = s;
    return s;
  }

  /// Look up a session for resume. The epoch fence rejects reconnects that
  /// present a stale view (a zombie from before an earlier re-attach).
  std::shared_ptr<Session> find_for_resume(std::uint64_t id) {
    support::MutexLock lk(mu_);
    auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second;
  }

  /// Park a dead connection's session (unless a newer epoch stole it).
  void park(const std::shared_ptr<Session>& s, std::uint32_t my_epoch) {
    support::MutexLock lk(s->mu);
    if (s->core.epoch() != my_epoch) return;  // re-attached elsewhere
    s->conn = 0;
    s->drop_shm();  // a resume renegotiates a fresh segment
    s->parked_at = wall_now();
  }

  /// Orderly shutdown: retire the node and forget the session.
  void erase(const std::shared_ptr<Session>& s, std::uint32_t my_epoch) {
    {
      support::MutexLock lk(s->mu);
      if (s->core.epoch() != my_epoch) return;
      s->drop_shm();
      if (s->node) s->node->on_stop();
    }
    support::MutexLock lk(mu_);
    sessions_.erase(s->id);
  }

  /// Drop sessions parked longer than `linger_s`.
  void reap(double linger_s) {
    std::vector<std::shared_ptr<Session>> dead;
    {
      support::MutexLock lk(mu_);
      for (auto it = sessions_.begin(); it != sessions_.end();) {
        const double parked = it->second->parked_at.load();
        if (parked >= 0.0 && wall_now() - parked > linger_s) {
          dead.push_back(it->second);
          it = sessions_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& s : dead) {
      support::MutexLock slk(s->mu);
      if (s->node) s->node->on_stop();
    }
  }

  std::vector<std::shared_ptr<Session>> snapshot() {
    support::MutexLock lk(mu_);
    std::vector<std::shared_ptr<Session>> out;
    out.reserve(sessions_.size());
    for (auto& [id, s] : sessions_) out.push_back(s);
    return out;
  }

  /// Daemon shutdown: retire every node.
  void stop_all() {
    std::map<std::uint64_t, std::shared_ptr<Session>> all;
    {
      support::MutexLock lk(mu_);
      all.swap(sessions_);
    }
    for (auto& [id, s] : all) {
      support::MutexLock slk(s->mu);
      s->drop_shm();
      if (s->node) s->node->on_stop();
    }
  }

 private:
  support::Mutex mu_{"bskd.SessionRegistry"};
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_
      BSK_GUARDED_BY(mu_);
  std::uint64_t next_ BSK_GUARDED_BY(mu_) = 1;
};

std::string stats_text(StatsRequest::What what) {
  std::ostringstream os;
  switch (what) {
    case StatsRequest::What::Prometheus:
      obs::MetricsRegistry::global().write_prometheus(os);
      break;
    case StatsRequest::What::MetricsJsonl:
      obs::MetricsRegistry::global().write_jsonl(os);
      break;
    case StatsRequest::What::TraceJsonl:
      // Decision spans plus the raw event log: everything the merge tool
      // needs to causally join this process's story to the parent's.
      obs::TraceLog::global().dump_jsonl(os);
      support::global_event_log().dump_jsonl(os);
      break;
  }
  return os.str();
}

/// Bounded, lazily-grown worker pool. The epoll loop hands every step that
/// can block here (task execution holds the session lock for the task's
/// duration), so the daemon's thread count is bounded by `workers` instead
/// of by connection count. Threads spawn only when work outruns the idle
/// set, so a quiet daemon stays tiny.
class ExecutorPool {
 public:
  explicit ExecutorPool(std::size_t cap)
      : cap_(std::max<std::size_t>(1, cap)) {}
  ~ExecutorPool() { stop(); }

  void submit(std::function<void()> fn) {
    {
      support::MutexLock lk(mu_);
      if (stopping_) return;
      queue_.push_back(std::move(fn));
      if (idle_ == 0 && threads_.size() < cap_)
        threads_.emplace_back([this] {
          support::set_thread_name("bskd-exec");
          run();
        });
    }
    cv_.notify_one();
  }

  /// Drain the queue, then join every worker. Idempotent.
  void stop() {
    std::vector<std::jthread> workers;
    {
      support::MutexLock lk(mu_);
      stopping_ = true;
      workers.swap(threads_);
    }
    cv_.notify_all();
    workers.clear();  // joins (each worker drains, then exits)
  }

 private:
  void run() {
    for (;;) {
      std::function<void()> fn;
      {
        support::MutexLock lk(mu_);
        while (queue_.empty()) {
          if (stopping_) return;
          ++idle_;
          cv_.wait(mu_);
          --idle_;
        }
        fn = std::move(queue_.front());
        queue_.pop_front();
      }
      fn();
    }
  }

  const std::size_t cap_;
  mutable support::Mutex mu_{"bskd.ExecutorPool"};
  support::CondVar cv_;
  std::deque<std::function<void()>> queue_ BSK_GUARDED_BY(mu_);
  std::vector<std::jthread> threads_ BSK_GUARDED_BY(mu_);
  std::size_t idle_ BSK_GUARDED_BY(mu_) = 0;
  bool stopping_ BSK_GUARDED_BY(mu_) = false;
};

// ----------------------------------------------------------------- Daemon
//
// EpollServer handler callbacks append typed work items (handshake, frame,
// close) to a per-connection inbox, and at most one executor at a time
// drains each inbox in order — the loop thread never touches a session
// lock, and per-connection frame ordering is preserved without a thread per
// connection.

struct Daemon::Item {
  enum class Kind { Hello, Frame, Closed } kind = Kind::Frame;
  net::Hello hello;  // Kind::Hello
  net::Frame frame;  // Kind::Frame
};

struct Daemon::ConnState {
  explicit ConnState(ConnId id_in) : id(id_in) {}
  const ConnId id;

  support::Mutex inbox_mu{"bskd.ConnState.inbox"};  // light: push/pop only, never held long
  std::deque<Item> inbox BSK_GUARDED_BY(inbox_mu);
  bool scheduled BSK_GUARDED_BY(inbox_mu) = false;

  // Pump-only state (one pump runs per connection at a time).
  int role = 0;  // 0 = pre-handshake, -1 = refused/done
  std::shared_ptr<Session> session;
  std::uint32_t epoch = 0;
};

Daemon::Daemon(DaemonOptions opts)
    : linger_s_(opts.session_linger_s),
      pool_(std::make_unique<ExecutorPool>(opts.workers)),
      registry_(std::make_unique<SessionRegistry>()) {
  EpollOptions eo;
  eo.port = opts.port;
  EpollServer::Handler& handler = *this;
  server_ = std::make_unique<EpollServer>(handler, eo);
  if (!server_->valid() || !opts.clustering) return;
  Member self;
  self.port = server_->port();
  self.cores = opts.cores;
  self.core_speed = opts.core_speed;
  cluster_ = std::make_unique<cluster::ClusterNode>(
      std::move(self), std::move(opts.cluster_opts));
}

Daemon::~Daemon() { stop(/*orderly=*/false); }

void Daemon::start() {
  if (!valid() || stopping_.load()) return;
  server_->start();
  if (cluster_) cluster_->start();
}

void Daemon::reap() { registry_->reap(linger_s_); }

void Daemon::stop(bool orderly) {
  if (stopping_.exchange(true)) return;
  for (auto& s : registry_->snapshot()) {
    support::MutexLock lk(s->mu);
    if (orderly && s->conn != 0) {
      LeaveMsg bye;
      bye.self.port = 0;  // identity is the connection; port unused here
      server_->send(s->conn, make_leave(bye));
    }
    if (s->shm) s->shm->close();
  }
  server_->stop();  // no callbacks past this point
  pool_->stop();    // queued work drains; replies to dead conns no-op
  {
    support::MutexLock lk(shm_mu_);
    shm_threads_.clear();  // joins; stopping_ and closed segments end them
  }
  registry_->stop_all();
  // Orderly departure: tell every peer we are going (immediate
  // deregistration) instead of making them wait out suspicion.
  if (cluster_) cluster_->stop(/*broadcast_leave=*/orderly);
}

void Daemon::on_hello(ConnId c, const Hello& h) {
  auto cs = std::make_shared<ConnState>(c);
  {
    support::MutexLock lk(conns_mu_);
    conns_[c] = cs;
  }
  {
    support::MutexLock lk(cs->inbox_mu);
    cs->inbox.push_back(Item{Item::Kind::Hello, h, {}});
  }
  schedule(cs);
}

void Daemon::on_frame(ConnId c, Frame&& f) {
  auto cs = find(c);
  if (!cs) return;
  {
    support::MutexLock lk(cs->inbox_mu);
    cs->inbox.push_back(Item{Item::Kind::Frame, {}, std::move(f)});
  }
  schedule(cs);
}

void Daemon::on_closed(ConnId c) {
  std::shared_ptr<ConnState> cs;
  {
    support::MutexLock lk(conns_mu_);
    auto it = conns_.find(c);
    if (it == conns_.end()) return;
    cs = it->second;
    conns_.erase(it);
  }
  {
    support::MutexLock lk(cs->inbox_mu);
    cs->inbox.push_back(Item{Item::Kind::Closed, {}, {}});
  }
  schedule(cs);
}

std::shared_ptr<Daemon::ConnState> Daemon::find(ConnId c) {
  support::MutexLock lk(conns_mu_);
  auto it = conns_.find(c);
  return it == conns_.end() ? nullptr : it->second;
}

void Daemon::schedule(const std::shared_ptr<ConnState>& cs) {
  bool spawn = false;
  {
    support::MutexLock lk(cs->inbox_mu);
    if (!cs->scheduled && !cs->inbox.empty()) {
      cs->scheduled = true;
      spawn = true;
    }
  }
  if (spawn) pool_->submit([this, cs] { pump(cs); });
}

void Daemon::pump(const std::shared_ptr<ConnState>& cs) {
  for (;;) {
    Item it;
    {
      support::MutexLock lk(cs->inbox_mu);
      if (cs->inbox.empty()) {
        cs->scheduled = false;
        return;
      }
      it = std::move(cs->inbox.front());
      cs->inbox.pop_front();
    }
    process(*cs, it);
  }
}

void Daemon::process(ConnState& cs, Item& it) {
  switch (it.kind) {
    case Item::Kind::Hello:
      handle_hello(cs, it.hello);
      return;
    case Item::Kind::Frame:
      switch (cs.role) {
        case 1:
          if (!session_frame(cs.session, cs.epoch, cs.id, it.frame)) {
            cs.session.reset();
            cs.role = -1;
          }
          return;
        case 2:
          role2_frame(cs, it.frame);
          return;
        case 3:
          role3_frame(cs, it.frame);
          return;
        default:
          return;  // refused connection still draining
      }
    case Item::Kind::Closed:
      if (cs.role == 1 && cs.session) {
        if (stopping_.load()) {
          log_session("sessionEnd", cs.session->id);
          registry_->erase(cs.session, cs.epoch);
        } else {
          // Connection died without a goodbye: park the session so a
          // client riding out a transient partition can resume it.
          log_session("sessionPark", cs.session->id);
          registry_->park(cs.session, cs.epoch);
        }
        cs.session.reset();
      }
      cs.role = -1;
      return;
  }
}

// ------------------------------------------------------------ handshake

void Daemon::handle_hello(ConnState& cs, const Hello& hello) {
  if (hello.magic != kMagic || hello.version != kProtocolVersion) {
    HelloAck nak;
    nak.ok = false;
    server_->send(cs.id, make_hello_ack(nak));
    server_->close_conn(cs.id);
    cs.role = -1;
    return;
  }
  if (hello.clock_scale > 0.0) support::Clock::set_scale(hello.clock_scale);
  if (hello.role == 2) {
    cs.role = 2;
    HelloAck ack;  // no worker session behind a stats channel
    server_->send(cs.id, make_hello_ack(ack));
    return;
  }
  if (hello.role == 3) {
    cs.role = 3;
    HelloAck ack;  // gossip channel: refused when clustering is off
    ack.ok = cluster_ != nullptr;
    server_->send(cs.id, make_hello_ack(ack));
    if (!cluster_) {
      server_->close_conn(cs.id);
      cs.role = -1;
    }
    return;
  }

  cs.role = 1;
  const double hb =
      hello.heartbeat_wall_s > 0.0 ? hello.heartbeat_wall_s : 0.25;

  std::shared_ptr<Session> session;
  std::uint32_t my_epoch = 0;
  bool resumed = false;
  if (hello.resume_session != 0) {
    if (auto s = registry_->find_for_resume(hello.resume_session)) {
      support::MutexLock lk(s->mu);
      // The epoch fence + acked-result pruning is SessionCore's decision
      // (the model checker drives the same call); what follows is epoll
      // bookkeeping: steal the session from whatever connection held it
      // (a half-dead one during an asymmetric partition, or a parked
      // slot). Closing the old connection fires its Closed item, where
      // the epoch bump makes the park a no-op.
      if (s->core.try_resume(hello.resume_epoch, hello.last_acked_seq,
                             my_epoch)) {
        if (s->conn != 0) server_->close_conn(s->conn);
        s->drop_shm();  // the new connection renegotiates below
        s->conn = cs.id;
        s->parked_at = -1.0;
        session = s;
        resumed = true;
      }
    }
  }
  if (!session) {
    session = registry_->create(hello.node_kind);
    support::MutexLock lk(session->mu);
    my_epoch = session->core.fresh_attach();
    session->conn = cs.id;
  }
  cs.session = session;
  cs.epoch = my_epoch;

  HelloAck ack;
  ack.session = session->id;
  ack.epoch = my_epoch;
  ack.resumed = resumed;

  // Colocated fast path: the client asked for shm, so create a named
  // segment and advertise it in the ack. Failure is silent — the ack
  // simply carries no name and the session stays on TCP, which is served
  // identically.
  std::shared_ptr<ShmTransport> shm;
  if (hello.want_shm != 0) {
    ShmOptions so;
    const std::size_t want =
        hello.shm_ring_bytes != 0 ? hello.shm_ring_bytes : (1u << 20);
    so.ring_bytes = std::clamp<std::size_t>(want, 64u << 10, 8u << 20);
    std::string name;
    shm = ShmTransport::create_named(name, so);
    if (shm) {
      ack.shm_name = name;
      ack.shm_ring_bytes = static_cast<std::uint32_t>(shm->ring_bytes());
      support::MutexLock lk(session->mu);
      session->shm = shm;
    }
  }

  server_->send(cs.id, make_hello_ack(ack));
  if (shm) serve_shm_async(session, shm, my_epoch, cs.id);
  support::global_event_log().record(
      "bskd", resumed ? "sessionResume" : "sessionStart",
      static_cast<double>(session->id), session->kind);
  server_->set_heartbeat(cs.id, hb);
}

// ---------------------------------------------------------- role frames

bool Daemon::session_frame(const std::shared_ptr<Session>& s,
                           std::uint32_t epoch, ConnId conn, const Frame& f) {
  switch (f.type) {
    case FrameType::TaskMsg:
      handle_task(*server_, *s, f);
      return true;
    case FrameType::SecureReq: {
      support::MutexLock lk(s->mu);
      s->secured = true;
      reply_to(*server_, *s, Frame{FrameType::SecureAck, {}});
      return true;
    }
    case FrameType::Shutdown:
      // Clean goodbye: retire the session; closing the anchor fires the
      // conn's Closed item, fenced by the epoch.
      log_session("sessionEnd", s->id);
      registry_->erase(s, epoch);
      server_->close_conn(conn);
      return false;
    default:
      return true;  // not meaningful on a worker channel
  }
}

void Daemon::role2_frame(ConnState& cs, const Frame& f) {
  if (f.type == FrameType::Shutdown) {
    server_->close_conn(cs.id);
    cs.role = -1;
    return;
  }
  if (f.type == FrameType::MembershipReq) {
    const auto seq = parse_membership_req(f);
    if (!seq) return;
    MembershipReply rep;
    rep.seq = *seq;
    if (cluster_) {
      rep.ok = true;
      rep.view = cluster_->view();
    }
    server_->send(cs.id, make_membership_rep(rep));
    return;
  }
  const auto req = parse_stats_req(f);
  if (!req) return;  // not meaningful on a stats channel
  StatsReply rep;
  rep.seq = req->seq;
  rep.ok = true;
  rep.text = stats_text(req->what);
  server_->send(cs.id, make_stats_rep(rep));
}

void Daemon::role3_frame(ConnState& cs, const Frame& f) {
  std::optional<Frame> reply;
  const bool keep = cluster_ && cluster_->handle_frame(f, reply);
  if (reply) server_->send(cs.id, *reply);
  if (!keep) {
    server_->close_conn(cs.id);
    cs.role = -1;
  }
}

// ------------------------------------------------------------ shm serve

/// One blocking drain thread per negotiated segment: shm recv waits on a
/// futex once the segment idles, so a dedicated thread is what keeps the
/// colocated round-trip in the microsecond range (an epoll loop cannot
/// wait on a futex in shared memory). Bounded by the number of colocated
/// clients that negotiated shm, not by connection count.
void Daemon::serve_shm_async(std::shared_ptr<Session> s,
                             std::shared_ptr<ShmTransport> shm,
                             std::uint32_t epoch, ConnId conn) {
  support::MutexLock lk(shm_mu_);
  shm_threads_.emplace_back([this, s = std::move(s), shm = std::move(shm),
                             epoch, conn](const std::stop_token& st) {
    support::set_thread_name("bskd-shm");
    serve_shm(st, s, shm, epoch, conn);
  });
}

void Daemon::serve_shm(const std::stop_token& st,
                       const std::shared_ptr<Session>& s,
                       const std::shared_ptr<ShmTransport>& shm,
                       std::uint32_t epoch, ConnId conn) {
  while (!stopping_.load() && !st.stop_requested() && !shm->closed()) {
    Frame f;
    switch (shm->recv_for(f, 0.25)) {
      case RecvStatus::Closed:
        return;  // anchor close parks the session via its Closed item
      case RecvStatus::TimedOut:
        continue;
      case RecvStatus::Ok:
        break;
    }
    if (!session_frame(s, epoch, conn, f)) return;
  }
}

}  // namespace bsk::net
