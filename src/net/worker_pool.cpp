#include "net/worker_pool.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "net/shm.hpp"
#include "support/clock.hpp"
#include "support/thread_name.hpp"

namespace bsk::net {

namespace {

std::string endpoint_key(const Endpoint& ep) {
  return ep.host + ":" + std::to_string(ep.port);
}

// Only loopback endpoints can share memory with the daemon.
bool is_local(const Endpoint& ep) {
  return ep.host == "127.0.0.1" || ep.host == "localhost" ||
         ep.host == "::1";
}

}  // namespace

WorkerPool::WorkerPool(std::vector<Endpoint> endpoints, WorkerPoolOptions opts)
    : opts_(std::move(opts)), endpoints_(std::move(endpoints)) {
  if (!opts_.local_fallback)
    opts_.local_fallback = [] { return std::make_unique<rt::SimComputeNode>(); };
  if (opts_.chaos)
    plan_ = std::make_shared<FaultPlan>(opts_.chaos_seed, *opts_.chaos);
}

WorkerPool::~WorkerPool() { stop_watch(); }

Hello WorkerPool::hello_template() const {
  Hello hello;
  hello.role = 0;
  hello.node_kind = opts_.node_kind;
  hello.clock_scale = support::Clock::scale();
  hello.heartbeat_wall_s = opts_.heartbeat_wall_s;
  return hello;
}

std::shared_ptr<Transport> WorkerPool::wrap(std::shared_ptr<Transport> tp,
                                            const std::string& stream) {
  if (!plan_) return tp;
  auto inj = std::make_shared<FaultInjector>(std::move(tp), plan_, stream);
  {
    support::MutexLock lk(mu_);
    injectors_.push_back(inj);
  }
  return inj;
}

bool WorkerPool::quarantined(const Endpoint& ep) const {
  support::MutexLock lk(mu_);
  auto it = quarantine_.find(endpoint_key(ep));
  return it != quarantine_.end() && it->second.until > wall_now();
}

void WorkerPool::decay_quarantine(double now) {
  for (auto it = quarantine_.begin(); it != quarantine_.end();) {
    Quarantine& q = it->second;
    if (q.until >= 0.0 && q.until <= now) {
      // Penalty served: clean slate. Forgetting the failure history too is
      // the point — a re-admitted flapper must fail `threshold` more times
      // before it is quarantined again, not once.
      it = quarantine_.erase(it);
      continue;
    }
    if (q.until < 0.0) {
      while (!q.failures.empty() &&
             now - q.failures.front() > opts_.quarantine_window_wall_s)
        q.failures.pop_front();
      if (q.failures.empty()) {
        it = quarantine_.erase(it);
        continue;
      }
    }
    ++it;
  }
}

void WorkerPool::note_endpoint_failure(const Endpoint& ep) {
  endpoint_failures_.fetch_add(1, std::memory_order_relaxed);
  if (opts_.quarantine_threshold == 0) return;
  const double now = wall_now();
  support::MutexLock lk(mu_);
  decay_quarantine(now);
  Quarantine& q = quarantine_[endpoint_key(ep)];
  q.failures.push_back(now);
  while (!q.failures.empty() &&
         now - q.failures.front() > opts_.quarantine_window_wall_s)
    q.failures.pop_front();
  if (q.failures.size() >= opts_.quarantine_threshold)
    q.until = now + opts_.quarantine_wall_s;
}

std::size_t WorkerPool::quarantined_count() const {
  const double now = wall_now();
  support::MutexLock lk(mu_);
  std::size_t n = 0;
  for (const auto& [key, q] : quarantine_)
    if (q.until > now) ++n;
  return n;
}

ChaosStats WorkerPool::chaos_stats() const {
  ChaosStats sum;
  support::MutexLock lk(mu_);
  for (const auto& inj : injectors_) {
    const ChaosStats s = inj->chaos_stats();
    sum.frames_seen += s.frames_seen;
    sum.dropped += s.dropped;
    sum.duplicated += s.duplicated;
    sum.reordered += s.reordered;
    sum.corrupted += s.corrupted;
    sum.delayed += s.delayed;
    sum.blocked_outbound += s.blocked_outbound;
    sum.stalled_inbound += s.stalled_inbound;
    sum.kills += s.kills;
  }
  return sum;
}

std::vector<Endpoint> WorkerPool::current_endpoints() const {
  support::MutexLock lk(mu_);
  return endpoints_;
}

std::optional<WorkerPool::Connected> WorkerPool::connect_one() {
  if (opts_.endpoint_source) {
    // Live recruitment: the fleet as of now, not as of construction.
    std::vector<Endpoint> fresh = opts_.endpoint_source();
    support::MutexLock lk(mu_);
    endpoints_ = std::move(fresh);
  }
  std::vector<Endpoint> eps;
  {
    support::MutexLock lk(mu_);
    decay_quarantine(wall_now());
    eps = endpoints_;
  }
  const std::size_t n = eps.size();
  for (std::size_t i = 0; i < n; ++i) {
    Endpoint ep;
    std::string stream;
    {
      support::MutexLock lk(mu_);
      ep = eps[rr_ % n];
      rr_ = (rr_ + 1) % n;
      stream = "w" + std::to_string(conn_count_);
    }
    if (quarantined(ep)) continue;  // flapping endpoint: stop re-recruiting
    auto raw = TcpTransport::connect(ep.host, ep.port, opts_.tcp);
    if (!raw) continue;
    {
      support::MutexLock lk(mu_);
      ++conn_count_;
    }

    // Wrap before the handshake: once chaos is on, *every* frame of the
    // session — Hello included — crosses the injector.
    std::shared_ptr<Transport> tp = wrap(std::move(raw), stream);
    Hello h = hello_template();
    if (opts_.allow_shm && is_local(ep)) {
      h.want_shm = 1;
      h.shm_ring_bytes = static_cast<std::uint32_t>(opts_.shm_ring_bytes);
    }
    HelloAck ack;
    if (client_handshake(*tp, h, opts_.handshake_timeout_wall_s, &ack)) {
      tp = maybe_attach_shm(std::move(tp), ack, stream);
      return Connected{std::move(tp), ack, ep, stream};
    }
    tp->close();
  }
  return std::nullopt;
}

std::shared_ptr<Transport> WorkerPool::maybe_attach_shm(
    std::shared_ptr<Transport> tp, const HelloAck& ack,
    const std::string& stream) {
  if (ack.shm_name.empty()) return tp;
  ShmOptions so;
  if (ack.shm_ring_bytes != 0) so.ring_bytes = ack.shm_ring_bytes;
  // The session transport — chaos-wrapped or raw — is the anchor: its
  // heartbeats keep liveness detection working and control frames sent
  // over TCP still surface through the shm transport's anchor polling.
  auto shm = ShmTransport::attach_named(ack.shm_name, tp, so);
  if (!shm) return tp;  // stay on TCP; the daemon serves both identically
  shm_attached_.fetch_add(1, std::memory_order_relaxed);
  // Distinct chaos stream: the shm path draws its own fault schedule so a
  // plan written against "w0" keeps its meaning on the anchor.
  return wrap(std::move(shm), stream + "s");
}

std::unique_ptr<rt::Node> WorkerPool::make_node() {
  {
    if (auto c = connect_one()) {
      remote_created_.fetch_add(1, std::memory_order_relaxed);
      RemoteNodeOptions nopts = opts_.node;
      nopts.hello = hello_template();
      nopts.session = c->ack.session;
      nopts.epoch = c->ack.epoch;
      nopts.handshake_timeout_wall_s = opts_.handshake_timeout_wall_s;
      const Endpoint ep = c->ep;
      if (opts_.allow_shm && is_local(ep)) {
        // Resume handshakes re-negotiate the fast path too, and the
        // post-handshake upgrade re-attaches the fresh segment before the
        // unacked replay rides it.
        nopts.hello.want_shm = 1;
        nopts.hello.shm_ring_bytes =
            static_cast<std::uint32_t>(opts_.shm_ring_bytes);
        const std::string stream = c->stream;
        nopts.upgrade = [this, stream](std::shared_ptr<Transport> tp,
                                       const HelloAck& ack) {
          return maybe_attach_shm(std::move(tp), ack, stream + "r");
        };
      }
      nopts.on_hard_fail = [this, ep] { note_endpoint_failure(ep); };
      if (nopts.reconnect_grace_wall_s > 0.0) {
        // Resume stays pinned to the endpoint that owns the session. One
        // connect attempt per call — the node paces retries with its own
        // backoff inside the grace window. While the fault plan has an
        // open partition, the "network" is down: dialing must fail.
        const std::string stream = c->stream;
        TcpOptions one_shot = opts_.tcp;
        one_shot.connect_retries = 0;
        nopts.reconnect = [this, ep, stream,
                           one_shot]() -> std::shared_ptr<Transport> {
          if (plan_ && (plan_->partition_elapsed(true) ||
                        plan_->partition_elapsed(false)))
            return nullptr;
          auto raw = TcpTransport::connect(ep.host, ep.port, one_shot);
          if (!raw) return nullptr;
          return wrap(std::move(raw), stream);
        };
      }
      return std::make_unique<RemoteWorkerNode>(std::move(c->tp),
                                                std::move(nopts));
    }
  }
  fallback_created_.fetch_add(1, std::memory_order_relaxed);
  return opts_.local_fallback();
}

rt::NodeFactory WorkerPool::factory() {
  return [this] { return make_node(); };
}

void WorkerPool::start_watch(rt::Farm& farm, double period_wall_s) {
  if (watch_.joinable()) return;
  watch_ = std::jthread([this, &farm, period_wall_s](std::stop_token st) {
    support::set_thread_name("pool-watcher");
    while (!st.stop_requested()) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(period_wall_s));
      const std::size_t n = farm.fail_crashed_workers();
      if (n > 0) crashes_.fetch_add(n, std::memory_order_relaxed);
    }
  });
}

void WorkerPool::stop_watch() {
  if (watch_.joinable()) {
    watch_.request_stop();
    watch_.join();
  }
}

// --------------------------------------------------------- bskd processes

BskdProcess spawn_bskd(const std::string& exe_path, double wait_wall_s,
                       const std::vector<std::string>& extra_args) {
  BskdProcess out;

  // Per-run private directory under $TMPDIR (not a predictable /tmp name):
  // parallel CI jobs each get their own, and nobody can pre-create or race
  // the port file.
  const char* tmpdir = std::getenv("TMPDIR");
  std::string dir_tmpl = (tmpdir && *tmpdir) ? tmpdir : "/tmp";
  if (dir_tmpl.back() == '/') dir_tmpl.pop_back();
  dir_tmpl += "/bskd.XXXXXX";
  std::vector<char> dir_buf(dir_tmpl.begin(), dir_tmpl.end());
  dir_buf.push_back('\0');
  if (::mkdtemp(dir_buf.data()) == nullptr) return out;
  const std::string run_dir = dir_buf.data();
  const std::string port_file = run_dir + "/port";

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::rmdir(run_dir.c_str());
    return out;
  }
  if (pid == 0) {
    std::vector<const char*> argv;
    argv.push_back(exe_path.c_str());
    argv.push_back("--port");
    argv.push_back("0");
    argv.push_back("--port-file");
    argv.push_back(port_file.c_str());
    for (const std::string& a : extra_args) argv.push_back(a.c_str());
    argv.push_back(nullptr);
    ::execv(exe_path.c_str(), const_cast<char* const*>(argv.data()));
    ::_exit(127);  // exec failed
  }

  out.pid = pid;
  const double deadline = wall_now() + wait_wall_s;
  while (wall_now() < deadline) {
    {
      std::ifstream in(port_file);
      unsigned port = 0;
      if (in >> port && port != 0 && port <= 65535) {
        out.port = static_cast<std::uint16_t>(port);
        break;
      }
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      out.pid = -1;  // daemon died before binding
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::unlink(port_file.c_str());
  ::rmdir(run_dir.c_str());

  if (!out.valid() && out.pid > 0) {
    ::kill(out.pid, SIGKILL);
    ::waitpid(out.pid, nullptr, 0);
    out.pid = -1;
  }
  return out;
}

void stop_bskd(BskdProcess& p, int sig) {
  if (p.pid <= 0) return;
  ::kill(p.pid, sig);
  ::waitpid(p.pid, nullptr, 0);
  p.pid = -1;
}

std::optional<std::string> pull_bskd_stats(const Endpoint& ep,
                                           StatsRequest::What what,
                                           double timeout_wall_s) {
  auto tp = TcpTransport::connect(ep.host, ep.port);
  if (!tp) return std::nullopt;
  Hello h;
  h.role = 2;  // stats channel: no worker session behind it
  if (!client_handshake(*tp, h, timeout_wall_s)) {
    tp->close();
    return std::nullopt;
  }
  StatsRequest req;
  req.seq = 1;
  req.what = what;
  if (!tp->send(make_stats_req(req))) {
    tp->close();
    return std::nullopt;
  }
  const double deadline = wall_now() + timeout_wall_s;
  Frame f;
  std::optional<std::string> out;
  for (;;) {
    const double left = deadline - wall_now();
    if (left <= 0.0) break;
    if (tp->recv_for(f, left) != RecvStatus::Ok) break;
    const auto rep = parse_stats_rep(f);
    if (!rep || rep->seq != req.seq) continue;
    if (rep->ok) out = rep->text;
    break;
  }
  tp->send(Frame{FrameType::Shutdown, {}});
  tp->close();
  return out;
}

}  // namespace bsk::net
