#include "cluster/node.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "net/remote_conduit.hpp"
#include "obs/metrics.hpp"
#include "support/event_log.hpp"
#include "support/thread_name.hpp"

namespace bsk::cluster {

namespace {

struct ClusterObs {
  obs::Counter& joins =
      obs::counter("bsk_cluster_joins_total", "members joined the view");
  obs::Counter& leaves =
      obs::counter("bsk_cluster_leaves_total", "members left the view");
  obs::Counter& evictions = obs::counter(
      "bsk_cluster_evictions_total", "members evicted on gossip-dial silence");
  obs::Counter& gossip = obs::counter("bsk_cluster_gossip_total",
                                      "gossip exchanges completed");
  obs::Counter& gossip_failures = obs::counter(
      "bsk_cluster_gossip_failures_total", "gossip dials/handshakes failed");
  obs::Counter& gossip_tx_bytes =
      obs::counter("bsk_cluster_gossip_tx_bytes_total",
                   "gossip payload bytes sent (hellos dialed + welcomes)");
  obs::Counter& gossip_rx_bytes =
      obs::counter("bsk_cluster_gossip_rx_bytes_total",
                   "gossip payload bytes received");
  obs::Counter& gossip_full = obs::counter(
      "bsk_cluster_gossip_full_total", "full-table gossip payloads sent");
  obs::Counter& gossip_delta = obs::counter(
      "bsk_cluster_gossip_delta_total", "delta gossip payloads sent");
  obs::Counter& stale_epochs = obs::counter(
      "bsk_cluster_stale_epochs_total",
      "views/claims rejected or outranked by the epoch fence");
  obs::Gauge& members =
      obs::gauge("bsk_cluster_members", "live members in the local view");
  obs::Gauge& epoch =
      obs::gauge("bsk_cluster_epoch", "local membership epoch");
};

ClusterObs& cluster_obs() {
  static ClusterObs o;
  return o;
}

constexpr const char* kBeaconGroup = "239.255.77.77";
constexpr std::uint32_t kBeaconMagic = 0x42534b42;  // "BSKB"

/// After sending Shutdown, wait for the peer to close first: the side that
/// initiates the TCP close eats the TIME_WAIT, and a dialer that
/// active-closes hundreds of gossip exchanges per second across a large
/// fleet exhausts its ephemeral port range long before the fleet converges.
void drain_until_closed(net::Transport& tp, double timeout_s) {
  net::Frame f;
  const double deadline = net::wall_now() + timeout_s;
  while (net::wall_now() < deadline &&
         tp.recv_for(f, deadline - net::wall_now()) == net::RecvStatus::Ok) {
  }
}

}  // namespace

std::uint64_t fresh_incarnation() {
  // System-clock microseconds: strictly increasing across restarts of the
  // same endpoint as long as the clock does not step backwards, which is
  // all the tombstone ordering needs.
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

ClusterNode::ClusterNode(net::Member self, ClusterOptions opts)
    : self_(std::move(self)),
      opts_(std::move(opts)),
      gs_(net::Member{}) {
  if (self_.born == 0) self_.born = fresh_incarnation();
  self_key_ = self_.key();
  {
    support::MutexLock lk(mu_);
    gs_ = GossipState(self_);
    cluster_obs().members.set(1.0);
    cluster_obs().epoch.set(static_cast<double>(gs_.table.epoch()));
  }
  if (!opts_.connect_fn) {
    const net::TcpOptions tcp = opts_.tcp;
    opts_.connect_fn =
        [tcp](const net::Endpoint& ep) -> std::shared_ptr<net::Transport> {
      return net::TcpTransport::connect(ep.host, ep.port, tcp);
    };
  }
  // Per-node seed: incarnation stamp alone is not enough — an in-process
  // fleet constructs many nodes within the same microsecond.
  rng_seed_ = self_.born ^ (static_cast<std::uint64_t>(self_.port) << 48) ^
              reinterpret_cast<std::uintptr_t>(this);
  if (opts_.jitter > 0.0) {
    support::Rng boot(rng_seed_ ^ 0xb007ull);
    boot_phase_s_ = boot.uniform(0.0, opts_.gossip_period_wall_s);
  }
  support::global_event_log().record("cluster", "selfStart",
                                     static_cast<double>(self_.port),
                                     self_key_);
}

ClusterNode::~ClusterNode() { stop(false); }

void ClusterNode::rebind_self(std::uint16_t port) {
  support::MutexLock lk(mu_);
  self_.port = port;
  self_key_ = self_.key();
  gs_ = GossipState(self_);
  suspects_.clear();
}

void ClusterNode::start() {
  if (running_.exchange(true)) return;
  gossip_ = std::jthread([this](std::stop_token st) {
    support::set_thread_name("node-gossip");
    gossip_loop(st);
  });
  if (opts_.beacon_port)
    beacon_ = std::jthread([this](std::stop_token st) {
      support::set_thread_name("node-beacon");
      beacon_loop(st);
    });
}

void ClusterNode::stop(bool broadcast) {
  if (!running_.exchange(false)) return;
  if (gossip_.joinable()) {
    gossip_.request_stop();
    gossip_.join();
  }
  if (beacon_.joinable()) {
    beacon_.request_stop();
    beacon_.join();
  }
  if (broadcast) broadcast_leave();
}

// --------------------------------------------------------------- queries

net::MembershipView ClusterNode::view() const {
  support::MutexLock lk(mu_);
  return gs_.table.view();
}

HierarchyView ClusterNode::hierarchy() const {
  support::MutexLock lk(mu_);
  return elect(gs_.table.view(), opts_.fanout);
}

std::uint64_t ClusterNode::epoch() const {
  support::MutexLock lk(mu_);
  return gs_.table.epoch();
}

std::size_t ClusterNode::members() const {
  support::MutexLock lk(mu_);
  return gs_.table.size();
}

bool ClusterNode::accepts_parent(const std::string& key,
                                 std::uint64_t claimed_epoch) const {
  HierarchyView h;
  {
    support::MutexLock lk(mu_);
    h = elect(gs_.table.view(), opts_.fanout);
  }
  const bool ok = h.accepts_parent(self_key_, key, claimed_epoch);
  if (!ok) cluster_obs().stale_epochs.inc();
  return ok;
}

void ClusterNode::set_on_change(
    std::function<void(std::size_t, std::size_t, const net::MembershipView&)>
        fn) {
  support::MutexLock lk(mu_);
  on_change_ = std::move(fn);
}

// ------------------------------------------------------------- mutations

void ClusterNode::apply_delta(const MergeDelta& d) {
  if (!d.changed()) return;
  net::MembershipView v;
  std::function<void(std::size_t, std::size_t, const net::MembershipView&)>
      cb;
  {
    support::MutexLock lk(mu_);
    v = gs_.table.view();
    cb = on_change_;
  }
  ClusterObs& o = cluster_obs();
  o.joins.inc(d.joined);
  o.leaves.inc(d.left);
  o.members.set(static_cast<double>(v.members.size()));
  o.epoch.set(static_cast<double>(v.epoch));
  if (d.joined > 0)
    support::global_event_log().record(
        "cluster", "join", static_cast<double>(d.joined), self_key_);
  if (d.left > 0)
    support::global_event_log().record(
        "cluster", "leave", static_cast<double>(d.left), self_key_);
  if (cb) cb(d.joined, d.left, v);
}

void ClusterNode::sighted(const net::Member& m) {
  if (m.key() == self_key_ || m.port == 0) return;
  MergeDelta d;
  {
    support::MutexLock lk(mu_);
    d = gs_.table.add(m);
  }
  apply_delta(d);
}

void ClusterNode::peer_left(const net::LeaveMsg& msg) {
  MergeDelta d;
  {
    support::MutexLock lk(mu_);
    d = gs_.table.remove(msg.self.key(), msg.self.born);
    forget_peer(msg.self.key());
  }
  apply_delta(d);
}

// ---------------------------------------------------------------- gossip

std::shared_ptr<net::Transport> ClusterNode::dial(const net::Endpoint& ep) {
  auto tp = opts_.connect_fn(ep);
  if (!tp) return nullptr;
  net::Hello hello;
  hello.role = 3;
  if (!net::client_handshake(*tp, hello, opts_.handshake_timeout_wall_s)) {
    tp->close();
    return nullptr;
  }
  return tp;
}

void ClusterNode::note_dial_failed(const std::string& member_key) {
  cluster_obs().gossip_failures.inc();
  if (member_key.empty()) return;  // seeds are never evicted
  DialFailure df;
  {
    support::MutexLock lk(mu_);
    df = gossip_dial_failed(gs_, member_key, opts_.suspect_after);
    if (df.suspect && opts_.suspect_queue > 0 &&
        suspects_.size() < opts_.suspect_queue &&
        std::find(suspects_.begin(), suspects_.end(), member_key) ==
            suspects_.end()) {
      suspects_.push_back(member_key);
    }
    if (df.evicted) {
      const auto it = std::find(suspects_.begin(), suspects_.end(),
                                member_key);
      if (it != suspects_.end()) suspects_.erase(it);
    }
  }
  if (df.evicted && df.delta.changed()) {
    evictions_.fetch_add(1, std::memory_order_relaxed);
    cluster_obs().evictions.inc();
    support::global_event_log().record("cluster", "evict", 0.0, member_key);
    apply_delta(df.delta);
  }
}

void ClusterNode::forget_peer(const std::string& key) {
  gossip_forget_peer(gs_, key);
  const auto it = std::find(suspects_.begin(), suspects_.end(), key);
  if (it != suspects_.end()) suspects_.erase(it);
}

double ClusterNode::jittered(double period_s, support::Rng& rng) const {
  if (opts_.jitter <= 0.0) return period_s;
  return period_s * (1.0 + opts_.jitter * rng.uniform(-1.0, 1.0));
}

void ClusterNode::interruptible_sleep(const std::stop_token& st, double s) {
  double remaining = s;
  while (remaining > 0.0 && !st.stop_requested()) {
    const double slice = std::min(remaining, 0.05);
    std::this_thread::sleep_for(std::chrono::duration<double>(slice));
    remaining -= slice;
  }
}

void ClusterNode::gossip_with(const net::Endpoint& ep,
                              const std::string& member_key) {
  auto tp = dial(ep);
  if (!tp) {
    note_dial_failed(member_key);
    return;
  }

  ClusterObs& o = cluster_obs();
  const GossipConfig cfg{.delta_gossip = opts_.delta_gossip};
  HelloBuild hb;
  {
    support::MutexLock lk(mu_);
    hb = gossip_build_hello(gs_, member_key, cfg);
    const auto it = std::find(suspects_.begin(), suspects_.end(), member_key);
    if (it != suspects_.end()) suspects_.erase(it);
  }
  const net::ClusterHelloMsg& hello = hb.msg;
  const net::Frame hf = net::make_cluster_hello(hello);
  o.gossip_tx_bytes.inc(hf.payload.size());
  if (hello.full) {
    o.gossip_full.inc();
    full_exchanges_.fetch_add(1, std::memory_order_relaxed);
  } else {
    o.gossip_delta.inc();
    delta_exchanges_.fetch_add(1, std::memory_order_relaxed);
  }
  bool ok = tp->send(hf);
  if (ok) {
    net::Frame f;
    const double deadline =
        net::wall_now() + opts_.handshake_timeout_wall_s;
    ok = false;
    while (net::wall_now() < deadline) {
      const auto st = tp->recv_for(f, deadline - net::wall_now());
      if (st != net::RecvStatus::Ok) break;
      if (f.type != net::FrameType::ClusterWelcome) continue;
      if (const auto welcome = net::parse_cluster_welcome(f)) {
        o.gossip_rx_bytes.inc(f.payload.size());
        WelcomeApply wa;
        {
          support::MutexLock lk(mu_);
          wa = gossip_apply_welcome(gs_, member_key, hb.sent_epoch, *welcome,
                                    /*self_defend=*/running_.load(), cfg);
        }
        if (wa.stale_epoch) cluster_obs().stale_epochs.inc();
        apply_delta(wa.delta);
        ok = true;
      }
      break;
    }
  }
  if (ok) {
    gossip_rounds_.fetch_add(1, std::memory_order_relaxed);
    cluster_obs().gossip.inc();
  } else {
    cluster_obs().gossip_failures.inc();
  }
  tp->send(net::Frame{net::FrameType::Shutdown, {}});
  drain_until_closed(*tp, 0.25);
  tp->close();
}

void ClusterNode::gossip_loop(const std::stop_token& st) {
  support::Rng rng(rng_seed_ ^ 0x605517ull);
  // Random initial phase: a launcher that forks the whole fleet in one
  // loop must not have every daemon dial the seed on the same tick.
  if (boot_phase_s_ > 0.0) interruptible_sleep(st, boot_phase_s_);
  std::size_t seed_rotate = 0;
  while (!st.stop_requested()) {
    // Pick this tick's targets under the lock, talk outside it.
    std::vector<std::pair<net::Endpoint, std::string>> targets;
    const auto want = [&targets](const std::string& key) {
      for (const auto& [ep, k] : targets)
        if (k == key) return false;
      return true;
    };
    {
      support::MutexLock lk(mu_);
      const net::MembershipView v = gs_.table.view();
      std::vector<net::Member> others;
      for (const net::Member& m : v.members)
        if (m.key() != self_key_) others.push_back(m);
      if (others.empty()) {
        if (!opts_.seeds.empty()) {
          const net::Endpoint& s =
              opts_.seeds[seed_rotate++ % opts_.seeds.size()];
          if (!(s.host == self_.host && s.port == self_.port))
            targets.emplace_back(s, std::string{});
        }
      } else {
        // A queued suspect first: eviction latency must stay
        // ~suspect_after ticks, not wait for the rotation to come back
        // around the whole fleet.
        if (!suspects_.empty()) {
          const std::string sk = suspects_.front();
          suspects_.pop_front();
          for (const net::Member& m : others)
            if (m.key() == sk) {
              targets.emplace_back(net::Endpoint{m.host, m.port}, sk);
              break;
            }
        }
        // The root next (membership authority: views converge through it)
        // — but probabilistically at scale, so its expected inbound load
        // stays ~root_fanout dials per period regardless of fleet size.
        // The whole fleet hammering the root every tick is the other half
        // of the boot storm.
        const HierarchyView h = elect(v, opts_.fanout);
        const std::string root = h.root_key();
        if (root != self_key_ && want(root)) {
          const bool dial_root =
              others.size() <= opts_.root_fanout ||
              rng.chance(static_cast<double>(opts_.root_fanout) /
                         static_cast<double>(others.size()));
          if (dial_root) {
            for (const net::Member& m : others)
              if (m.key() == root) {
                targets.emplace_back(net::Endpoint{m.host, m.port}, root);
                break;
              }
          }
        }
        // And a rotating other member for anti-entropy breadth.
        const net::Member& pick = others[rotate_++ % others.size()];
        if (pick.key() != root && want(pick.key()))
          targets.emplace_back(net::Endpoint{pick.host, pick.port},
                               pick.key());
      }
    }
    for (const auto& [ep, key] : targets) {
      if (st.stop_requested()) break;
      gossip_with(ep, key);
    }
    interruptible_sleep(st, jittered(opts_.gossip_period_wall_s, rng));
  }
}

// ----------------------------------------------------------------- serve

bool ClusterNode::handle_frame(const net::Frame& f,
                               std::optional<net::Frame>& reply) {
  switch (f.type) {
    case net::FrameType::ClusterHello: {
      const auto msg = net::parse_cluster_hello(f);
      if (!msg) return true;
      ClusterObs& o = cluster_obs();
      o.gossip_rx_bytes.inc(f.payload.size());
      const GossipConfig cfg{.delta_gossip = opts_.delta_gossip};
      WelcomeBuild wb;
      {
        support::MutexLock lk(mu_);
        wb = gossip_handle_hello(gs_, *msg, /*self_defend=*/running_.load(),
                                 cfg);
      }
      if (wb.stale_epoch) o.stale_epochs.inc();
      apply_delta(wb.delta);
      const net::ClusterWelcomeMsg& wel = wb.msg;
      reply = net::make_cluster_welcome(wel);
      o.gossip_tx_bytes.inc(reply->payload.size());
      if (wel.full) {
        o.gossip_full.inc();
        full_exchanges_.fetch_add(1, std::memory_order_relaxed);
      } else {
        o.gossip_delta.inc();
        delta_exchanges_.fetch_add(1, std::memory_order_relaxed);
      }
      return true;
    }
    case net::FrameType::Leave: {
      if (const auto msg = net::parse_leave(f)) peer_left(*msg);
      return true;
    }
    case net::FrameType::Shutdown:
      return false;
    default:
      return true;  // not meaningful on a cluster channel
  }
}

void ClusterNode::serve(net::Transport& tp) {
  while (true) {
    net::Frame f;
    switch (tp.recv_for(f, 2.0)) {
      case net::RecvStatus::Closed:
        return;
      case net::RecvStatus::TimedOut:
        return;  // gossip exchanges are short; idle means done
      case net::RecvStatus::Ok:
        break;
    }
    std::optional<net::Frame> reply;
    const bool keep = handle_frame(f, reply);
    if (reply) tp.send(*reply);
    if (!keep) return;
  }
}

void ClusterNode::broadcast_leave() {
  net::LeaveMsg msg;
  msg.self = self_;
  std::vector<net::Endpoint> peers;
  {
    support::MutexLock lk(mu_);
    msg.epoch = gs_.table.epoch() + 1;
    for (const net::Member& m : gs_.table.view().members)
      if (m.key() != self_key_) peers.push_back({m.host, m.port});
  }
  for (const net::Endpoint& ep : peers) {
    auto tp = dial(ep);
    if (!tp) {
      support::global_event_log().record(
          "cluster", "leaveDialFail", 0.0,
          ep.host + ":" + std::to_string(ep.port));
      continue;
    }
    tp->send(net::make_leave(msg));
    tp->send(net::Frame{net::FrameType::Shutdown, {}});
    drain_until_closed(*tp, 0.1);
    tp->close();
  }
  support::global_event_log().record("cluster", "selfLeave", 0.0, self_key_);
}

// ---------------------------------------------------------------- beacon

void ClusterNode::beacon_loop(const std::stop_token& st) {
  const std::uint16_t port = *opts_.beacon_port;
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
#ifdef SO_REUSEPORT
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
#endif
  sockaddr_in bind_addr{};
  bind_addr.sin_family = AF_INET;
  bind_addr.sin_addr.s_addr = htonl(INADDR_ANY);
  bind_addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&bind_addr),
             sizeof(bind_addr)) != 0) {
    ::close(fd);
    return;
  }
  ip_mreq mreq{};
  ::inet_pton(AF_INET, kBeaconGroup, &mreq.imr_multiaddr);
  mreq.imr_interface.s_addr = htonl(INADDR_LOOPBACK);
  // Loopback multicast: members on the same host all receive a copy. If
  // the environment refuses the group, discovery degrades to the seed
  // list — the beacon is purely additive.
  if (::setsockopt(fd, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq, sizeof(mreq)) !=
      0) {
    ::close(fd);
    return;
  }
  in_addr iface{};
  iface.s_addr = htonl(INADDR_LOOPBACK);
  ::setsockopt(fd, IPPROTO_IP, IP_MULTICAST_IF, &iface, sizeof(iface));
  unsigned char loop = 1;
  ::setsockopt(fd, IPPROTO_IP, IP_MULTICAST_LOOP, &loop, sizeof(loop));

  sockaddr_in group{};
  group.sin_family = AF_INET;
  ::inet_pton(AF_INET, kBeaconGroup, &group.sin_addr);
  group.sin_port = htons(port);

  net::wire::Writer w;
  w.u32(kBeaconMagic);
  net::put_member(w, self_);
  const std::vector<std::uint8_t> announce = w.take();

  // Random initial phase + jittered period: N daemons forked together must
  // not all announce (and trigger each other's gossip) on the same tick.
  support::Rng rng(rng_seed_ ^ 0xbeac0ull);
  double next_send = 0.0;
  if (opts_.jitter > 0.0)
    next_send = net::wall_now() + rng.uniform(0.0, opts_.beacon_period_wall_s);
  while (!st.stop_requested()) {
    if (net::wall_now() >= next_send) {
      ::sendto(fd, announce.data(), announce.size(), 0,
               reinterpret_cast<sockaddr*>(&group), sizeof(group));
      next_send = net::wall_now() + jittered(opts_.beacon_period_wall_s, rng);
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) > 0 && (pfd.revents & POLLIN)) {
      std::uint8_t buf[512];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        net::wire::Reader r(buf, static_cast<std::size_t>(n));
        net::Member m;
        if (r.u32() == kBeaconMagic && net::get_member(r, m) &&
            m.key() != self_key_) {
          support::global_event_log().record("cluster", "beacon",
                                             static_cast<double>(m.port),
                                             m.key());
          sighted(m);
        }
      }
    }
  }
  ::close(fd);
}

// ----------------------------------------------------------- ClusterHost

ClusterHost::ClusterHost(ClusterNode& node, std::uint16_t port) : node_(node) {
  net::EpollOptions opts;
  opts.port = port;
  server_ = std::make_unique<net::EpollServer>(
      static_cast<net::EpollServer::Handler&>(*this), opts);
  server_->start();
}

ClusterHost::~ClusterHost() { stop(); }

void ClusterHost::stop() {
  if (server_) server_->stop();
}

void ClusterHost::on_hello(net::EpollServer::ConnId c, const net::Hello& h) {
  net::HelloAck ack;
  ack.ok = h.magic == net::kMagic && h.version == net::kProtocolVersion &&
           h.role == 3;
  server_->send(c, net::make_hello_ack(ack));
  if (!ack.ok) server_->close_conn(c);
}

void ClusterHost::on_frame(net::EpollServer::ConnId c, net::Frame&& f) {
  // Gossip frames are cheap (one table merge under the node's mutex), so
  // they are handled inline on the loop thread.
  std::optional<net::Frame> reply;
  const bool keep = node_.handle_frame(f, reply);
  if (reply) server_->send(c, *reply);
  if (!keep) server_->close_conn(c);
}

void ClusterHost::on_closed(net::EpollServer::ConnId) {}

}  // namespace bsk::cluster
