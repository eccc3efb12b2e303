#include "analysis/mc/gossip_model.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace bsk::analysis::mc {

using cluster::GossipConfig;
using cluster::GossipDefect;
using cluster::GossipState;

namespace {

std::string key_for(std::size_t i) { return GossipModel::member_for(i).key(); }

/// Canonical record-set of a table: "M|key|born" / "T|key|born" strings.
/// Epochs excluded — two converged tables may sit at different epochs for
/// a tick; the sets are what the application observes.
std::set<std::string> record_set(const GossipState& st,
                                 bool members_only = false) {
  std::set<std::string> out;
  const net::MembershipView v = st.table.view();
  for (const net::Member& m : v.members)
    out.insert("M|" + m.key() + "|" + std::to_string(m.born));
  if (!members_only)
    for (const net::Departed& d : v.departed)
      out.insert("T|" + d.key + "|" + std::to_string(d.born));
  return out;
}

/// Would merging this record into `t` change anything the receiver acts
/// on? A dominated record is one the receiver already outranks; only
/// non-dominated records are owed to it by a sufficient delta.
bool dominates_member(const net::MembershipView& v, const std::string& key,
                      std::uint64_t born) {
  for (const net::Member& m : v.members)
    if (m.key() == key && m.born >= born) return true;
  for (const net::Departed& d : v.departed)
    if (d.key == key && d.born >= born) return true;
  return false;
}

bool dominates_tomb(const net::MembershipView& v, const std::string& key,
                    std::uint64_t born) {
  for (const net::Departed& d : v.departed)
    if (d.key == key && d.born >= born) return true;
  for (const net::Member& m : v.members)
    if (m.key() == key && m.born > born) return true;
  return false;
}

bool payload_has_member(const net::MembershipView& p, const net::Member& m,
                        const net::Member* hello_self) {
  if (hello_self != nullptr && hello_self->key() == m.key() &&
      hello_self->born >= m.born)
    return true;
  for (const net::Member& pm : p.members)
    if (pm.key() == m.key() && pm.born >= m.born) return true;
  return false;
}

bool payload_has_tomb(const net::MembershipView& p, const net::Departed& d) {
  for (const net::Departed& pd : p.departed)
    if (pd.key == d.key && pd.born >= d.born) return true;
  return false;
}

void serialize_view(std::ostringstream& os, const net::MembershipView& v) {
  os << "e" << v.epoch << "{";
  for (const net::Member& m : v.members)
    os << "M" << m.key() << ":" << m.born << ";";
  for (const net::Departed& d : v.departed)
    os << "T" << d.key << ":" << d.born << ";";
  os << "}";
}

void serialize_gossip_state(std::ostringstream& os, const GossipState& st) {
  serialize_view(os, st.table.view());
  os << "ps{";
  for (const auto& [k, ps] : st.peer_sync)
    os << k << ":" << ps.sent_up_to << (ps.force_full ? "F" : "f") << ";";
  os << "}df{";
  for (const auto& [k, n] : st.dial_failures) os << k << ":" << n << ";";
  os << "}";
}

/// One complete, delivered exchange i -> j through the pure core — the
/// closure building block. Mirrors ClusterNode::gossip_with + handle_frame.
void closure_exchange(GossipState& dialer, GossipState& replier,
                      const GossipConfig& cfg) {
  const std::string pk =
      dialer.table.contains(replier.table.self().key())
          ? replier.table.self().key()
          : std::string();
  const cluster::HelloBuild hb = cluster::gossip_build_hello(dialer, pk, cfg);
  const cluster::WelcomeBuild wb =
      cluster::gossip_handle_hello(replier, hb.msg, true, cfg);
  cluster::gossip_apply_welcome(dialer, replier.table.self().key(),
                                hb.sent_epoch, wb.msg, true, cfg);
}

}  // namespace

net::Member GossipModel::member_for(std::size_t i) {
  net::Member m;
  m.host = "mc";
  m.port = static_cast<std::uint16_t>(i + 1);
  m.cores = 1;
  m.born = 100 + i;
  return m;
}

GossipModel::GossipModel(GossipOptions opt) : opt_(opt) {
  cfg_delta_ = GossipConfig{true, opt.defect};
  cfg_full_ = GossipConfig{false, opt.defect};
}

GossipModel::State GossipModel::initial() const {
  State s;
  s.nodes.reserve(opt_.n);
  for (std::size_t i = 0; i < opt_.n; ++i) {
    NodeS n(member_for(i));
    n.last_epoch_d = n.delta.table.epoch();
    n.last_epoch_f = n.full.table.epoch();
    s.nodes.push_back(std::move(n));
  }
  s.drops_left = opt_.drops;
  s.dups_left = opt_.dups;
  s.departs_left = opt_.departs;
  return s;
}

std::vector<GossipModel::Action> GossipModel::enabled(const State& s) const {
  std::vector<Action> out;
  const int n = static_cast<int>(s.nodes.size());
  for (int i = 0; i < n; ++i) {
    const NodeS& ni = s.nodes[i];
    if (ni.departed) continue;
    // Dials: one outstanding exchange per dialer (the gossip thread is
    // synchronous), bounded per-node rounds.
    if (!ni.ex && ni.dials < opt_.rounds) {
      for (int j = 0; j < n; ++j) {
        if (j == i) continue;
        if (s.nodes[j].departed) {
          // A dial to a dead member: only once we actually know it (the
          // real node picks targets from its table).
          if (ni.delta.table.contains(key_for(j)))
            out.push_back(Action{Action::Start, i, j});
        } else {
          out.push_back(Action{Action::Start, i, j});
        }
      }
    }
    if (ni.ex) {
      const Exchange& ex = *ni.ex;
      const bool replier_dead = s.nodes[ex.replier].departed;
      if (ex.stage == Exchange::HelloInFlight) {
        if (replier_dead) {
          out.push_back(Action{Action::Abort, i, ex.replier});
        } else {
          out.push_back(Action{Action::DeliverHello, i, ex.replier});
          if (s.dups_left > 0)
            out.push_back(Action{Action::DupHello, i, ex.replier});
          if (s.drops_left > 0)
            out.push_back(Action{Action::DropHello, i, ex.replier});
        }
      } else {
        // The welcome was built before the replier could have crashed —
        // bytes in flight are deliverable either way.
        out.push_back(Action{Action::DeliverWelcome, i, ex.replier});
        if (s.drops_left > 0)
          out.push_back(Action{Action::DropWelcome, i, ex.replier});
      }
    }
  }
  // Crash budget: highest-id node only (symmetry reduction), never while
  // it is itself mid-dial.
  if (s.departs_left > 0) {
    const int j = n - 1;
    if (!s.nodes[j].departed && !s.nodes[j].ex)
      out.push_back(Action{Action::Depart, j, -1});
  }
  return out;
}

std::optional<Violation> GossipModel::step_ghosts(State& s, int node) const {
  NodeS& nd = s.nodes[node];
  const struct {
    const GossipState* st;
    std::map<std::string, std::uint64_t>* max_tomb;
    std::uint64_t* last_epoch;
    const char* twin;
  } twins[2] = {{&nd.delta, &nd.max_tomb_d, &nd.last_epoch_d, "delta"},
                {&nd.full, &nd.max_tomb_f, &nd.last_epoch_f, "full"}};
  for (const auto& t : twins) {
    const std::uint64_t e = t.st->table.epoch();
    if (e < *t.last_epoch)
      return Violation{"epoch-monotonicity",
                       "node " + key_for(node) + " (" + t.twin +
                           " twin) epoch went " +
                           std::to_string(*t.last_epoch) + " -> " +
                           std::to_string(e)};
    *t.last_epoch = e;
    const net::MembershipView v = t.st->table.view();
    for (const net::Departed& d : v.departed) {
      std::uint64_t& mx = (*t.max_tomb)[d.key];
      mx = std::max(mx, d.born);
    }
    for (const net::Member& m : v.members) {
      const auto it = t.max_tomb->find(m.key());
      if (it != t.max_tomb->end() && m.born <= it->second)
        return Violation{
            "tombstone-resurrection",
            "node " + key_for(node) + " (" + t.twin + " twin) readmitted " +
                m.key() + " born " + std::to_string(m.born) +
                " despite tombstone at born " + std::to_string(it->second)};
    }
  }
  return std::nullopt;
}

std::optional<Violation> GossipModel::delta_sufficiency(
    const GossipState& sender, const GossipState& receiver,
    const net::MembershipView& payload, const net::Member* hello_self,
    std::uint64_t pre_sent_up_to, bool full, const char* dir) const {
  // Only meaningful on fault-free schedules: after a lost welcome the
  // sender's watermark legitimately runs ahead of what was delivered and
  // the digest-mismatch repair (property 4) is the correctness story.
  if (opt_.drops != 0) return std::nullopt;
  if (full || pre_sent_up_to == 0) return std::nullopt;  // full or probe
  const net::MembershipView have = receiver.table.view();
  const net::MembershipView sv = sender.table.view();
  for (const net::Member& m : sv.members) {
    if (dominates_member(have, m.key(), m.born)) continue;
    if (!payload_has_member(payload, m, hello_self))
      return Violation{
          "delta-sufficiency",
          std::string(dir) + " delta since " +
              std::to_string(pre_sent_up_to) + " omits member " + m.key() +
              " born " + std::to_string(m.born) +
              " which the receiver does not hold"};
  }
  for (const net::Departed& d : sv.departed) {
    if (dominates_tomb(have, d.key, d.born)) continue;
    if (!payload_has_tomb(payload, d))
      return Violation{"delta-sufficiency",
                       std::string(dir) + " delta since " +
                           std::to_string(pre_sent_up_to) +
                           " omits tombstone " + d.key + " born " +
                           std::to_string(d.born) +
                           " which the receiver does not hold"};
  }
  return std::nullopt;
}

std::optional<Violation> GossipModel::apply(State& s, const Action& a) const {
  switch (a.kind) {
    case Action::Start: {
      NodeS& dialer = s.nodes[a.a];
      ++dialer.dials;
      if (s.nodes[a.b].departed) {
        // Connect refused: the real node's failure-streak eviction.
        cluster::gossip_dial_failed(dialer.delta, key_for(a.b),
                                    opt_.suspect_after);
        cluster::gossip_dial_failed(dialer.full, key_for(a.b),
                                    opt_.suspect_after);
        return step_ghosts(s, a.a);
      }
      const std::string pk_d =
          dialer.delta.table.contains(key_for(a.b)) ? key_for(a.b)
                                                    : std::string();
      const std::string pk_f =
          dialer.full.table.contains(key_for(a.b)) ? key_for(a.b)
                                                   : std::string();
      const std::uint64_t pre_sent =
          pk_d.empty() ? 0
                       : (dialer.delta.peer_sync.count(pk_d) != 0
                              ? dialer.delta.peer_sync.at(pk_d).sent_up_to
                              : 0);
      Exchange ex;
      ex.replier = a.b;
      const cluster::HelloBuild hb_d =
          cluster::gossip_build_hello(dialer.delta, pk_d, cfg_delta_);
      const cluster::HelloBuild hb_f =
          cluster::gossip_build_hello(dialer.full, pk_f, cfg_full_);
      ex.hello_d = hb_d.msg;
      ex.hello_f = hb_f.msg;
      ex.sent_epoch_d = hb_d.sent_epoch;
      ex.sent_epoch_f = hb_f.sent_epoch;
      if (auto v = delta_sufficiency(dialer.delta, s.nodes[a.b].delta,
                                     ex.hello_d.view, &ex.hello_d.self,
                                     pre_sent, ex.hello_d.full != 0, "hello"))
        return v;
      dialer.ex = std::move(ex);
      return step_ghosts(s, a.a);
    }
    case Action::DeliverHello:
    case Action::DupHello: {
      NodeS& dialer = s.nodes[a.a];
      Exchange& ex = *dialer.ex;
      NodeS& replier = s.nodes[ex.replier];
      const std::string dk = key_for(a.a);
      const std::uint64_t pre_sent =
          replier.delta.peer_sync.count(dk) != 0
              ? replier.delta.peer_sync.at(dk).sent_up_to
              : 0;
      const cluster::WelcomeBuild wb_d = cluster::gossip_handle_hello(
          replier.delta, ex.hello_d, true, cfg_delta_);
      const cluster::WelcomeBuild wb_f = cluster::gossip_handle_hello(
          replier.full, ex.hello_f, true, cfg_full_);
      if (a.kind == Action::DeliverHello) {
        if (auto v = delta_sufficiency(replier.delta, dialer.delta,
                                       wb_d.msg.view, nullptr, pre_sent,
                                       wb_d.msg.full != 0, "welcome"))
          return v;
        ex.welcome_d = wb_d.msg;
        ex.welcome_f = wb_f.msg;
        ex.stage = Exchange::WelcomeInFlight;
      } else {
        // Duplicate: the replier processed the hello twice; the dialer
        // only ever takes one welcome — this one evaporates.
        --s.dups_left;
      }
      return step_ghosts(s, ex.replier);
    }
    case Action::DropHello: {
      --s.drops_left;
      s.nodes[a.a].ex.reset();
      return std::nullopt;
    }
    case Action::DeliverWelcome: {
      NodeS& dialer = s.nodes[a.a];
      const Exchange ex = *dialer.ex;
      dialer.ex.reset();
      cluster::gossip_apply_welcome(dialer.delta, key_for(ex.replier),
                                    ex.sent_epoch_d, ex.welcome_d, true,
                                    cfg_delta_);
      cluster::gossip_apply_welcome(dialer.full, key_for(ex.replier),
                                    ex.sent_epoch_f, ex.welcome_f, true,
                                    cfg_full_);
      return step_ghosts(s, a.a);
    }
    case Action::DropWelcome: {
      --s.drops_left;
      s.nodes[a.a].ex.reset();
      return std::nullopt;
    }
    case Action::Abort: {
      s.nodes[a.a].ex.reset();
      return std::nullopt;
    }
    case Action::Depart: {
      --s.departs_left;
      s.nodes[a.a].departed = true;
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::optional<Violation> GossipModel::check(const State& s) const {
  for (const NodeS& n : s.nodes)
    if (n.ex) return std::nullopt;  // only quiescent states get closed

  // Bounded deterministic fault-free closure on copies: every live pair
  // keeps exchanging (defect and mode preserved — the closure is the
  // protocol's own self-healing, not an oracle).
  std::vector<GossipState> cd, cf;
  std::vector<int> live;
  for (std::size_t i = 0; i < s.nodes.size(); ++i) {
    if (s.nodes[i].departed) continue;
    live.push_back(static_cast<int>(i));
    cd.push_back(s.nodes[i].delta);
    cf.push_back(s.nodes[i].full);
  }
  if (live.size() < 2) return std::nullopt;
  const std::size_t rounds = s.nodes.size() + 2;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < live.size(); ++i) {
      for (std::size_t j = 0; j < live.size(); ++j) {
        if (i == j) continue;
        closure_exchange(cd[i], cd[j], cfg_delta_);
        closure_exchange(cf[i], cf[j], cfg_full_);
      }
    }
  }

  const std::set<std::string> want_d = record_set(cd[0]);
  const std::set<std::string> want_f = record_set(cf[0]);
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (record_set(cd[i]) != want_d)
      return Violation{"gossip-convergence",
                       "delta-mode closure fixpoint differs between " +
                           key_for(live[0]) + " and " + key_for(live[i])};
    if (record_set(cf[i]) != want_f)
      return Violation{"gossip-convergence",
                       "full-mode closure fixpoint differs between " +
                           key_for(live[0]) + " and " + key_for(live[i])};
  }
  if (want_d != want_f)
    return Violation{
        "delta-full-equivalence",
        "delta-gossip closure fixpoint != full-table closure fixpoint"};

  // Eviction news must stick: once any live node evicted a crashed
  // member, the converged view may not hold that incarnation as alive.
  // (The sets are equal across live nodes here, so inspect one.)
  const net::MembershipView fixed = cd[0].table.view();
  for (std::size_t k = 0; k < s.nodes.size(); ++k) {
    if (!s.nodes[k].departed) continue;
    const net::Member dead = member_for(k);
    bool evicted_somewhere = false;
    for (const int i : live) {
      const net::MembershipView v = s.nodes[i].delta.table.view();
      for (const net::Departed& d : v.departed)
        if (d.key == dead.key()) evicted_somewhere = true;
    }
    if (!evicted_somewhere) continue;
    for (const net::Member& m : fixed.members)
      if (m.key() == dead.key() && m.born <= dead.born)
        return Violation{"tombstone-propagation",
                         "crashed member " + dead.key() +
                             " was evicted by a live node but survives in "
                             "the converged view"};
  }
  return std::nullopt;
}

std::string GossipModel::fingerprint(const State& s) const {
  std::ostringstream os;
  for (std::size_t i = 0; i < s.nodes.size(); ++i) {
    const NodeS& n = s.nodes[i];
    os << "N" << i << (n.departed ? "X" : "") << "d" << n.dials << "[";
    serialize_gossip_state(os, n.delta);
    os << "|";
    serialize_gossip_state(os, n.full);
    os << "]g{";
    for (const auto& [k, b] : n.max_tomb_d) os << k << ":" << b << ";";
    for (const auto& [k, b] : n.max_tomb_f) os << k << ":" << b << "F;";
    os << "}";
    if (n.ex) {
      const Exchange& ex = *n.ex;
      os << "ex" << ex.replier << "s" << static_cast<int>(ex.stage) << "h";
      serialize_view(os, ex.hello_d.view);
      os << "/" << ex.hello_d.digest << "/" << int(ex.hello_d.full) << "/"
         << ex.hello_d.since;
      serialize_view(os, ex.hello_f.view);
      if (ex.stage == Exchange::WelcomeInFlight) {
        os << "w";
        serialize_view(os, ex.welcome_d.view);
        os << "/" << ex.welcome_d.digest << "/" << int(ex.welcome_d.full);
        serialize_view(os, ex.welcome_f.view);
      }
    }
  }
  os << "B" << s.drops_left << "," << s.dups_left << "," << s.departs_left;
  return os.str();
}

std::uint64_t GossipModel::action_key(const Action& a) const {
  return (static_cast<std::uint64_t>(a.kind) << 16) |
         (static_cast<std::uint64_t>(a.a + 1) << 8) |
         static_cast<std::uint64_t>(a.b + 1);
}

namespace {

/// Conservative footprint: which nodes an action reads or writes, which
/// exchange slot it advances, and which global budget it consumes.
struct Footprint {
  int n1 = -1, n2 = -1;  ///< touched nodes
  int slot = -1;         ///< exchange slot (dialer id)
  int budget = -1;       ///< 0 drops, 1 dups, 2 departs
};

Footprint footprint(const GossipModel::Action& a) {
  using A = GossipModel::Action;
  Footprint f;
  switch (a.kind) {
    case A::Start:
      f.n1 = a.a;
      f.n2 = a.b;
      f.slot = a.a;
      break;
    case A::DeliverHello:
      f.n1 = a.b;  // replier state changes
      f.slot = a.a;
      break;
    case A::DupHello:
      f.n1 = a.b;
      f.slot = a.a;
      f.budget = 1;
      break;
    case A::DropHello:
      f.slot = a.a;
      f.budget = 0;
      break;
    case A::DeliverWelcome:
      f.n1 = a.a;
      f.slot = a.a;
      break;
    case A::DropWelcome:
      f.slot = a.a;
      f.budget = 0;
      break;
    case A::Abort:
      f.slot = a.a;
      break;
    case A::Depart:
      f.n1 = a.a;
      f.budget = 2;
      break;
  }
  return f;
}

}  // namespace

bool GossipModel::independent(const Action& x, const Action& y) const {
  const Footprint a = footprint(x), b = footprint(y);
  const auto hits = [](int v, const Footprint& f) {
    return v >= 0 && (v == f.n1 || v == f.n2);
  };
  if (hits(a.n1, b) || hits(a.n2, b)) return false;
  if (a.slot >= 0 && a.slot == b.slot) return false;
  if (a.budget >= 0 && a.budget == b.budget) return false;
  // Depart changes every other node's dial options for its target.
  if (x.kind == Action::Depart || y.kind == Action::Depart) return false;
  return true;
}

std::string GossipModel::describe(const Action& a) const {
  std::ostringstream os;
  switch (a.kind) {
    case Action::Start:
      os << "start " << key_for(a.a) << " -> " << key_for(a.b);
      break;
    case Action::DeliverHello:
      os << "deliver hello " << key_for(a.a) << " -> " << key_for(a.b);
      break;
    case Action::DupHello:
      os << "duplicate hello " << key_for(a.a) << " -> " << key_for(a.b);
      break;
    case Action::DropHello:
      os << "drop hello " << key_for(a.a) << " -> " << key_for(a.b);
      break;
    case Action::DeliverWelcome:
      os << "deliver welcome " << key_for(a.b) << " -> " << key_for(a.a);
      break;
    case Action::DropWelcome:
      os << "drop welcome " << key_for(a.b) << " -> " << key_for(a.a);
      break;
    case Action::Abort:
      os << "abort exchange " << key_for(a.a) << " -> " << key_for(a.b);
      break;
    case Action::Depart:
      os << "crash " << key_for(a.a);
      break;
  }
  return os.str();
}

ExploreResult run_gossip_explore(const GossipOptions& opt) {
  // Pass 1: fault-free schedules with the delta-sufficiency property
  // armed (it is only an invariant when nothing is lost).
  GossipOptions fault_free = opt;
  fault_free.drops = 0;
  fault_free.dups = 0;
  GossipModel m1(fault_free);
  ExploreResult r1 = explore(
      m1, m1.initial(), ExploreOptions{opt.depth, opt.sleep_sets});
  if (!r1.ok) return r1;

  // Pass 2: the full fault budget; convergence/equivalence/resurrection
  // properties must survive every drop/duplicate/crash interleaving.
  GossipModel m2(opt);
  ExploreResult r2 = explore(
      m2, m2.initial(), ExploreOptions{opt.depth, opt.sleep_sets});
  r2.stats.states_explored += r1.stats.states_explored;
  r2.stats.transitions += r1.stats.transitions;
  r2.stats.deduped += r1.stats.deduped;
  r2.stats.sleep_pruned += r1.stats.sleep_pruned;
  r2.stats.max_depth = std::max(r2.stats.max_depth, r1.stats.max_depth);
  r2.stats.truncated = r2.stats.truncated || r1.stats.truncated;
  return r2;
}

// ------------------------------------------------- scripted law scenarios

std::optional<Violation> run_gossip_laws(GossipDefect defect) {
  const GossipConfig cfg{true, defect};
  const auto member = [](std::uint16_t port, std::uint64_t born) {
    net::Member m;
    m.host = "law";
    m.port = port;
    m.born = born;
    return m;
  };

  // Scenario 1 — inclusive delta boundary. merge() stamps records it
  // receives at the PRE-bump epoch, so a record can land exactly at the
  // epoch a peer has already acknowledged; delta_since must treat the
  // boundary inclusively or that record is never resent. Reached by the
  // explorer only through a 4-node relay, so scripted here at full
  // precision: B has agreed state with D (watermark == current epoch),
  // then learns a tombstone from A stamped exactly at that epoch.
  {
    GossipState a(member(1, 101));
    GossipState b(member(2, 102));
    const net::Member c = member(4, 104);
    const net::Member d = member(3, 103);

    a.table.add(c);
    cluster::gossip_dial_failed(a, c.key(), 1);  // C crashed: evict

    b.table.add(d);
    b.table.add(member(1, 101));  // B already knows A (sender-add no-ops,
                                  // so the merge stamps at the pre-bump
                                  // epoch — the boundary case)
    // The post-agreement condition the relay produces: D acknowledged
    // everything up to B's current epoch and the last digests matched.
    b.peer_sync[d.key()] =
        cluster::PeerSync{b.table.epoch(), false};

    // A's news arrives: the tombstone merges in stamped at B's pre-bump
    // epoch — exactly the acknowledged watermark.
    const cluster::HelloBuild ha = cluster::gossip_build_hello(a, "", cfg);
    cluster::gossip_handle_hello(b, ha.msg, true, cfg);

    const cluster::HelloBuild hb =
        cluster::gossip_build_hello(b, d.key(), cfg);
    if (hb.msg.full == 0) {
      bool has_tomb = false;
      for (const net::Departed& t : hb.msg.view.departed)
        if (t.key == c.key()) has_tomb = true;
      if (!has_tomb)
        return Violation{
            "delta-sufficiency",
            "a tombstone stamped exactly at the acknowledged epoch (" +
                std::to_string(hb.msg.since) +
                ") is missing from the next delta — the boundary must be "
                "inclusive"};
    }
  }

  // Scenario 2 — tombstone propagation. An eviction one node performed
  // must reach a peer that still believes the dead member is alive.
  {
    GossipState a(member(1, 101));
    GossipState b(member(2, 102));
    const net::Member c = member(4, 104);
    a.table.add(c);
    cluster::gossip_dial_failed(a, c.key(), 1);
    b.table.add(c);

    const cluster::HelloBuild ha = cluster::gossip_build_hello(a, "", cfg);
    cluster::gossip_handle_hello(b, ha.msg, true, cfg);
    if (b.table.contains(c.key()))
      return Violation{"tombstone-propagation",
                       "after receiving the evictor's view, a peer still "
                       "holds the dead member " +
                           c.key() + " as alive"};
  }

  // Scenario 3 — digest-mismatch repair. A lost welcome leaves the
  // replier's watermark ahead of what was delivered; the mismatch must
  // force a full table on a later exchange or the peers never converge.
  {
    GossipState a(member(1, 101));
    GossipState b(member(2, 102));
    const net::Member c = member(4, 104);
    b.table.add(c);       // knowledge A is owed
    a.table.add(member(2, 102));  // A knows B's address

    for (int round = 0; round < 4; ++round) {
      const cluster::HelloBuild ha =
          cluster::gossip_build_hello(a, member(2, 102).key(), cfg);
      const cluster::WelcomeBuild wb =
          cluster::gossip_handle_hello(b, ha.msg, true, cfg);
      if (round == 0) continue;  // the first welcome is lost on the wire
      cluster::gossip_apply_welcome(a, member(2, 102).key(), ha.sent_epoch,
                                    wb.msg, true, cfg);
    }
    if (!a.table.contains(c.key()))
      return Violation{"digest-repair",
                       "after a lost welcome, repeated exchanges never "
                       "resend the missing record — the digest mismatch "
                       "did not force a full-table repair"};
  }

  return std::nullopt;
}

}  // namespace bsk::analysis::mc
