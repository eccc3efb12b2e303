#include "net/remote_abc.hpp"

#include "support/thread_name.hpp"

namespace bsk::net {

// ---------------------------------------------------------------- client

am::Sensors RemoteAbc::sense() {
  am::Sensors blackout;
  blackout.valid = false;

  support::MutexLock lk(rpc_mu_);
  const std::uint32_t seq = next_seq_++;
  if (!tp_->send(make_sensor_req(seq))) return blackout;

  const double deadline = wall_now() + opts_.rpc_timeout_wall_s;
  Frame f;
  for (;;) {
    const double left = deadline - wall_now();
    if (left <= 0.0) return blackout;
    if (tp_->recv_for(f, left) != RecvStatus::Ok) return blackout;
    if (f.type == FrameType::SecureAck) {
      tp_->mark_secured();
      continue;
    }
    if (f.type != FrameType::SensorRep) continue;
    const auto rep = parse_sensor_rep(f);
    if (!rep || rep->first != seq) continue;  // stale reply: keep waiting
    return rep->second;
  }
}

std::optional<ActReply> RemoteAbc::call(ActRequest req) {
  support::MutexLock lk(rpc_mu_);
  req.seq = next_seq_++;
  if (!tp_->send(make_act_req(req))) return std::nullopt;

  const double deadline = wall_now() + opts_.rpc_timeout_wall_s;
  Frame f;
  for (;;) {
    const double left = deadline - wall_now();
    if (left <= 0.0) return std::nullopt;
    if (tp_->recv_for(f, left) != RecvStatus::Ok) return std::nullopt;
    if (f.type == FrameType::SecureAck) {
      tp_->mark_secured();
      continue;
    }
    if (f.type != FrameType::ActRep) continue;
    const auto rep = parse_act_rep(f);
    if (!rep || rep->seq != req.seq) continue;
    return rep;
  }
}

bool RemoteAbc::add_worker() {
  // Phase one runs locally: concern managers examine the intent before
  // anything crosses the wire.
  am::Intent intent;
  intent.action = am::Intent::Action::AddWorker;
  intent.target_untrusted = opts_.assume_remote_untrusted;
  if (!pass_gate(intent)) return false;

  ActRequest req;
  req.op = ActRequest::Op::AddWorker;
  req.require_secure = intent.require_secure;
  const auto rep = call(req);
  return rep && rep->ok;
}

bool RemoteAbc::remove_worker() {
  am::Intent intent;
  intent.action = am::Intent::Action::RemoveWorker;
  if (!pass_gate(intent)) return false;

  ActRequest req;
  req.op = ActRequest::Op::RemoveWorker;
  const auto rep = call(req);
  return rep && rep->ok;
}

std::size_t RemoteAbc::rebalance() {
  ActRequest req;
  req.op = ActRequest::Op::Rebalance;
  const auto rep = call(req);
  return rep ? static_cast<std::size_t>(rep->count) : 0;
}

bool RemoteAbc::set_rate(double tasks_per_s) {
  am::Intent intent;
  intent.action = am::Intent::Action::SetRate;
  intent.rate = tasks_per_s;
  if (!pass_gate(intent)) return false;

  ActRequest req;
  req.op = ActRequest::Op::SetRate;
  req.rate = intent.rate;
  const auto rep = call(req);
  return rep && rep->ok;
}

std::size_t RemoteAbc::secure_links() {
  am::Intent intent;
  intent.action = am::Intent::Action::SecureLinks;
  if (!pass_gate(intent)) return 0;

  ActRequest req;
  req.op = ActRequest::Op::SecureLinks;
  const auto rep = call(req);
  if (!rep || !rep->ok) return 0;
  tp_->mark_secured();  // the control channel itself is upgraded too
  return static_cast<std::size_t>(rep->count);
}

// ---------------------------------------------------------------- server

void AbcServer::serve() {
  Frame f;
  while (tp_->recv(f) == RecvStatus::Ok) {
    if (f.type == FrameType::Shutdown) break;
    handle(f);
  }
  tp_->close();
}

void AbcServer::start() {
  if (thread_.joinable()) return;
  thread_ = std::jthread([this] {
    support::set_thread_name("abc-server");
    serve();
  });
}

void AbcServer::stop() {
  tp_->close();
  if (thread_.joinable()) thread_.join();
}

void AbcServer::handle(const Frame& f) {
  switch (f.type) {
    case FrameType::SensorReq: {
      const auto seq = parse_sensor_req(f);
      if (!seq) return;
      tp_->send(make_sensor_rep(*seq, target_.sense()));
      served_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    case FrameType::ActReq: {
      const auto req = parse_act_req(f);
      if (!req) return;
      ActReply rep;
      rep.seq = req->seq;
      switch (req->op) {
        case ActRequest::Op::AddWorker: {
          // Phase two: replay the client's gate decision on this side so
          // the wrapped farm pre-secures the worker before instantiation.
          const bool require_secure = req->require_secure;
          target_.set_commit_gate([require_secure](am::Intent& i) {
            if (require_secure) i.require_secure = true;
            return true;
          });
          rep.ok = target_.add_worker();
          target_.set_commit_gate({});
          rep.count = rep.ok ? 1 : 0;
          break;
        }
        case ActRequest::Op::RemoveWorker:
          rep.ok = target_.remove_worker();
          rep.count = rep.ok ? 1 : 0;
          break;
        case ActRequest::Op::Rebalance:
          rep.count = target_.rebalance();
          rep.ok = true;
          break;
        case ActRequest::Op::SetRate:
          rep.ok = target_.set_rate(req->rate);
          break;
        case ActRequest::Op::SecureLinks:
          rep.count = target_.secure_links();
          rep.ok = true;
          tp_->mark_secured();
          break;
      }
      tp_->send(make_act_rep(rep));
      served_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    case FrameType::SecureReq:
      tp_->mark_secured();
      tp_->send(Frame{FrameType::SecureAck, {}});
      return;
    default:
      return;  // heartbeats are absorbed below us; ignore the rest
  }
}

}  // namespace bsk::net
