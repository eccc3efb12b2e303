#include "am/manager.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <condition_variable>
#include <mutex>
#include <stdexcept>

#include "analysis/analyzer.hpp"
#include "obs/metrics.hpp"
#include "support/thread_name.hpp"

namespace bsk::am {

namespace {

struct ManagerObs {
  obs::Counter& cycles =
      obs::counter("bsk_mape_cycles_total", "MAPE control cycles run");
  obs::Histogram& cycle_latency = obs::histogram(
      "bsk_mape_cycle_seconds",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0},
      "wall-clock latency of one MAPE cycle (monitor through execute)");
};

ManagerObs& manager_obs() {
  static ManagerObs o;
  return o;
}

}  // namespace

AutonomicManager::AutonomicManager(std::string name, Abc& abc,
                                   ManagerConfig cfg, support::EventLog* log)
    : name_(std::move(name)),
      abc_(abc),
      cfg_(cfg),
      log_(log != nullptr ? log : &support::global_event_log()) {
  // Defaults for the standard rule constants; a contract refines them.
  for (const ConstantDef& c : kConstants)
    if (c.seed) consts_.set(c.name, *c.seed);
  consts_.set(consts::kFarmMinNumWorkers,
              static_cast<double>(cfg_.min_workers));
  consts_.set(consts::kFarmMaxNumWorkers,
              static_cast<double>(cfg_.max_workers));
  consts_.set(consts::kFarmMaxUnbalance, cfg_.max_unbalance);
  consts_.set(consts::kFtMaxFailedRecruits,
              static_cast<double>(cfg_.max_failed_recruits));
  consts_.set(consts::kClusterMinNodes,
              static_cast<double>(cfg_.min_cluster_nodes));
  install_default_operations();
}

AutonomicManager::~AutonomicManager() { stop(); }

// ------------------------------------------------------------------ events

void AutonomicManager::record(const std::string& event, double value,
                              const std::string& detail) {
  log_->record(name_, event, value, detail);
  span_note(event, value, detail);
}

void AutonomicManager::span_note(const std::string& event, double value,
                                 const std::string& detail) {
  support::MutexLock lk(span_mu_);
  if (active_span_ != nullptr && std::this_thread::get_id() == span_thread_)
    active_span_->actions.push_back(obs::SpanAction{event, value, detail});
}

// --------------------------------------------------------------- lifecycle

void AutonomicManager::start() {
  if (running_.exchange(true)) return;
  loop_ = std::jthread([this](std::stop_token st) {
    support::set_thread_name("am-manager");
    control_loop(st);
  });
}

void AutonomicManager::stop() {
  if (!running_.exchange(false)) return;
  loop_.request_stop();
  if (loop_.joinable()) loop_.join();
}

void AutonomicManager::control_loop(const std::stop_token& st) {
  std::mutex m;
  std::condition_variable_any cv;
  while (!st.stop_requested()) {
    run_cycle_once();
    std::unique_lock lk(m);
    cv.wait_for(lk, st, support::Clock::to_wall(cfg_.period),
                [] { return false; });
  }
}

// ------------------------------------------------------------ MAPE cycle

bool AutonomicManager::monitor_phase(Sensors& out) {
  out = abc_.sense();
  {
    support::MutexLock lk(state_mu_);
    last_sensors_ = out;
  }
  if (!out.valid) return false;  // reconfiguration blackout

  wm_.set(beans::kArrivalRate, out.arrival_rate);
  wm_.set(beans::kDepartureRate, out.departure_rate);
  wm_.set(beans::kNumWorker, static_cast<double>(out.nworkers));
  wm_.set(beans::kQueueVariance, out.queue_variance);
  wm_.set(beans::kQueueVariancePaper, out.queue_variance);
  wm_.set(beans::kServiceTime, out.mean_service_s);
  wm_.set(beans::kLatency, out.mean_latency_s);
  wm_.set(beans::kQueuedTasks, static_cast<double>(out.queued));
  wm_.set(beans::kUnsecuredLinks, out.unsecured_untrusted ? 1.0 : 0.0);
  wm_.set(beans::kWorkerFailure, static_cast<double>(out.new_failures));
  wm_.set(beans::kTotalFailures, static_cast<double>(out.total_failures));
  wm_.set(beans::kFailedRecruits,
          static_cast<double>(failed_recruits_.load()));
  // Payload constant so FT rules can replace exactly the crashed count.
  // consts_ is shared with set_contract/derive_constants (other threads).
  {
    support::MutexLock lk(state_mu_);
    consts_.set(consts::kWorkerFailures, static_cast<double>(out.new_failures));
  }
  if (out.new_failures > 0)
    record("workerFail", static_cast<double>(out.new_failures));

  if (out.stream_ended && !stream_ended_.exchange(true))
    record("endStream");
  wm_.set(beans::kStreamEnd, stream_ended_.load() ? 1.0 : 0.0);

  if (cfg_.observation_events) {
    Contract c;
    {
      support::MutexLock lk(state_mu_);
      c = contract_;
    }
    if (c.throughput) {
      if (out.departure_rate < c.throughput->first)
        record("contrLow", out.departure_rate);
      else if (out.departure_rate > c.throughput->second)
        record("contrHigh", out.departure_rate);
      if (out.arrival_rate < c.throughput->first)
        record("notEnough", out.arrival_rate);
    }
    if (c.max_latency_s && out.mean_latency_s > *c.max_latency_s)
      record("latencyHigh", out.mean_latency_s);
  }
  return true;
}

std::vector<std::string> AutonomicManager::run_cycle_once() {
  const std::uint64_t cycle_id = cycles_.fetch_add(1) + 1;
  current_cycle_.store(cycle_id);
  if (cycle_id == 1 && cfg_.warmup_s > 0.0)
    plan_suppressed_until_ = support::Clock::now() + cfg_.warmup_s;

  // The decision span for this cycle: beans read, rules fired, actuations
  // executed, contract left behind — one structured trace record. record()
  // calls from this thread append to it while the guard is armed.
  obs::MapeSpan span;
  span.manager = name_;
  span.cycle = cycle_id;
  span.t_begin = support::Clock::now();
  span.tw_begin = obs::mono_now();
  struct SpanGuard {
    AutonomicManager* m;
    explicit SpanGuard(AutonomicManager* mgr, obs::MapeSpan* s) : m(mgr) {
      support::MutexLock lk(m->span_mu_);
      m->active_span_ = s;
      m->span_thread_ = std::this_thread::get_id();
    }
    ~SpanGuard() {
      support::MutexLock lk(m->span_mu_);
      m->active_span_ = nullptr;
    }
  };
  auto finish_span = [&](const std::vector<std::string>& fired,
                         const Contract& c, bool blackout) {
    span.t_end = support::Clock::now();
    span.tw_end = obs::mono_now();
    span.rules = fired;
    span.contract = blackout ? "(sensor blackout)" : c.describe();
    span.mode =
        mode_.load() == ManagerMode::Active ? "active" : "passive";
    const double latency = span.tw_end - span.tw_begin;
    obs::TraceLog::global().record(std::move(span));
    ManagerObs& mo = manager_obs();
    mo.cycles.inc();
    mo.cycle_latency.observe(latency);
  };

  SpanGuard guard(this, &span);
  Sensors s;
  if (!monitor_phase(s)) {
    finish_span({}, Contract{}, /*blackout=*/true);
    return {};
  }
  span.beans = {
      {beans::kArrivalRate, s.arrival_rate},
      {beans::kDepartureRate, s.departure_rate},
      {beans::kNumWorker, static_cast<double>(s.nworkers)},
      {beans::kQueueVariance, s.queue_variance},
      {beans::kServiceTime, s.mean_service_s},
      {beans::kLatency, s.mean_latency_s},
      {beans::kQueuedTasks, static_cast<double>(s.queued)},
      {beans::kStreamEnd, stream_ended_.load() ? 1.0 : 0.0},
      {beans::kUnsecuredLinks, s.unsecured_untrusted ? 1.0 : 0.0},
      {beans::kWorkerFailure, static_cast<double>(s.new_failures)},
      {beans::kTotalFailures, static_cast<double>(s.total_failures)},
      {beans::kFailedRecruits, static_cast<double>(failed_recruits_.load())},
  };

  // Consume queued child violations: pulse beans + imperative handler.
  std::deque<ChildViolation> viols;
  std::function<void(const ChildViolation&)> handler;
  {
    support::MutexLock lk(state_mu_);
    viols.swap(pending_violations_);
    handler = violation_handler_;
  }
  // Several identical reports can queue up between two of our cycles (the
  // child's loop may be faster); one observation batch warrants one
  // corrective action per (child, kind).
  std::vector<std::string> pulse_beans;
  std::set<std::pair<std::string, std::string>> seen;
  for (const ChildViolation& v : viols) {
    if (!seen.insert({v.child, v.kind}).second) continue;
    span.causes.push_back(obs::SpanCause{
        v.origin_proc.empty() ? obs::TraceLog::global().process_tag()
                              : v.origin_proc,
        v.child, v.origin_cycle, v.kind});
    const std::string bean = beans::child_violation(v.kind);
    wm_.set(bean, 1.0);
    pulse_beans.push_back(bean);
    if (handler) {
      handler(v);
    } else if (parent_ != nullptr) {
      // No local policy for this violation: escalate it one level up (the
      // recursive reporting of the paper's Sec. 3.1 scheme). Rules matching
      // the pulse bean can still act locally in the same cycle.
      record("escalateViol", 0.0, v.kind);
      parent_->notify_child_violation(
          name_, v.kind, obs::TraceLog::global().process_tag(), cycle_id);
    }
  }

  // Consume queued membership changes: the fleet changed shape, so assert
  // the change as pulse beans, link the span to the membership epoch, and
  // re-split the contract across the children (P_spl re-applied — the old
  // split was computed for a tree that no longer exists).
  std::deque<MembershipEvent> mevents;
  {
    support::MutexLock lk(state_mu_);
    mevents.swap(pending_membership_);
  }
  if (!mevents.empty()) {
    std::size_t joined = 0;
    std::size_t left = 0;
    for (const MembershipEvent& e : mevents) {
      joined += e.joined;
      left += e.left;
      span.causes.push_back(obs::SpanCause{
          e.origin_proc.empty() ? obs::TraceLog::global().process_tag()
                                : e.origin_proc,
          "cluster", e.epoch, "membershipChange"});
    }
    const MembershipEvent& latest = mevents.back();
    cluster_nodes_.store(latest.nodes, std::memory_order_relaxed);
    membership_seen_.store(true, std::memory_order_relaxed);
    wm_.set(beans::kNodesJoined, static_cast<double>(joined));
    wm_.set(beans::kNodesLeft, static_cast<double>(left));
    pulse_beans.push_back(beans::kNodesJoined);
    pulse_beans.push_back(beans::kNodesLeft);
    record("membershipChange", static_cast<double>(latest.nodes),
           "epoch=" + std::to_string(latest.epoch));
    Contract cur;
    {
      support::MutexLock lk(state_mu_);
      cur = contract_;
    }
    if ((cur.has_goals() || cur.best_effort) && !children_.empty()) {
      resplits_.fetch_add(1, std::memory_order_relaxed);
      record("resplitContract", static_cast<double>(children_.size()));
      propagate_contract(cur);
    }
  }
  if (membership_seen_.load(std::memory_order_relaxed)) {
    const auto nodes = static_cast<double>(cluster_nodes_.load());
    wm_.set(beans::kClusterNodes, nodes);
    span.beans.emplace_back(beans::kClusterNodes, nodes);
  }

  // Plan/execute: one agenda cycle, unless within an action cooldown.
  std::vector<std::string> fired;
  Contract c;
  {
    support::MutexLock lk(state_mu_);
    c = contract_;
  }
  const bool suppressed = support::Clock::now() < plan_suppressed_until_;
  if (!suppressed && (c.has_goals() || c.best_effort)) {
    violation_raised_this_cycle_ = false;
    // Run each agenda pass against a snapshot of the constant table: a
    // parent's set_contract (another thread) may re-derive constants while
    // rules evaluate, and the engine must see one coherent valuation.
    fired = engine_.run_cycle(wm_, constants_snapshot(), *this);
    // Actions change the managed system; a Drools engine would see the
    // updated facts immediately. Re-monitor once and give the remaining
    // rules (cross-pass refraction) a chance to react to the consequences
    // in the same period — e.g. a single multi-concern manager securing the
    // links of the worker it just added.
    if (!fired.empty() && monitor_phase(s)) {
      const auto follow_up =
          engine_.run_cycle(wm_, constants_snapshot(), *this, &fired);
      fired.insert(fired.end(), follow_up.begin(), follow_up.end());
    }
  }

  for (const std::string& b : pulse_beans) wm_.retract(b);
  finish_span(fired, c, /*blackout=*/false);
  return fired;
}

// ---------------------------------------------------- contract & hierarchy

void AutonomicManager::derive_constants_locked() {
  if (contract_.throughput) {
    consts_.set(consts::kFarmLowPerfLevel, contract_.throughput->first);
    const double hi = contract_.throughput->second;
    consts_.set(consts::kFarmHighPerfLevel, std::isinf(hi) ? kUnbounded : hi);
  }
  consts_.set(consts::kMaxLatency,
              contract_.max_latency_s ? *contract_.max_latency_s : kUnbounded);
  std::size_t max_w = cfg_.max_workers;
  if (contract_.par_degree) max_w = std::min(max_w, *contract_.par_degree);
  consts_.set(consts::kFarmMaxNumWorkers, static_cast<double>(max_w));
  consts_.set(consts::kFarmMinNumWorkers,
              static_cast<double>(cfg_.min_workers));
  consts_.set(consts::kFarmMaxUnbalance, cfg_.max_unbalance);
}

void AutonomicManager::set_contract(const Contract& c) {
  std::function<void(const Contract&)> hook;
  {
    support::MutexLock lk(state_mu_);
    contract_ = c;
    derive_constants_locked();
    hook = on_contract_;
  }
  record("newContract", 0.0, c.describe());
  mode_.store(ManagerMode::Active);
  if (hook) hook(c);
  propagate_contract(c);
}

void AutonomicManager::propagate_contract(const Contract& c) {
  Splitter sp;
  std::vector<AutonomicManager*> kids;
  {
    support::MutexLock lk(state_mu_);
    sp = splitter_;
    kids = children_;
  }
  if (kids.empty()) return;
  const std::vector<Contract> subs =
      sp ? sp(c, kids.size()) : split_for_pipeline(c, kids.size());
  for (std::size_t i = 0; i < kids.size() && i < subs.size(); ++i)
    kids[i]->set_contract(subs[i]);
}

void AutonomicManager::notify_membership_change(std::size_t joined,
                                                std::size_t left,
                                                std::size_t nodes,
                                                std::uint64_t epoch,
                                                std::string origin_proc) {
  support::MutexLock lk(state_mu_);
  pending_membership_.push_back(
      MembershipEvent{joined, left, nodes, epoch, std::move(origin_proc)});
}

Contract AutonomicManager::contract() const {
  support::MutexLock lk(state_mu_);
  return contract_;
}

void AutonomicManager::set_on_contract(
    std::function<void(const Contract&)> fn) {
  support::MutexLock lk(state_mu_);
  on_contract_ = std::move(fn);
}

void AutonomicManager::attach_child(AutonomicManager& child) {
  support::MutexLock lk(state_mu_);
  children_.push_back(&child);
  child.parent_ = this;  // setup-time wiring, before loops start
}

void AutonomicManager::set_splitter(Splitter s) {
  support::MutexLock lk(state_mu_);
  splitter_ = std::move(s);
}

void AutonomicManager::notify_child_violation(const std::string& child,
                                              const std::string& kind,
                                              std::string origin_proc,
                                              std::uint64_t origin_cycle) {
  support::MutexLock lk(state_mu_);
  pending_violations_.push_back(
      ChildViolation{child, kind, std::move(origin_proc), origin_cycle});
}

void AutonomicManager::set_violation_handler(
    std::function<void(const ChildViolation&)> fn) {
  support::MutexLock lk(state_mu_);
  violation_handler_ = std::move(fn);
}

Sensors AutonomicManager::last_sensors() const {
  support::MutexLock lk(state_mu_);
  return last_sensors_;
}

rules::ConstantTable AutonomicManager::constants_snapshot() const {
  support::MutexLock lk(state_mu_);
  return consts_;
}

std::optional<double> AutonomicManager::constant(
    const std::string& name) const {
  support::MutexLock lk(state_mu_);
  return consts_.get(name);
}

// ----------------------------------------------------------------- policy

void AutonomicManager::load_rules(const std::string& brl_text) {
  std::vector<rules::RuleSpec> incoming = rules::parse_rule_specs(brl_text);

  const auto find_spec = [](std::vector<rules::RuleSpec>& v,
                            const std::string& name) {
    return std::find_if(v.begin(), v.end(), [&](const rules::RuleSpec& s) {
      return s.name == name;
    });
  };

  // Lint gate (BSK_LINT_ON_LOAD, any value but "0"): statically verify the
  // union of already-loaded and incoming rules against the manager's live
  // constant table and refuse provably conflicting or oscillating programs
  // — the engine and the loaded-spec cache stay untouched on refusal.
  if (const char* lint = std::getenv("BSK_LINT_ON_LOAD");
      lint != nullptr && std::string(lint) != "0") {
    std::vector<rules::RuleSpec> merged = loaded_specs_;
    for (const rules::RuleSpec& s : incoming) {
      const auto it = find_spec(merged, s.name);
      if (it != merged.end())
        *it = s;
      else
        merged.push_back(s);
    }
    analysis::AnalysisOptions aopts;
    {
      support::MutexLock lk(state_mu_);
      aopts.consts = consts_;
    }
    const std::vector<analysis::Finding> findings =
        analysis::analyze(merged, analysis::default_registry(), aopts);
    for (const analysis::Finding& f : findings) {
      if (f.severity != analysis::Severity::Error) continue;
      if (f.check != analysis::Check::Conflict &&
          f.check != analysis::Check::Oscillation)
        continue;
      const std::string why = analysis::format_finding(f);
      record("rulesRefused", 0.0, why);
      throw std::runtime_error("BSK_LINT_ON_LOAD refused rule program: " +
                               why);
    }
  }

  for (rules::RuleSpec& s : incoming) {
    engine_.upsert_rule(rules::make_rule(s));
    const auto it = find_spec(loaded_specs_, s.name);
    if (it != loaded_specs_.end())
      *it = std::move(s);
    else
      loaded_specs_.push_back(std::move(s));
  }
}

void AutonomicManager::register_operation(
    const std::string& op, std::function<void(const std::string&)> fn) {
  support::MutexLock lk(state_mu_);
  operations_[op] = std::move(fn);
}

void AutonomicManager::fire_operation(const std::string& operation,
                                      const std::string& data) {
  std::function<void(const std::string&)> fn;
  {
    support::MutexLock lk(state_mu_);
    const auto it = operations_.find(operation);
    if (it != operations_.end()) fn = it->second;
  }
  if (fn)
    fn(data);
  else
    record("unknownOperation", 0.0, operation);
}

void AutonomicManager::install_default_operations() {
  // Resolve a numeric payload: a constant name, a literal, or fallback.
  auto resolve_count = [this](const std::string& data,
                              double fallback) -> double {
    if (data.empty()) return fallback;
    if (const auto c = constant(data)) return *c;
    try {
      return std::stod(data);
    } catch (...) {
      return fallback;
    }
  };

  operations_[ops::kAddExecutor] = [this, resolve_count](
                                       const std::string& data) {
    auto n = static_cast<std::size_t>(resolve_count(data, 1.0));
    // Never grow past the contract/config bound even when the payload
    // requests more (the Fig. 5 guard is `<=`, so it can overshoot by a
    // step without this cap).
    const auto max_w = static_cast<std::size_t>(
        constant(consts::kFarmMaxNumWorkers).value_or(1e9));
    const std::size_t cur = last_sensors().nworkers;
    n = std::min(n, max_w > cur ? max_w - cur : 0);
    std::size_t added = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (abc_.add_worker()) ++added;
    if (added > 0) {
      failed_recruits_.store(0, std::memory_order_relaxed);
      record("addWorker", static_cast<double>(added));
      mode_.store(ManagerMode::Active);
      if (cfg_.action_cooldown_s > 0.0)
        plan_suppressed_until_ =
            support::Clock::now() + cfg_.action_cooldown_s;
    } else {
      // Nothing could be recruited: count it. A run of these (with the
      // farm still under-performing) is what the degradation rules treat
      // as "capacity cannot be restored".
      const auto streak =
          failed_recruits_.fetch_add(1, std::memory_order_relaxed) + 1;
      record("addWorkerFailed", static_cast<double>(streak));
    }
  };

  operations_[ops::kRemoveExecutor] = [this, resolve_count](
                                          const std::string& data) {
    const auto n = static_cast<std::size_t>(resolve_count(data, 1.0));
    std::size_t removed = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (abc_.remove_worker()) ++removed;
    if (removed > 0) {
      record("removeWorker", static_cast<double>(removed));
      mode_.store(ManagerMode::Active);
      if (cfg_.action_cooldown_s > 0.0)
        plan_suppressed_until_ =
            support::Clock::now() + cfg_.action_cooldown_s;
    }
  };

  operations_[ops::kBalanceLoad] = [this](const std::string&) {
    const std::size_t moved = abc_.rebalance();
    if (moved > 0) record("rebalance", static_cast<double>(moved));
  };

  operations_[ops::kSecureLinks] = [this](const std::string&) {
    const std::size_t n = abc_.secure_links();
    if (n > 0) record("secureLinks", static_cast<double>(n));
  };

  operations_[ops::kDegradeContract] = [this](const std::string&) {
    // Renegotiate downward: the best this configuration has demonstrated is
    // the observed departure rate, so that becomes the new throughput
    // floor. The manager stays responsible for the degraded contract but
    // goes passive (P_rol active -> passive): it stops promising the old
    // SLA and has already told its parent so via RAISE_VIOLATION.
    const double observed = last_sensors().departure_rate;
    bool changed = false;
    double floor = 0.0;
    {
      support::MutexLock lk(state_mu_);
      if (contract_.throughput && observed < contract_.throughput->first) {
        contract_.throughput->first = observed;
        derive_constants_locked();
        changed = true;
        floor = observed;
      }
    }
    failed_recruits_.store(0, std::memory_order_relaxed);
    if (changed) {
      degradations_.fetch_add(1, std::memory_order_relaxed);
      record("degradeContract", floor);
      mode_.store(ManagerMode::Passive);
    }
  };

  operations_[ops::kRaiseViolation] = [this](const std::string& data) {
    record("raiseViol", 0.0, data);
    violation_raised_this_cycle_ = true;
    mode_.store(ManagerMode::Passive);
    if (parent_ != nullptr)
      parent_->notify_child_violation(name_, data,
                                      obs::TraceLog::global().process_tag(),
                                      current_cycle_.load());
    else
      record("violationToUser", 0.0, data);
  };
}

}  // namespace bsk::am
