#pragma once
// AutonomicManager: the active part of a behavioural skeleton.
//
// Implements the paper's classical autonomic control loop: a *monitor*
// phase refreshes working-memory beans from the ABC's sensors, then the
// rule engine runs one agenda cycle (*analyse/plan*), and fired rules call
// back into this manager's OperationSink to *execute* actuators. The loop
// runs on its own thread — the AM is "a concurrent activity with respect to
// the main flow of control of the application".
//
// Active/passive roles (P_rol) follow the paper's realization: "transition
// to the passive state is modelled by the absence of fireable 'active'
// rules"; a manager that can only raise a violation reports it to its
// parent (RAISE_VIOLATION) and is considered passive until some local rule
// fires again or a new contract arrives.
//
// Hierarchy: managers form a tree mirroring the skeleton nesting. A parent
// splits its contract with a pattern-specific splitter and pushes the
// sub-contracts to its children; children report violations upward through
// notify_child_violation, which the parent consumes at the top of its next
// control cycle — as queued *pulse beans* its rules can match, and through
// an optional imperative handler (how the Fig. 4 pipeline manager converts
// a farm's notEnoughTasks into an incRate contract for the producer).

#include <atomic>
#include <deque>
#include <map>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "am/abc.hpp"
#include "am/contract.hpp"
#include "am/vocabulary.hpp"
#include "obs/trace.hpp"
#include "rules/engine.hpp"
#include "rules/parser.hpp"
#include "support/event_log.hpp"
#include "support/thread_annotations.hpp"

namespace bsk::am {

/// Reported manager role (derived, per the paper's soft definition).
enum class ManagerMode { Active, Passive };

/// Tuning knobs of one manager.
struct ManagerConfig {
  /// Control-loop period (simulated seconds).
  support::SimDuration period{5.0};
  /// Bounds used to derive FARM_MIN/MAX_NUM_WORKERS constants.
  std::size_t min_workers = 1;
  std::size_t max_workers = 16;
  /// Queue-length variance above which BALANCE_LOAD should fire.
  double max_unbalance = 9.0;
  /// After an ADD/REMOVE_EXECUTOR, suppress planning for this many
  /// simulated seconds so the rate window can reflect the new configuration
  /// (damping; 0 disables).
  double action_cooldown_s = 0.0;
  /// Planning is suppressed for this long after the first control cycle —
  /// rate sensors are meaningless until their window has filled (monitoring
  /// and observation events still run). 0 disables.
  double warmup_s = 0.0;
  /// Emit contrLow/contrHigh/notEnough observation events each cycle they
  /// hold (the event lines of the paper's Fig. 4).
  bool observation_events = true;
  /// Consecutive ADD_EXECUTOR failures (no worker could be recruited)
  /// before the degradation policy may fire — derived into the
  /// FT_MAX_FAILED_RECRUITS rule constant. With a live membership feed
  /// (bsk::cluster), a failed recruit means the *cluster* is exhausted,
  /// not that a static endpoint list was misconfigured.
  std::size_t max_failed_recruits = 3;
  /// Fleet size below which the membership rules may raise a violation —
  /// derived into the CLUSTER_MIN_NODES rule constant.
  std::size_t min_cluster_nodes = 1;
};

/// A violation reported by a child manager. The origin fields identify the
/// MAPE cycle (and, across processes, the process) that raised it, so the
/// parent's reacting cycle can be causally joined to it in the merged trace.
struct ChildViolation {
  std::string child;
  std::string kind;  ///< e.g. "notEnoughTasks_VIOL"
  std::string origin_proc;       ///< raising process tag ("" = local)
  std::uint64_t origin_cycle = 0;  ///< raising manager's cycle id (0 = unknown)
};

/// A cluster membership change reported by the discovery layer
/// (bsk::cluster's on_change hook feeds this through
/// notify_membership_change). Consumed at the top of the next MAPE cycle.
struct MembershipEvent {
  std::size_t joined = 0;
  std::size_t left = 0;
  std::size_t nodes = 0;     ///< live members after the change
  std::uint64_t epoch = 0;   ///< membership epoch after the change
  std::string origin_proc;   ///< reporting process tag ("" = local)
};

class AutonomicManager : public rules::OperationSink {
 public:
  /// `log` defaults to the process-wide event log.
  AutonomicManager(std::string name, Abc& abc, ManagerConfig cfg = {},
                   support::EventLog* log = nullptr);
  ~AutonomicManager() override;

  AutonomicManager(const AutonomicManager&) = delete;
  AutonomicManager& operator=(const AutonomicManager&) = delete;

  // ------------------------------------------------------------- lifecycle

  /// Start the periodic control loop on a dedicated thread.
  void start();

  /// Stop the loop and join the thread (idempotent).
  void stop();

  /// Run exactly one synchronous MAPE cycle (tests / simulators / custom
  /// schedulers). Returns the rules fired.
  std::vector<std::string> run_cycle_once();

  std::size_t cycles_run() const { return cycles_.load(); }

  // ----------------------------------------------------- contract & roles

  /// Install a new contract: derives rule constants, fires the on-contract
  /// hook, reactivates the manager, and propagates sub-contracts to
  /// attached children via the splitter.
  void set_contract(const Contract& c);

  Contract contract() const;
  ManagerMode mode() const { return mode_.load(); }

  /// Hook invoked (in the caller of set_contract) when a contract arrives —
  /// e.g. a producer manager retunes its source's rate here.
  void set_on_contract(std::function<void(const Contract&)> fn);

  // ------------------------------------------------------------- hierarchy

  /// Attach a child manager (the BS-tree edge). Children receive split
  /// contracts and report violations here.
  void attach_child(AutonomicManager& child);

  const std::vector<AutonomicManager*>& children() const { return children_; }
  AutonomicManager* parent() const { return parent_; }

  /// Contract splitter used on propagation. Default: pipeline-style
  /// replication via split_for_pipeline.
  using Splitter =
      std::function<std::vector<Contract>(const Contract&, std::size_t)>;
  void set_splitter(Splitter s);

  /// Called by children (from their control threads) to report a violation.
  /// Queued; consumed at the top of this manager's next cycle. The optional
  /// origin pair ties the report to the raising MAPE cycle for the trace.
  void notify_child_violation(const std::string& child,
                              const std::string& kind,
                              std::string origin_proc = {},
                              std::uint64_t origin_cycle = 0);

  /// Imperative handler for child violations (runs in this manager's
  /// control thread, before the rule cycle).
  void set_violation_handler(std::function<void(const ChildViolation&)> fn);

  /// Report a cluster membership change (any thread; bsk::cluster's
  /// on_change hook is the canonical caller). Queued and consumed at the
  /// top of the next cycle: NodesJoined/NodesLeft pulse beans are
  /// asserted, the span gains a cause link to the membership epoch, and —
  /// because the fleet changed shape — the current contract is re-split
  /// across the children (the paper's P_spl reacting to a reconfiguration).
  void notify_membership_change(std::size_t joined, std::size_t left,
                                std::size_t nodes, std::uint64_t epoch,
                                std::string origin_proc = {});

  /// Times a membership change forced a contract re-split.
  std::size_t resplits() const { return resplits_.load(); }
  /// Live fleet size as of the last consumed membership event.
  std::size_t cluster_nodes() const { return cluster_nodes_.load(); }

  // --------------------------------------------------------------- policy

  rules::Engine& engine() { return engine_; }
  /// Direct mutable access for setup-time configuration. Once the control
  /// loop runs, the table is also written by set_contract/monitor from other
  /// threads — running code should go through constants_snapshot().
  rules::ConstantTable& constants() { return consts_; }
  /// Thread-safe copy of the constant table (what each rule cycle runs
  /// against).
  rules::ConstantTable constants_snapshot() const;
  rules::WorkingMemory& working_memory() { return wm_; }

  /// Load rules from .brl text into this manager's engine. Same-named rules
  /// replace earlier ones (policy hot-swap). When the BSK_LINT_ON_LOAD
  /// environment variable is set (non-empty, not "0"), the static analyzer
  /// (bsk::analysis) runs over the union of every rule program loaded so far
  /// against this manager's current constant table, and the load is refused
  /// (std::runtime_error, engine untouched) if the program provably
  /// conflicts or oscillates.
  void load_rules(const std::string& brl_text);

  /// Declarative specs of every .brl rule loaded so far (what the on-load
  /// analyzer checks; programmatic RuleBuilder rules are not introspectable
  /// and do not appear here).
  const std::vector<rules::RuleSpec>& loaded_rule_specs() const {
    return loaded_specs_;
  }

  /// Map an operation name fired by rules onto a handler. Replaces any
  /// previous handler (including the built-ins for the standard ops).
  void register_operation(const std::string& op,
                          std::function<void(const std::string& data)> fn);

  // --------------------------------------------------- OperationSink

  void fire_operation(const std::string& operation,
                      const std::string& data) override;

  // ------------------------------------------------------------- plumbing

  Abc& abc() { return abc_; }
  const std::string& name() const { return name_; }
  support::EventLog& log() { return *log_; }
  const ManagerConfig& config() const { return cfg_; }

  /// Record an event attributed to this manager.
  void record(const std::string& event, double value = 0.0,
              const std::string& detail = {});

  /// True once the managed stream has been observed to end.
  bool stream_ended() const { return stream_ended_.load(); }

  /// Consecutive recruit failures (the FailedRecruitsBean value).
  std::size_t failed_recruits() const { return failed_recruits_.load(); }
  /// Times DEGRADE_CONTRACT actually lowered the contract.
  std::size_t degradations() const { return degradations_.load(); }

  /// Last sensor snapshot taken by the monitor phase.
  Sensors last_sensors() const;

 private:
  void control_loop(const std::stop_token& st);
  void install_default_operations();
  void derive_constants_locked() BSK_REQUIRES(state_mu_);
  bool monitor_phase(Sensors& out);
  /// Split the contract across attached children and push the pieces.
  void propagate_contract(const Contract& c);

  /// One constant's current value, under state_mu_ (operation handlers
  /// resolve payloads through this — never touch consts_ bare off the
  /// setup path).
  std::optional<double> constant(const std::string& name) const;

  /// Append an actuation/observation to the active cycle's decision span,
  /// if the caller is the thread running that cycle.
  void span_note(const std::string& event, double value,
                 const std::string& detail);

  std::string name_;
  Abc& abc_;
  ManagerConfig cfg_;
  support::EventLog* log_;

  rules::Engine engine_;
  rules::WorkingMemory wm_;
  rules::ConstantTable consts_;
  std::vector<rules::RuleSpec> loaded_specs_;

  mutable support::Mutex state_mu_{"Manager.state"};
  Contract contract_ BSK_GUARDED_BY(state_mu_);
  std::function<void(const Contract&)> on_contract_ BSK_GUARDED_BY(state_mu_);
  std::function<void(const ChildViolation&)> violation_handler_
      BSK_GUARDED_BY(state_mu_);
  Splitter splitter_ BSK_GUARDED_BY(state_mu_);
  std::map<std::string, std::function<void(const std::string&)>> operations_
      BSK_GUARDED_BY(state_mu_);
  std::deque<ChildViolation> pending_violations_ BSK_GUARDED_BY(state_mu_);
  std::deque<MembershipEvent> pending_membership_ BSK_GUARDED_BY(state_mu_);
  Sensors last_sensors_ BSK_GUARDED_BY(state_mu_){};

  AutonomicManager* parent_ = nullptr;
  std::vector<AutonomicManager*> children_;

  // Decision-span state: the span lives on run_cycle_once's stack; record()
  // calls from the cycle's own thread append to it through this pointer.
  // Other threads (a parent calling set_contract mid-cycle, a net thread
  // logging through this manager) must not join the span, hence the thread
  // check under the mutex.
  support::Mutex span_mu_{"Manager.span"};
  obs::MapeSpan* active_span_ BSK_GUARDED_BY(span_mu_) = nullptr;
  std::thread::id span_thread_ BSK_GUARDED_BY(span_mu_);

  std::atomic<ManagerMode> mode_{ManagerMode::Passive};
  std::atomic<bool> stream_ended_{false};
  std::atomic<std::uint64_t> current_cycle_{0};
  std::atomic<std::size_t> cycles_{0};
  std::atomic<std::size_t> failed_recruits_{0};
  std::atomic<std::size_t> degradations_{0};
  std::atomic<std::size_t> resplits_{0};
  std::atomic<std::size_t> cluster_nodes_{0};
  std::atomic<bool> membership_seen_{false};
  double plan_suppressed_until_ = 0.0;  // control-thread only
  bool violation_raised_this_cycle_ = false;  // control-thread only

  std::jthread loop_;
  std::atomic<bool> running_{false};
};

}  // namespace bsk::am
