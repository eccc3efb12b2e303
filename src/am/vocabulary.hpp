#pragma once
// The autonomic manager's vocabulary, in one table: beans, operations,
// symbolic payloads and rule constants, each name spelled here once (names
// code refers to get a handle in beans::/ops::/payloads::/consts::).
// AutonomicManager seeds its constants from kConstants; bsk-lint's
// analysis::default_registry() and model_constants() are built from these
// arrays. Header-only, so bsk_analysis reads it without linking bsk_am.

#include <limits>
#include <optional>
#include <string>

#include "cluster/gossip_defaults.hpp"

namespace bsk::am {

/// Bean names asserted into working memory.
namespace beans {
inline constexpr const char* kArrivalRate = "ArrivalRateBean";
inline constexpr const char* kDepartureRate = "DepartureRateBean";
inline constexpr const char* kNumWorker = "NumWorkerBean";
inline constexpr const char* kQueueVariance = "QueueVarianceBean";
/// The paper's Fig. 5 spells it "QuequeVarianceBean"; both are asserted so
/// its rule text runs unmodified.
inline constexpr const char* kQueueVariancePaper = "QuequeVarianceBean";
inline constexpr const char* kServiceTime = "ServiceTimeBean";
inline constexpr const char* kLatency = "LatencyBean";
inline constexpr const char* kQueuedTasks = "QueuedTasksBean";
inline constexpr const char* kStreamEnd = "StreamEndBean";
inline constexpr const char* kUnsecuredLinks = "UnsecuredLinksBean";
inline constexpr const char* kWorkerFailure = "WorkerFailureBean";
inline constexpr const char* kTotalFailures = "TotalFailuresBean";
inline constexpr const char* kFailedRecruits = "FailedRecruitsBean";
inline constexpr const char* kNodesJoined = "NodesJoinedBean";
inline constexpr const char* kNodesLeft = "NodesLeftBean";
inline constexpr const char* kClusterNodes = "ClusterNodesBean";
/// Prefix of the pulse bean asserted for one cycle when child `kind`
/// violations arrive: "Violation_<kind>".
inline constexpr const char* kViolationPrefix = "Violation_";
inline std::string child_violation(const std::string& kind) {
  return kViolationPrefix + kind;
}
}  // namespace beans

/// Operation names fired by rules.
namespace ops {
inline constexpr const char* kAddExecutor = "ADD_EXECUTOR";
inline constexpr const char* kRemoveExecutor = "REMOVE_EXECUTOR";
inline constexpr const char* kBalanceLoad = "BALANCE_LOAD";
inline constexpr const char* kRaiseViolation = "RAISE_VIOLATION";
inline constexpr const char* kSecureLinks = "SECURE_LINKS";
inline constexpr const char* kDegradeContract = "DEGRADE_CONTRACT";
}  // namespace ops

/// Violation kinds used as symbolic setData payloads of RAISE_VIOLATION.
namespace payloads {
inline constexpr const char* kNotEnoughTasks = "notEnoughTasks_VIOL";
inline constexpr const char* kTooMuchTasks = "tooMuchTasks_VIOL";
}  // namespace payloads

/// Rule constant names.
namespace consts {
inline constexpr const char* kFarmLowPerfLevel = "FARM_LOW_PERF_LEVEL";
inline constexpr const char* kFarmHighPerfLevel = "FARM_HIGH_PERF_LEVEL";
inline constexpr const char* kMaxLatency = "MAX_LATENCY";
inline constexpr const char* kFarmMinNumWorkers = "FARM_MIN_NUM_WORKERS";
inline constexpr const char* kFarmMaxNumWorkers = "FARM_MAX_NUM_WORKERS";
inline constexpr const char* kFarmMaxUnbalance = "FARM_MAX_UNBALANCE";
inline constexpr const char* kFarmAddWorkers = "FARM_ADD_WORKERS";
inline constexpr const char* kFtMaxFailedRecruits = "FT_MAX_FAILED_RECRUITS";
inline constexpr const char* kWorkerFailures = "WORKER_FAILURES";
inline constexpr const char* kClusterMinNodes = "CLUSTER_MIN_NODES";
}  // namespace consts

/// A bean and the closed range of values the monitor phase can assert (a
/// rule requiring `value < 0` on a rate is statically unreachable).
struct BeanDef {
  const char* name;
  double lo, hi;
  const char* doc;
};

inline constexpr double kInf = std::numeric_limits<double>::infinity();

inline constexpr BeanDef kBeans[] = {
    {beans::kArrivalRate, 0.0, kInf, "tasks/s entering the skeleton"},
    {beans::kDepartureRate, 0.0, kInf, "tasks/s leaving the skeleton"},
    {beans::kNumWorker, 0.0, kInf, "current farm parallelism degree"},
    {beans::kQueueVariance, 0.0, kInf, "variance of per-worker queue lengths"},
    {beans::kQueueVariancePaper, 0.0, kInf,
     "paper-spelled alias of QueueVarianceBean"},
    {beans::kServiceTime, 0.0, kInf, "mean service time (s)"},
    {beans::kLatency, 0.0, kInf, "per-task latency (s)"},
    {beans::kQueuedTasks, 0.0, kInf, "tasks waiting in input queues"},
    {beans::kStreamEnd, 0.0, 1.0, "1 when the input stream has ended"},
    {beans::kUnsecuredLinks, 0.0, kInf, "links still running in the clear"},
    {beans::kWorkerFailure, 0.0, kInf, "worker failures observed this cycle"},
    {beans::kTotalFailures, 0.0, kInf, "worker failures since start"},
    {beans::kFailedRecruits, 0.0, kInf,
     "consecutive failed replacement recruitments; with a live membership "
     "feed this means the cluster is exhausted, not that one static host is "
     "down"},
    {beans::kNodesJoined, 0.0, kInf,
     "cluster nodes that joined since the last cycle (pulse)"},
    {beans::kNodesLeft, 0.0, kInf,
     "cluster nodes that left or were evicted since the last cycle (pulse)"},
    {beans::kClusterNodes, 0.0, kInf, "current live cluster membership size"},
};

inline constexpr const char* kOperations[] = {
    ops::kAddExecutor,    ops::kRemoveExecutor, ops::kBalanceLoad,
    ops::kRaiseViolation, ops::kSecureLinks,    ops::kDegradeContract,
};

inline constexpr const char* kPayloads[] = {
    payloads::kNotEnoughTasks, payloads::kTooMuchTasks, "degradedContract_VIOL"};

/// What the rule engine reads as "no bound" (a contract without a ceiling).
inline constexpr double kUnbounded = 1e30;

/// A rule constant, the fixed default AutonomicManager's constructor seeds
/// (nullopt: taken from ManagerConfig, set at run time, or left to the
/// application) and its value in bsk-lint's model valuation (nullopt: no
/// static value is representative).
struct ConstantDef {
  const char* name;
  std::optional<double> seed;
  std::optional<double> model;
};

inline constexpr ConstantDef kConstants[] = {
    // Contract-derived. The model uses a representative throughput/latency
    // contract: the open-ended seeds would make low-rate guards vacuous.
    {consts::kFarmLowPerfLevel, 0.0, 0.3},
    {consts::kFarmHighPerfLevel, kUnbounded, 0.7},
    {consts::kMaxLatency, kUnbounded, 10.0},
    // From ManagerConfig.
    {consts::kFarmMinNumWorkers, std::nullopt, 1.0},
    {consts::kFarmMaxNumWorkers, std::nullopt, 16.0},
    {consts::kFarmMaxUnbalance, std::nullopt, 4.0},
    {consts::kFtMaxFailedRecruits, std::nullopt, 3.0},
    // Deployment policy: any static value would make the collapse guard
    // vacuously unreachable or anchor it to one deployment.
    {consts::kClusterMinNodes, std::nullopt, std::nullopt},
    // Workers added per ADD_EXECUTOR.
    {consts::kFarmAddWorkers, 2.0, 2.0},
    // The crashed count, set by each monitor phase (FT rules' payload).
    {consts::kWorkerFailures, std::nullopt, 0.0},
    // No default: the builtin backlog rules leave it to the application.
    {"FARM_BACKLOG_THRESHOLD", std::nullopt, 100.0},
    // Gossip tuning, so rule programs can reason about fleet behaviour.
    {"CLUSTER_ROOT_FANOUT", cluster::defaults::kRootFanout,
     cluster::defaults::kRootFanout},
    {"CLUSTER_SUSPECT_AFTER", cluster::defaults::kSuspectAfter,
     cluster::defaults::kSuspectAfter},
    {"CLUSTER_SUSPECT_QUEUE", cluster::defaults::kSuspectQueue,
     cluster::defaults::kSuspectQueue},
    {"CLUSTER_DELTA_GOSSIP", cluster::defaults::kDeltaGossip,
     cluster::defaults::kDeltaGossip},
};

struct NamePair {
  const char *first, *second;
};

/// Threshold orderings `first <= second` (sanity-checked by bsk-lint).
inline constexpr NamePair kOrderings[] = {
    {consts::kFarmLowPerfLevel, consts::kFarmHighPerfLevel},
    {consts::kFarmMinNumWorkers, consts::kFarmMaxNumWorkers},
};

/// Antagonistic operation pairs: firing both in one cycle from overlapping
/// guard regions is a conflict, a zero-margin separation an oscillation
/// risk.
inline constexpr NamePair kAntagonisticOps[] = {
    {ops::kAddExecutor, ops::kRemoveExecutor},
};

}  // namespace bsk::am
