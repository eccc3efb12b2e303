#pragma once
// Static verification of autonomic rule programs (bsk-lint's engine).
//
// The analyzer consumes the parser's declarative RuleSpec form — nothing is
// executed — and runs an interval abstract interpretation over bean space:
// each rule's guard is compiled into a per-bean product region (conjunction
// of pattern tests, intersected with the bean's registry domain). Over those
// regions it proves, per rule set:
//
//  * conflict        — some reachable bean valuation fires an antagonistic
//                      operation pair (ADD_EXECUTOR and REMOVE_EXECUTOR) in
//                      the same agenda cycle;
//  * oscillation     — the ADD and REMOVE guard regions are disjoint but
//                      separated by a zero-width band: no hysteresis margin,
//                      so sensor noise ping-pongs the manager between them;
//  * shadowed        — a rule's region is contained in a higher-salience
//                      rule's region firing the same operations (the engine
//                      fires both: the effect is silently duplicated);
//  * unreachable     — a guard region empty under the bean domains (e.g.
//                      `value < 0` on a rate) or self-contradictory tests;
//  * unknown-*       — bean/operation/constant names absent from the
//                      registry (at runtime such rules never fire — a typo
//                      is invisible until the SLA is);
//  * duplicate-rule  — two rules with one name (Engine::add_rule now throws,
//                      this catches it before load);
//  * thresholds      — registry-declared orderings violated by the constant
//                      valuation (FARM_LOW_PERF_LEVEL > FARM_HIGH_...).
//
// Guards are evaluated against a *concrete* constant valuation (the
// manager's defaults plus a representative contract, or the live table under
// BSK_LINT_ON_LOAD). Rules whose bounds cannot be resolved — or that use
// `not` patterns / `!=` tests, which the interval domain cannot represent
// exactly — are excluded from region proofs rather than over-approximated,
// so every conflict/oscillation/shadow finding is a proof, never a guess
// (zero false positives on sound programs like rules/fig5.brl).

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/registry.hpp"
#include "rules/rule.hpp"

namespace bsk::analysis {

enum class Severity { Note, Warning, Error };

enum class Check {
  Conflict,
  Oscillation,
  Shadowed,
  Unreachable,
  UnknownBean,
  UnknownOperation,
  UnknownConstant,
  DuplicateRule,
  Thresholds,
  ContractSplit,
  TwoPhase,
};

const char* check_name(Check c);
const char* severity_name(Severity s);

struct Finding {
  Check check = Check::Conflict;
  Severity severity = Severity::Error;
  std::string message;
  std::string rule;        ///< primary rule (or Class::method for TwoPhase)
  std::string other_rule;  ///< counterpart rule in pair findings
  std::string bean;        ///< bean/constant/operation the finding hinges on
  std::size_t line = 0;    ///< 1-based source line (0 = not tied to a line)
  std::string file;        ///< source file, when known
};

bool has_errors(const std::vector<Finding>& fs);
bool has_findings(const std::vector<Finding>& fs);

/// Render findings as a JSON document (bsk-lint --json).
std::string findings_to_json(const std::vector<Finding>& fs);

/// One human-readable line per finding ("file:line: severity: ...").
std::string format_finding(const Finding& f);

struct AnalysisOptions {
  /// Concrete constant valuation guards are resolved against. Defaults to
  /// model_constants() when empty (no names set).
  rules::ConstantTable consts;
  /// Run the pairwise region proofs (conflict/oscillation/shadowing).
  bool pair_checks = true;
};

/// The model valuation of am::kConstants (manager defaults plus a
/// representative throughput contract, lo=0.3, hi=0.7 tasks/s, 1..16
/// workers) — what bsk-lint uses when no live manager table is available.
rules::ConstantTable model_constants();

/// Analyze one rule program against a registry. Findings are ordered by
/// check class, then declaration order.
std::vector<Finding> analyze(const std::vector<rules::RuleSpec>& specs,
                             const Registry& registry,
                             const AnalysisOptions& opts = {});

// ----------------------------------------------------------- contract split
//
// P_spl soundness: when a parent contract [lo, hi] (throughput, tasks/s) is
// split across a pipeline of farm stages, can the stage rule programs
// satisfy it at all? Mirrors am::split_for_pipeline (throughput replicates
// to every stage — the slowest stage bounds the pipeline) and the farm
// performance model peak = max_workers / service_time; a unit test
// cross-validates against the am implementation.

struct SplitSpec {
  double parent_lo = 0.0;  ///< parent contract throughput floor (tasks/s)
  double parent_hi = 1e30;  ///< parent contract throughput ceiling
  std::size_t stages = 1;  ///< pipeline stages the contract splits across
  double service_time_s = 1.0;  ///< mean per-task service time in a worker
  std::size_t max_workers = 16;  ///< farm parallelism cap (FARM_MAX_NUM_WORKERS)
};

/// Verify the split arithmetic and, when `consts` carries rule thresholds,
/// that the rule program's guard levels actually enforce the parent floor
/// (FARM_LOW_PERF_LEVEL >= lo: otherwise ADD_EXECUTOR stops recruiting while
/// the parent contract is still violated).
std::vector<Finding> check_contract_split(const SplitSpec& spec,
                                          const rules::ConstantTable& consts);

}  // namespace bsk::analysis
