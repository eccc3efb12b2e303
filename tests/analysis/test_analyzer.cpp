// bsk-lint's analyzer: golden-clean programs, the four seeded defect
// fixtures, registry/am cross-checks, and P_spl soundness.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "am/builtin_rules.hpp"
#include "am/contract.hpp"
#include "am/manager.hpp"
#include "analysis/analyzer.hpp"
#include "analysis/registry.hpp"
#include "rules/parser.hpp"

namespace bsk::analysis {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<Finding> analyze_text(const std::string& text) {
  return analyze(rules::parse_rule_specs(text), default_registry());
}

std::vector<Finding> analyze_fixture(const std::string& name) {
  return analyze_text(
      read_file(std::string(BSK_SOURCE_DIR "/tests/analysis/fixtures/") +
                name));
}

std::vector<Finding> of_check(const std::vector<Finding>& fs, Check c) {
  std::vector<Finding> out;
  std::copy_if(fs.begin(), fs.end(), std::back_inserter(out),
               [&](const Finding& f) { return f.check == c; });
  return out;
}

// ------------------------------------------------------------ golden clean

TEST(Analyzer, Fig5IsClean) {
  const auto specs =
      rules::parse_rule_specs_file(BSK_SOURCE_DIR "/rules/fig5.brl");
  ASSERT_FALSE(specs.empty());
  const auto fs = analyze(specs, default_registry());
  EXPECT_TRUE(fs.empty()) << findings_to_json(fs);
}

TEST(Analyzer, AllBuiltinRuleSetsAreClean) {
  const std::vector<std::pair<std::string, std::string>> sets = {
      {"farm", am::farm_rules()},
      {"security", am::security_rules()},
      {"fault", am::fault_tolerance_rules()},
      {"latency", am::latency_rules()},
      {"degradation", am::degradation_rules()},
      {"backlog", am::backlog_rules()},
      {"membership", am::membership_rules()},
  };
  for (const auto& [name, text] : sets) {
    const auto fs = analyze_text(text);
    EXPECT_TRUE(fs.empty()) << "builtin:" << name << "\n"
                            << findings_to_json(fs);
  }
}

// -------------------------------------------------------- seeded fixtures

TEST(Analyzer, DetectsConflictingRules) {
  const auto fs = analyze_fixture("conflicting.brl");
  const auto conflicts = of_check(fs, Check::Conflict);
  ASSERT_EQ(conflicts.size(), 1u) << findings_to_json(fs);
  const Finding& f = conflicts[0];
  EXPECT_EQ(f.severity, Severity::Error);
  // Both rules named, either order.
  const std::vector<std::string> pair = {f.rule, f.other_rule};
  EXPECT_NE(std::find(pair.begin(), pair.end(), "AddWhenSlow"), pair.end());
  EXPECT_NE(std::find(pair.begin(), pair.end(), "RemoveWhenFast"), pair.end());
  // No spurious companions: a conflict is not also an oscillation.
  EXPECT_TRUE(of_check(fs, Check::Oscillation).empty());
  EXPECT_TRUE(of_check(fs, Check::Shadowed).empty());
  EXPECT_TRUE(of_check(fs, Check::UnknownBean).empty());
}

TEST(Analyzer, DetectsZeroHysteresisOscillation) {
  const auto fs = analyze_fixture("oscillating.brl");
  const auto osc = of_check(fs, Check::Oscillation);
  ASSERT_EQ(osc.size(), 1u) << findings_to_json(fs);
  const Finding& f = osc[0];
  EXPECT_EQ(f.severity, Severity::Error);
  EXPECT_EQ(f.bean, "DepartureRateBean");
  const std::vector<std::string> pair = {f.rule, f.other_rule};
  EXPECT_NE(std::find(pair.begin(), pair.end(), "AddBelow"), pair.end());
  EXPECT_NE(std::find(pair.begin(), pair.end(), "RemoveAbove"), pair.end());
  // Disjoint guards: not a conflict.
  EXPECT_TRUE(of_check(fs, Check::Conflict).empty());
}

TEST(Analyzer, DetectsShadowedRule) {
  const auto fs = analyze_fixture("shadowed.brl");
  const auto sh = of_check(fs, Check::Shadowed);
  ASSERT_EQ(sh.size(), 1u) << findings_to_json(fs);
  EXPECT_EQ(sh[0].rule, "BalanceBig");       // the shadowed rule
  EXPECT_EQ(sh[0].other_rule, "BalanceAny");  // the dominating rule
  EXPECT_EQ(sh[0].severity, Severity::Warning);
}

TEST(Analyzer, DetectsUnknownVocabulary) {
  const auto fs = analyze_fixture("unknown_bean.brl");
  const auto beans = of_check(fs, Check::UnknownBean);
  ASSERT_EQ(beans.size(), 1u) << findings_to_json(fs);
  EXPECT_EQ(beans[0].bean, "ArrivalRateBeen");
  EXPECT_EQ(beans[0].rule, "TypoBean");

  const auto consts = of_check(fs, Check::UnknownConstant);
  ASSERT_EQ(consts.size(), 1u) << findings_to_json(fs);
  EXPECT_EQ(consts[0].bean, "FARM_LOWPERF");

  const auto ops = of_check(fs, Check::UnknownOperation);
  ASSERT_EQ(ops.size(), 1u) << findings_to_json(fs);
  EXPECT_EQ(ops[0].bean, "ADD_EXECUTER");
  EXPECT_EQ(ops[0].rule, "TypoConstAndOp");
}

// ------------------------------------------------- in-memory defect cases

TEST(Analyzer, DetectsDuplicateRuleNames) {
  const char* text = R"(
rule "Same"
  when
    $a : ArrivalRateBean ( value > 1 )
  then
    $a.fireOperation(ManagerOperation.BALANCE_LOAD);
end
rule "Same"
  when
    $a : ArrivalRateBean ( value > 2 )
  then
    $a.fireOperation(ManagerOperation.BALANCE_LOAD);
end
)";
  const auto fs = analyze_text(text);
  const auto dup = of_check(fs, Check::DuplicateRule);
  ASSERT_EQ(dup.size(), 1u) << findings_to_json(fs);
  EXPECT_EQ(dup[0].rule, "Same");
  EXPECT_EQ(dup[0].severity, Severity::Error);
}

TEST(Analyzer, DetectsUnreachableGuard) {
  // Rates never go negative (registry domain [0, +inf)).
  const char* text = R"(
rule "NegativeRate"
  when
    $a : ArrivalRateBean ( value < -1 )
  then
    $a.fireOperation(ManagerOperation.RAISE_VIOLATION);
end
)";
  const auto fs = analyze_text(text);
  const auto un = of_check(fs, Check::Unreachable);
  ASSERT_EQ(un.size(), 1u) << findings_to_json(fs);
  EXPECT_EQ(un[0].rule, "NegativeRate");
  EXPECT_EQ(un[0].bean, "ArrivalRateBean");
}

TEST(Analyzer, DetectsSelfContradictoryGuard) {
  const char* text = R"(
rule "Contradiction"
  when
    $a : ArrivalRateBean ( value > 5 && value < 1 )
  then
    $a.fireOperation(ManagerOperation.RAISE_VIOLATION);
end
)";
  const auto fs = analyze_text(text);
  EXPECT_EQ(of_check(fs, Check::Unreachable).size(), 1u)
      << findings_to_json(fs);
}

TEST(Analyzer, DetectsInvertedThresholds) {
  const char* text = R"(
rule "Check"
  when
    $d : DepartureRateBean ( value < ManagersConstants.FARM_LOW_PERF_LEVEL )
  then
    $d.fireOperation(ManagerOperation.ADD_EXECUTOR);
end
)";
  AnalysisOptions opts;
  opts.consts = model_constants();
  opts.consts.set("FARM_LOW_PERF_LEVEL", 0.9);
  opts.consts.set("FARM_HIGH_PERF_LEVEL", 0.2);
  const auto fs =
      analyze(rules::parse_rule_specs(text), default_registry(), opts);
  const auto th = of_check(fs, Check::Thresholds);
  ASSERT_EQ(th.size(), 1u) << findings_to_json(fs);
  EXPECT_EQ(th[0].bean, "FARM_LOW_PERF_LEVEL");
}

TEST(Analyzer, JsonRoundtripContainsCheckNames) {
  const auto fs = analyze_fixture("conflicting.brl");
  ASSERT_TRUE(has_errors(fs));
  const std::string json = findings_to_json(fs);
  EXPECT_NE(json.find("\"conflict\""), std::string::npos) << json;
  EXPECT_NE(json.find("AddWhenSlow"), std::string::npos) << json;
  // And the human formatter names the severity.
  EXPECT_NE(format_finding(fs[0]).find("error"), std::string::npos);
}

// ------------------------------------------------- registry cross-checks

TEST(Registry, MirrorsManagerVocabulary) {
  const Registry reg = default_registry();
  for (const am::BeanDef& b : am::kBeans)
    EXPECT_TRUE(reg.known_bean(b.name)) << b.name;
  for (const char* o : am::kOperations)
    EXPECT_TRUE(reg.known_operation(o)) << o;
  for (const am::ConstantDef& c : am::kConstants)
    EXPECT_TRUE(reg.known_constant(c.name)) << c.name;
  // Child-violation pulse beans match by prefix.
  EXPECT_TRUE(reg.known_bean(am::beans::child_violation("notEnoughTasks")));
  EXPECT_FALSE(reg.known_bean(am::beans::kViolationPrefix));
  // The standard antagonism that drives conflict/oscillation proofs.
  bool has_add_remove = false;
  for (const auto& [a, b] : reg.conflicting_ops())
    if ((a == am::ops::kAddExecutor && b == am::ops::kRemoveExecutor) ||
        (b == am::ops::kAddExecutor && a == am::ops::kRemoveExecutor))
      has_add_remove = true;
  EXPECT_TRUE(has_add_remove);
  EXPECT_FALSE(reg.known_bean("NoSuchBean"));
  EXPECT_FALSE(reg.known_operation("NO_SUCH_OP"));
  EXPECT_FALSE(reg.known_constant("NO_SUCH_CONST"));
}

TEST(Registry, ModelConstantsCoverRegisteredConstants) {
  const rules::ConstantTable consts = model_constants();
  for (const char* c : {"FARM_LOW_PERF_LEVEL", "FARM_HIGH_PERF_LEVEL",
                        "FARM_MAX_NUM_WORKERS", "FARM_MIN_NUM_WORKERS"}) {
    EXPECT_TRUE(default_registry().known_constant(c)) << c;
    EXPECT_TRUE(consts.has(c)) << c;
  }
  // The model valuation itself must be ordering-sound.
  EXPECT_LE(*consts.get("FARM_LOW_PERF_LEVEL"),
            *consts.get("FARM_HIGH_PERF_LEVEL"));
}

TEST(Registry, JsonListsVocabulary) {
  const std::string json = default_registry().to_json();
  EXPECT_NE(json.find("ArrivalRateBean"), std::string::npos);
  EXPECT_NE(json.find("ADD_EXECUTOR"), std::string::npos);
  EXPECT_NE(json.find("FARM_LOW_PERF_LEVEL"), std::string::npos);
}

// -------------------------------------------------------- contract split

TEST(ContractSplit, MirrorsAmSplitForPipeline) {
  // am::split_for_pipeline replicates throughput to every stage — the
  // analyzer's P_spl check must use the same stage floor.
  const am::Contract parent = am::Contract::throughput_range(0.3, 0.7);
  const auto subs = am::split_for_pipeline(parent, 3);
  ASSERT_EQ(subs.size(), 3u);
  for (const am::Contract& s : subs) {
    EXPECT_DOUBLE_EQ(s.throughput_lo(), parent.throughput_lo());
    EXPECT_DOUBLE_EQ(s.throughput_hi(), parent.throughput_hi());
  }

  SplitSpec spec;
  spec.parent_lo = parent.throughput_lo();
  spec.parent_hi = parent.throughput_hi();
  spec.stages = 3;
  spec.service_time_s = 1.0;   // peak = 16/1 = 16 tasks/s per stage
  spec.max_workers = 16;
  EXPECT_TRUE(check_contract_split(spec, model_constants()).empty());
}

TEST(ContractSplit, FlagsUnsatisfiableFloor) {
  SplitSpec spec;
  spec.parent_lo = 40.0;       // needs 40 workers of 1s service each stage
  spec.parent_hi = 50.0;
  spec.stages = 2;
  spec.service_time_s = 1.0;
  spec.max_workers = 16;       // peak 16 tasks/s < 40
  rules::ConstantTable consts;
  consts.set("FARM_MAX_NUM_WORKERS", 16.0);
  const auto fs = check_contract_split(spec, consts);
  ASSERT_TRUE(has_errors(fs)) << findings_to_json(fs);
  EXPECT_NE(fs[0].message.find("P_spl"), std::string::npos);
}

TEST(ContractSplit, FlagsUnderEnforcingRuleThresholds) {
  SplitSpec spec;
  spec.parent_lo = 0.5;
  spec.parent_hi = 0.9;
  spec.service_time_s = 0.1;   // plenty of headroom: peak = 160
  rules::ConstantTable consts;
  consts.set("FARM_LOW_PERF_LEVEL", 0.3);  // guard content below the floor
  consts.set("FARM_MAX_NUM_WORKERS", 16.0);
  const auto fs = check_contract_split(spec, consts);
  ASSERT_FALSE(fs.empty());
  EXPECT_TRUE(has_errors(fs));
  EXPECT_NE(fs[0].message.find("FARM_LOW_PERF_LEVEL"), std::string::npos);
}

TEST(ContractSplit, FlagsInvertedParentAndBadServiceTime) {
  SplitSpec inverted;
  inverted.parent_lo = 2.0;
  inverted.parent_hi = 1.0;
  EXPECT_TRUE(has_errors(check_contract_split(inverted, {})));

  SplitSpec bad_service;
  bad_service.parent_lo = 0.1;
  bad_service.service_time_s = 0.0;
  EXPECT_TRUE(has_errors(check_contract_split(bad_service, {})));
}

}  // namespace
}  // namespace bsk::analysis
