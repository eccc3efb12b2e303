#include "analysis/analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "am/vocabulary.hpp"
#include "support/json.hpp"

namespace bsk::analysis {

const char* check_name(Check c) {
  switch (c) {
    case Check::Conflict: return "conflict";
    case Check::Oscillation: return "oscillation";
    case Check::Shadowed: return "shadowed";
    case Check::Unreachable: return "unreachable";
    case Check::UnknownBean: return "unknown-bean";
    case Check::UnknownOperation: return "unknown-operation";
    case Check::UnknownConstant: return "unknown-constant";
    case Check::DuplicateRule: return "duplicate-rule";
    case Check::Thresholds: return "thresholds";
    case Check::ContractSplit: return "contract-split";
    case Check::TwoPhase: return "two-phase";
  }
  return "?";
}

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

bool has_errors(const std::vector<Finding>& fs) {
  return std::any_of(fs.begin(), fs.end(), [](const Finding& f) {
    return f.severity == Severity::Error;
  });
}

bool has_findings(const std::vector<Finding>& fs) {
  return std::any_of(fs.begin(), fs.end(), [](const Finding& f) {
    return f.severity != Severity::Note;
  });
}

std::string format_finding(const Finding& f) {
  std::string s;
  if (!f.file.empty()) {
    s += f.file + ":";
    if (f.line > 0) s += std::to_string(f.line) + ":";
    s += " ";
  } else if (f.line > 0) {
    s += "line " + std::to_string(f.line) + ": ";
  }
  s += severity_name(f.severity);
  s += " [";
  s += check_name(f.check);
  s += "] ";
  s += f.message;
  return s;
}

std::string findings_to_json(const std::vector<Finding>& fs) {
  namespace json = support::json;
  std::ostringstream os;
  os << "{\"findings\":[";
  bool first = true;
  for (const Finding& f : fs) {
    if (!first) os << ",";
    first = false;
    os << "{\"check\":";
    json::write_string(os, check_name(f.check));
    os << ",\"severity\":";
    json::write_string(os, severity_name(f.severity));
    os << ",\"rule\":";
    json::write_string(os, f.rule);
    if (!f.other_rule.empty()) {
      os << ",\"other_rule\":";
      json::write_string(os, f.other_rule);
    }
    if (!f.bean.empty()) {
      os << ",\"bean\":";
      json::write_string(os, f.bean);
    }
    if (!f.file.empty()) {
      os << ",\"file\":";
      json::write_string(os, f.file);
    }
    os << ",\"line\":" << f.line;
    os << ",\"message\":";
    json::write_string(os, f.message);
    os << "}";
  }
  os << "],\"errors\":" << (has_errors(fs) ? "true" : "false");
  os << ",\"count\":" << fs.size() << "}";
  return os.str();
}

rules::ConstantTable model_constants() {
  rules::ConstantTable c;
  for (const am::ConstantDef& k : am::kConstants)
    if (k.model) c.set(k.name, *k.model);
  return c;
}

namespace {

Interval test_interval(rules::CmpOp op, double rhs) {
  switch (op) {
    case rules::CmpOp::Lt: return Interval::lt(rhs);
    case rules::CmpOp::Le: return Interval::le(rhs);
    case rules::CmpOp::Gt: return Interval::gt(rhs);
    case rules::CmpOp::Ge: return Interval::ge(rhs);
    case rules::CmpOp::Eq: return Interval::eq(rhs);
    case rules::CmpOp::Ne: return Interval::all();  // handled by caller
  }
  return Interval::all();
}

/// A rule's guard as a product of per-bean intervals.
struct RuleRegion {
  const rules::RuleSpec* spec = nullptr;
  std::size_t index = 0;  // declaration order
  std::map<std::string, Interval> region;
  /// True when the region is *exactly* the guard: every bound resolved, no
  /// `not` patterns, no `!=` tests. Only exact regions participate in
  /// nonemptiness proofs (conflict) and as the superset side of shadowing.
  bool exact = true;
  /// Bean whose interval proved empty (region is an over-approximation, so
  /// emptiness is a proof even for inexact regions).
  std::string empty_bean;

  bool empty() const { return !empty_bean.empty(); }

  bool fires(const std::string& op) const {
    const auto ops = spec->fired_operations();
    return std::find(ops.begin(), ops.end(), op) != ops.end();
  }
};

std::string num(double v) {
  return support::json::number_token(v);
}

RuleRegion build_region(const rules::RuleSpec& spec, std::size_t index,
                        const Registry& reg,
                        const rules::ConstantTable& consts,
                        std::vector<Finding>& out) {
  RuleRegion rr;
  rr.spec = &spec;
  rr.index = index;

  for (const rules::Pattern& p : spec.patterns) {
    const std::optional<Interval> dom = reg.bean_domain(p.bean);
    if (!dom) {
      out.push_back({Check::UnknownBean, Severity::Error,
                     "unknown bean '" + p.bean +
                         "' — no monitor phase asserts it, so the rule can "
                         "never fire",
                     spec.name, "", p.bean, spec.line, ""});
      rr.exact = false;
    }

    bool tests_exact = true;
    Interval iv = dom.value_or(Interval::all());
    for (const rules::PatternTest& t : p.tests) {
      if (const auto* cname = std::get_if<std::string>(&t.rhs)) {
        if (!reg.known_constant(*cname)) {
          out.push_back({Check::UnknownConstant, Severity::Error,
                         "unknown constant '" + *cname +
                             "' — no manager derives it, so the test (and "
                             "the rule) can never pass",
                         spec.name, "", *cname, spec.line, ""});
          tests_exact = false;
          continue;
        }
      }
      const std::optional<double> rhs = rules::resolve(t.rhs, consts);
      if (!rhs || t.op == rules::CmpOp::Ne) {
        tests_exact = false;  // bound unresolved / not an interval
        continue;
      }
      iv = iv.intersect(test_interval(t.op, *rhs));
    }

    if (p.negated) {
      // The complement of a product region is not a product region; treat
      // the whole rule as inexact (bean/constant names were still checked).
      rr.exact = false;
      continue;
    }
    if (!tests_exact) rr.exact = false;
    if (!dom) continue;

    const auto [it, inserted] = rr.region.try_emplace(p.bean, iv);
    if (!inserted) it->second = it->second.intersect(iv);
    // Dropped (unresolvable) tests only shrink the true region further, so
    // an empty over-approximation is still a proof of unreachability.
    if (it->second.empty() && rr.empty_bean.empty()) rr.empty_bean = p.bean;
  }
  return rr;
}

void check_actions(const rules::RuleSpec& spec, const Registry& reg,
                   std::vector<Finding>& out) {
  for (const rules::ActionStmt& s : spec.actions) {
    if (const auto* fo = std::get_if<rules::FireOp>(&s)) {
      if (!reg.known_operation(fo->operation))
        out.push_back({Check::UnknownOperation, Severity::Error,
                       "unknown operation '" + fo->operation +
                           "' — the manager's execute phase maps no actuator "
                           "onto it",
                       spec.name, "", fo->operation, spec.line, ""});
    } else if (const auto* sd = std::get_if<rules::SetData>(&s)) {
      if (sd->symbolic && !reg.known_constant(sd->data) &&
          !reg.known_payload(sd->data))
        out.push_back({Check::UnknownConstant, Severity::Error,
                       "unknown setData payload '" + sd->data +
                           "' — neither a derived constant nor a known "
                           "violation kind",
                       spec.name, "", sd->data, spec.line, ""});
    } else if (const auto* sf = std::get_if<rules::SetFact>(&s)) {
      if (!reg.known_bean(sf->bean))
        out.push_back({Check::UnknownBean, Severity::Error,
                       "set() targets unknown bean '" + sf->bean + "'",
                       spec.name, "", sf->bean, spec.line, ""});
      if (const auto* cname = std::get_if<std::string>(&sf->value))
        if (!reg.known_constant(*cname))
          out.push_back({Check::UnknownConstant, Severity::Error,
                         "set() reads unknown constant '" + *cname + "'",
                         spec.name, "", *cname, spec.line, ""});
    }
  }
}

/// Bean on which the two regions provably cannot both hold, if any.
std::optional<std::string> separating_bean(const RuleRegion& a,
                                           const RuleRegion& b) {
  for (const auto& [bean, iv] : a.region) {
    const auto it = b.region.find(bean);
    if (it != b.region.end() && iv.intersect(it->second).empty()) return bean;
  }
  return std::nullopt;
}

/// A concrete point inside a nonempty interval (for conflict witnesses).
double pick_point(const Interval& iv) {
  const double inf = std::numeric_limits<double>::infinity();
  if (iv.lo == -inf && iv.hi == inf) return 0.0;
  if (iv.lo == -inf) return iv.hi_open ? iv.hi - 1.0 : iv.hi;
  if (iv.hi == inf) return iv.lo_open ? iv.lo + 1.0 : iv.lo;
  if (iv.lo == iv.hi) return iv.lo;
  if (!iv.lo_open) return iv.lo;
  return (iv.lo + iv.hi) / 2.0;
}

std::string witness(const RuleRegion& a, const RuleRegion& b) {
  std::map<std::string, Interval> joint = a.region;
  for (const auto& [bean, iv] : b.region) {
    const auto [it, inserted] = joint.try_emplace(bean, iv);
    if (!inserted) it->second = it->second.intersect(iv);
  }
  std::string s;
  for (const auto& [bean, iv] : joint) {
    if (!s.empty()) s += ", ";
    s += bean + "=" + num(pick_point(iv));
  }
  return s.empty() ? "any valuation" : s;
}

void pair_checks(const std::vector<RuleRegion>& regions, const Registry& reg,
                 std::vector<Finding>& out) {
  // --- conflicts / oscillation over antagonistic operation pairs
  for (const auto& [op_a, op_b] : reg.conflicting_ops()) {
    std::set<std::pair<std::string, std::string>> reported;
    for (const RuleRegion& r : regions) {
      if (r.fires(op_a) && r.fires(op_b))
        out.push_back(
            {Check::Conflict, Severity::Error,
             "rule fires both " + op_a + " and " + op_b +
                 " — the actions cancel (and thrash the configuration) "
                 "within a single firing",
             r.spec->name, "", "", r.spec->line, ""});
    }
    for (const RuleRegion& ra : regions) {
      if (!ra.fires(op_a) || ra.empty()) continue;
      for (const RuleRegion& rb : regions) {
        if (&ra == &rb || !rb.fires(op_b) || rb.empty()) continue;
        if (ra.fires(op_b) || rb.fires(op_a)) continue;  // self-case above
        const auto key = std::minmax(ra.spec->name, rb.spec->name);
        if (!reported.insert(key).second) continue;
        if (!ra.exact || !rb.exact) continue;  // proofs need exact regions

        const auto sep = separating_bean(ra, rb);
        if (!sep) {
          // Joint region nonempty: both guards hold at the witness point,
          // and the engine fires every fireable rule each cycle.
          out.push_back(
              {Check::Conflict, Severity::Error,
               "rules '" + ra.spec->name + "' (" + op_a + ") and '" +
                   rb.spec->name + "' (" + op_b +
                   ") both fire at a reachable valuation {" +
                   witness(ra, rb) + "} — antagonistic operations in one "
                   "agenda cycle",
               ra.spec->name, rb.spec->name, "", ra.spec->line, ""});
          continue;
        }
        // Disjoint: measure the hysteresis margin — the widest band the
        // state must cross between the two guard regions.
        double margin = 0.0;
        std::string margin_bean = *sep;
        for (const auto& [bean, iv] : ra.region) {
          const auto it = rb.region.find(bean);
          if (it == rb.region.end()) continue;
          const auto g = Interval::gap(iv, it->second);
          if (g && *g > margin) {
            margin = *g;
            margin_bean = bean;
          }
        }
        if (margin == 0.0)
          out.push_back(
              {Check::Oscillation, Severity::Error,
               "guards of '" + ra.spec->name + "' (" + op_a + ") and '" +
                   rb.spec->name + "' (" + op_b + ") abut on " + *sep +
                   " with zero hysteresis margin — any fluctuation around "
                   "the shared threshold ping-pongs add/remove every cycle",
               ra.spec->name, rb.spec->name, *sep, ra.spec->line, ""});
      }
    }
  }

  // --- shadowing: subsumed guard + identical actions + firing priority
  for (const RuleRegion& ra : regions) {
    if (!ra.exact || ra.empty()) continue;
    const auto ops_a = ra.spec->fired_operations();
    if (ops_a.empty()) continue;
    for (const RuleRegion& rb : regions) {
      if (&ra == &rb || rb.empty()) continue;
      if (rb.spec->fired_operations() != ops_a) continue;
      const bool dominates =
          ra.spec->salience > rb.spec->salience ||
          (ra.spec->salience == rb.spec->salience && ra.index < rb.index);
      if (!dominates) continue;
      // region(A) ⊇ region(B): every bean A constrains contains B's
      // (possibly domain-wide) interval. B's true region only shrinks from
      // its over-approximation, and A is exact, so this is a proof.
      bool superset = true;
      for (const auto& [bean, iv_a] : ra.region) {
        const auto it = rb.region.find(bean);
        const Interval iv_b = it != rb.region.end()
                                  ? it->second
                                  : reg.bean_domain(bean).value_or(
                                        Interval::all());
        if (!iv_a.contains(iv_b)) {
          superset = false;
          break;
        }
      }
      if (!superset) continue;
      out.push_back(
          {Check::Shadowed, Severity::Warning,
           "rule '" + rb.spec->name + "' is shadowed by '" + ra.spec->name +
               "': whenever it fires, the higher-priority rule fires the "
               "same operations — the effect is silently duplicated (" +
               am::ops::kAddExecutor + " twice adds twice)",
           rb.spec->name, ra.spec->name, "", rb.spec->line, ""});
    }
  }
}

}  // namespace

std::vector<Finding> analyze(const std::vector<rules::RuleSpec>& specs,
                             const Registry& registry,
                             const AnalysisOptions& opts) {
  std::vector<Finding> out;
  const rules::ConstantTable consts =
      opts.consts.all().empty() ? model_constants() : opts.consts;

  // Duplicate names (Engine::add_rule would throw at load time).
  std::map<std::string, std::size_t> first_line;
  for (const rules::RuleSpec& s : specs) {
    const auto [it, inserted] = first_line.try_emplace(s.name, s.line);
    if (!inserted)
      out.push_back({Check::DuplicateRule, Severity::Error,
                     "duplicate rule name '" + s.name + "' (first declared "
                     "at line " + std::to_string(it->second) + ")",
                     s.name, "", "", s.line, ""});
  }

  // Per-rule: vocabulary checks + guard regions.
  std::vector<RuleRegion> regions;
  regions.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    regions.push_back(build_region(specs[i], i, registry, consts, out));
    check_actions(specs[i], registry, out);
    const RuleRegion& rr = regions.back();
    if (rr.empty())
      out.push_back(
          {Check::Unreachable, Severity::Warning,
           "guard is unsatisfiable: the constraints on " + rr.empty_bean +
               " (with its domain " +
               registry.bean_domain(rr.empty_bean)->str() +
               ") admit no value under the current constants — the rule "
               "can never fire",
           specs[i].name, "", rr.empty_bean, specs[i].line, ""});
  }

  // Constant-valuation sanity (registry-declared orderings).
  for (const auto& [lo_name, hi_name] : registry.orderings()) {
    const auto lo = consts.get(lo_name);
    const auto hi = consts.get(hi_name);
    if (lo && hi && *lo > *hi)
      out.push_back({Check::Thresholds, Severity::Error,
                     "inverted thresholds: " + lo_name + " = " + num(*lo) +
                         " > " + hi_name + " = " + num(*hi),
                     "", "", lo_name, 0, ""});
  }

  if (opts.pair_checks) pair_checks(regions, registry, out);

  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.check != b.check) return a.check < b.check;
                     return a.line < b.line;
                   });
  return out;
}

std::vector<Finding> check_contract_split(const SplitSpec& spec,
                                          const rules::ConstantTable& consts) {
  std::vector<Finding> out;
  const auto add = [&](Severity sev, const std::string& msg) {
    out.push_back({Check::ContractSplit, sev, msg, "", "", "", 0, ""});
  };

  if (spec.parent_lo > spec.parent_hi) {
    add(Severity::Error, "inverted parent contract: floor " +
                             num(spec.parent_lo) + " > ceiling " +
                             num(spec.parent_hi));
    return out;
  }
  if (spec.service_time_s <= 0.0) {
    add(Severity::Error, "non-positive service time " +
                             num(spec.service_time_s) +
                             " — the farm performance model is undefined");
    return out;
  }

  // P_spl for a pipeline of farms: throughput is bounded by the slowest
  // stage, so the parent floor replicates to every stage (mirrors
  // am::split_for_pipeline; cross-validated in tests). Each stage then needs
  // ceil(lo * T_service) workers to sustain it.
  const double stage_lo = spec.parent_lo;
  const double max_w =
      consts.get(am::consts::kFarmMaxNumWorkers)
          .value_or(static_cast<double>(spec.max_workers));
  const double peak = max_w / spec.service_time_s;
  if (stage_lo > peak) {
    const double needed = std::ceil(stage_lo * spec.service_time_s);
    add(Severity::Error,
        "P_spl unsatisfiable: each of " + std::to_string(spec.stages) +
            " stage(s) must sustain " + num(stage_lo) +
            " tasks/s, needing " + num(needed) + " workers of " +
            num(spec.service_time_s) + "s service time, but " +
            am::consts::kFarmMaxNumWorkers + " = " + num(max_w) +
            " caps the farm at " + num(peak) + " tasks/s");
  }

  // Do the rule thresholds actually enforce the parent contract?
  if (const auto low = consts.get(am::consts::kFarmLowPerfLevel); low &&
      *low < stage_lo)
    add(Severity::Error,
        std::string("rule program under-enforces the contract: ") +
            am::consts::kFarmLowPerfLevel + " = " + num(*low) +
            " < stage floor " + num(stage_lo) + " — " + am::ops::kAddExecutor +
            "'s guard is already content while the parent contract is "
            "still violated");
  if (const auto high = consts.get(am::consts::kFarmHighPerfLevel); high &&
      spec.parent_hi < 1e29 && *high > spec.parent_hi)
    add(Severity::Warning,
        std::string("rule program tolerates over-delivery: ") +
            am::consts::kFarmHighPerfLevel + " = " + num(*high) +
            " > parent ceiling " + num(spec.parent_hi) + " — " +
            am::ops::kRemoveExecutor +
            " never triggers inside the parent's violation band");
  return out;
}

}  // namespace bsk::analysis
