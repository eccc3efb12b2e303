#pragma once
// Machine-readable registry of the autonomic manager's vocabulary: the beans
// it asserts into working memory, the operations its execute phase maps onto
// ABC actuators, and the constants it derives from contracts/config. bsk-lint
// resolves every name a rule program references against this registry, so an
// unknown bean/operation/constant is a *static* finding instead of a rule
// that silently never fires (the engine's runtime behaviour for bad names).
//
// The default registry is built from the manager's vocabulary table
// (am/vocabulary.hpp), so it cannot drift from what the manager asserts,
// handles and seeds. Callers extend it with application-registered
// operations/constants before analysing.

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/interval.hpp"

namespace bsk::analysis {

/// A bean the manager can assert, with its value domain (e.g. rates and
/// worker counts are never negative — a rule requiring `value < 0` on one is
/// statically unreachable).
struct BeanInfo {
  Interval domain;  ///< possible values the monitor phase can assert
  std::string doc;
};

class Registry {
 public:
  void add_bean(std::string name, Interval domain = Interval::all(),
                std::string doc = "");
  /// Beans matching `prefix*` are accepted (the manager mints one
  /// "Violation_<kind>" pulse bean per child violation kind).
  void add_bean_prefix(std::string prefix);
  void add_operation(std::string name);
  void add_constant(std::string name);
  /// Symbolic setData payloads that are not numeric constants (violation
  /// kinds like notEnoughTasks_VIOL).
  void add_payload(std::string name);
  /// Declare `lo_name <= hi_name` (threshold sanity check).
  void add_ordering(std::string lo_name, std::string hi_name);
  /// Declare an antagonistic operation pair (firing both in one cycle from
  /// overlapping guard regions is a conflict; zero-margin separation is an
  /// oscillation risk).
  void add_conflicting_ops(std::string a, std::string b);

  /// Domain for a bean name, or nullopt when the name is unknown.
  std::optional<Interval> bean_domain(const std::string& name) const;
  bool known_bean(const std::string& name) const;
  bool known_operation(const std::string& name) const;
  bool known_constant(const std::string& name) const;
  bool known_payload(const std::string& name) const;

  const std::vector<std::pair<std::string, std::string>>& orderings() const {
    return orderings_;
  }
  const std::vector<std::pair<std::string, std::string>>& conflicting_ops()
      const {
    return conflict_ops_;
  }

  /// Serialize the vocabulary as JSON (bsk-lint --registry).
  std::string to_json() const;

 private:
  std::map<std::string, BeanInfo> beans_;
  std::vector<std::string> bean_prefixes_;
  std::set<std::string> operations_;
  std::set<std::string> constants_;
  std::set<std::string> payloads_;
  std::vector<std::pair<std::string, std::string>> orderings_;
  std::vector<std::pair<std::string, std::string>> conflict_ops_;
};

/// The vocabulary of bsk::am::AutonomicManager, read from am/vocabulary.hpp:
/// its beans with their domains, operations, symbolic payloads, constants,
/// threshold orderings and the ADD_EXECUTOR/REMOVE_EXECUTOR antagonism.
Registry default_registry();

}  // namespace bsk::analysis
