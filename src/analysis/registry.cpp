#include "analysis/registry.hpp"

#include <sstream>

// Header-only dependency on the manager's vocabulary table; bsk_analysis
// does NOT link bsk_am — the dependency arrow runs the other way (the manager
// optionally lints rule programs at load time).
#include "am/vocabulary.hpp"
#include "support/json.hpp"

namespace bsk::analysis {

void Registry::add_bean(std::string name, Interval domain, std::string doc) {
  beans_[std::move(name)] = BeanInfo{domain, std::move(doc)};
}

void Registry::add_bean_prefix(std::string prefix) {
  bean_prefixes_.push_back(std::move(prefix));
}

void Registry::add_operation(std::string name) {
  operations_.insert(std::move(name));
}

void Registry::add_constant(std::string name) {
  constants_.insert(std::move(name));
}

void Registry::add_payload(std::string name) {
  payloads_.insert(std::move(name));
}

void Registry::add_ordering(std::string lo_name, std::string hi_name) {
  orderings_.emplace_back(std::move(lo_name), std::move(hi_name));
}

void Registry::add_conflicting_ops(std::string a, std::string b) {
  conflict_ops_.emplace_back(std::move(a), std::move(b));
}

std::optional<Interval> Registry::bean_domain(const std::string& name) const {
  const auto it = beans_.find(name);
  if (it != beans_.end()) return it->second.domain;
  for (const std::string& p : bean_prefixes_)
    if (name.size() > p.size() && name.compare(0, p.size(), p) == 0)
      return Interval::all();
  return std::nullopt;
}

bool Registry::known_bean(const std::string& name) const {
  return bean_domain(name).has_value();
}

bool Registry::known_operation(const std::string& name) const {
  return operations_.contains(name);
}

bool Registry::known_constant(const std::string& name) const {
  return constants_.contains(name);
}

bool Registry::known_payload(const std::string& name) const {
  return payloads_.contains(name);
}

std::string Registry::to_json() const {
  namespace json = support::json;
  std::ostringstream os;
  os << "{\"beans\":[";
  bool first = true;
  for (const auto& [name, info] : beans_) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":";
    json::write_string(os, name);
    os << ",\"domain\":";
    json::write_string(os, info.domain.str());
    os << ",\"doc\":";
    json::write_string(os, info.doc);
    os << "}";
  }
  os << "]";
  const auto write_names = [&os](const char* key, const auto& names) {
    os << ",\"" << key << "\":[";
    bool first_name = true;
    for (const std::string& n : names) {
      if (!first_name) os << ",";
      first_name = false;
      json::write_string(os, n);
    }
    os << "]";
  };
  write_names("bean_prefixes", bean_prefixes_);
  write_names("operations", operations_);
  write_names("constants", constants_);
  write_names("payloads", payloads_);
  os << "}";
  return os.str();
}

Registry default_registry() {
  Registry r;
  for (const am::BeanDef& b : am::kBeans)
    r.add_bean(b.name, Interval::closed(b.lo, b.hi), b.doc);
  r.add_bean_prefix(am::beans::kViolationPrefix);
  for (const char* op : am::kOperations) r.add_operation(op);
  for (const am::ConstantDef& c : am::kConstants) r.add_constant(c.name);
  for (const char* p : am::kPayloads) r.add_payload(p);
  for (const auto& [lo, hi] : am::kOrderings) r.add_ordering(lo, hi);
  for (const auto& [a, b] : am::kAntagonisticOps) r.add_conflicting_ops(a, b);
  return r;
}

}  // namespace bsk::analysis
