#include "bem/dependency_registry.h"

#include <algorithm>

namespace dynaprox::bem {

void DependencyRegistry::Add(const std::string& canonical,
                             const std::string& table,
                             const std::string& row_key) {
  std::lock_guard<common::ContendedMutex> lock(mu_);
  if (by_source_[table][row_key].insert(canonical).second) {
    by_fragment_[canonical].push_back(Dep{table, row_key});
  }
}

void DependencyRegistry::RemoveFragment(const std::string& canonical) {
  std::lock_guard<common::ContendedMutex> lock(mu_);
  auto it = by_fragment_.find(canonical);
  if (it == by_fragment_.end()) return;
  for (const Dep& dep : it->second) {
    auto table_it = by_source_.find(dep.table);
    if (table_it == by_source_.end()) continue;
    auto row_it = table_it->second.find(dep.row_key);
    if (row_it == table_it->second.end()) continue;
    row_it->second.erase(canonical);
    if (row_it->second.empty()) table_it->second.erase(row_it);
    if (table_it->second.empty()) by_source_.erase(table_it);
  }
  by_fragment_.erase(it);
}

std::vector<std::string> DependencyRegistry::Affected(
    const storage::UpdateEvent& event) const {
  std::lock_guard<common::ContendedMutex> lock(mu_);
  std::vector<std::string> result;
  auto table_it = by_source_.find(event.table);
  if (table_it == by_source_.end()) return {};
  // Table-level dependents.
  if (auto row_it = table_it->second.find(""); row_it != table_it->second.end()) {
    result.insert(result.end(), row_it->second.begin(), row_it->second.end());
  }
  // Row-level dependents.
  if (!event.key.empty()) {
    if (auto row_it = table_it->second.find(event.key);
        row_it != table_it->second.end()) {
      result.insert(result.end(), row_it->second.begin(), row_it->second.end());
    }
  }
  // A fragment with both a table and a row dependency appears twice, and
  // the sets' hash order is not an order callers may see.
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

}  // namespace dynaprox::bem
