#include "bem/dependency_registry.h"

#include <algorithm>

namespace dynaprox::bem {
namespace {

// The invalidation rule: whether `event` touches a dependency on
// (`table`, `row_key`), an empty `row_key` naming the whole table.
bool Touches(const storage::UpdateEvent& event, const std::string& table,
             const std::string& row_key) {
  return table == event.table &&
         (row_key.empty() || (!event.key.empty() && row_key == event.key));
}

}  // namespace

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
  // Only the table-level bucket and the event's row bucket can hold
  // dependents the event Touches.
  for (const std::string& row_key : {std::string(), event.key}) {
    if (!Touches(event, event.table, row_key)) continue;
    if (auto row_it = table_it->second.find(row_key);
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

uint64_t DependencyRegistry::update_sequence() const {
  std::lock_guard<std::mutex> lock(updates_mu_);
  return update_seq_;
}

void DependencyRegistry::NoteUpdate(const storage::UpdateEvent& event) {
  std::lock_guard<std::mutex> lock(updates_mu_);
  recent_updates_.push_back(event);
  if (recent_updates_.size() > kUpdateLogSize) recent_updates_.pop_front();
  ++update_seq_;
}

bool DependencyRegistry::UpdatedSince(uint64_t read_since,
                                      const DependencyList& deps) const {
  std::lock_guard<std::mutex> lock(updates_mu_);
  const uint64_t newer = update_seq_ - read_since;
  if (newer == 0) return false;
  if (newer > recent_updates_.size()) return true;
  for (auto it = recent_updates_.end() - static_cast<ptrdiff_t>(newer);
       it != recent_updates_.end(); ++it) {
    for (const auto& [table, row_key] : deps) {
      if (Touches(*it, table, row_key)) return true;
    }
  }
  return false;
}

}  // namespace dynaprox::bem
