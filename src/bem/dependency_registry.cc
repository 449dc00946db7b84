#include "bem/dependency_registry.h"

#include <algorithm>
#include <cassert>

namespace dynaprox::bem {
namespace {

// The invalidation rule: whether `event` touches a dependency on
// (`table`, `row_key`), an empty `row_key` naming the whole table.
bool Touches(const storage::UpdateEvent& event, std::string_view table,
             std::string_view row_key) {
  return table == event.table &&
         (row_key.empty() || (!event.key.empty() && row_key == event.key));
}

}  // namespace

void DependencyRegistry::Add(DpcKey slot, std::string_view canonical,
                             const DependencyList& deps) {
  if (deps.empty()) return;
  std::lock_guard<common::ContendedMutex> lock(mu_);
  if (slot >= slots_.size()) slots_.resize(slot + 1);
  SlotRecord& record = slots_[slot];
  assert(record.edges.empty());
  for (const auto& [table, row_key] : deps) {
    auto it = sources_.find(SourceView{table, row_key});
    if (it == sources_.end()) {
      it = sources_.try_emplace(SourceKey{table, row_key}).first;
    } else if (it->second.empty()) {
      --empty_sources_;
    } else if (std::any_of(record.edges.begin(), record.edges.end(),
                           [&](const Edge& edge) {
                             return edge.source == &*it;
                           })) {
      continue;  // Listed twice.
    }
    it->second.push_back({slot, record.edges.size()});
    record.edges.push_back({&*it, it->second.size() - 1});
  }
  record.canonical.assign(canonical);
  ++fragments_;
}

void DependencyRegistry::Remove(DpcKey slot) {
  std::lock_guard<common::ContendedMutex> lock(mu_);
  if (slot >= slots_.size() || slots_[slot].edges.empty()) return;
  for (const Edge& edge : slots_[slot].edges) {
    // Swap-remove the slot from the source's dependents.
    std::vector<Dependent>& dependents = edge.source->second;
    const Dependent moved = dependents.back();
    dependents[edge.position] = moved;
    slots_[moved.slot].edges[moved.edge].position = edge.position;
    dependents.pop_back();
    if (dependents.empty()) ++empty_sources_;
  }
  slots_[slot].edges.clear();
  --fragments_;
  if (empty_sources_ > slots_.size()) {
    std::erase_if(sources_,
                  [](const auto& source) { return source.second.empty(); });
    empty_sources_ = 0;
  }
}

std::vector<std::string> DependencyRegistry::Affected(
    const storage::UpdateEvent& event) const {
  std::lock_guard<common::ContendedMutex> lock(mu_);
  std::vector<DpcKey> slots;
  // Only the table-level source and the event's row source can hold
  // dependents the event Touches.
  for (std::string_view row_key : {std::string_view(), std::string_view(event.key)}) {
    if (!Touches(event, event.table, row_key)) continue;
    if (auto it = sources_.find(SourceView{event.table, row_key});
        it != sources_.end()) {
      for (const Dependent& dependent : it->second) {
        slots.push_back(dependent.slot);
      }
    }
  }
  // A slot with both a table and a row dependency appears twice.
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  std::vector<std::string> result;
  result.reserve(slots.size());
  for (DpcKey slot : slots) result.push_back(slots_[slot].canonical);
  std::sort(result.begin(), result.end());
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
