#ifndef DYNAPROX_BEM_DEPENDENCY_REGISTRY_H_
#define DYNAPROX_BEM_DEPENDENCY_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/contended_mutex.h"
#include "storage/update_bus.h"

namespace dynaprox::bem {

// A fragment's declared data-source dependencies: (table, row_key) pairs,
// where an empty row_key means the whole table.
using DependencyList = std::vector<std::pair<std::string, std::string>>;

// Tracks which cached fragments depend on which data-source rows, enabling
// the cache invalidation manager's "updates to the underlying data sources"
// trigger (paper 4.3.3). A dependency is (table) or (table, row-key). The
// matching rule is Touches() in the .cc: an update of a table touches the
// table-level dependents, and an update of one row also that row's; a
// table-wide update (empty key) leaves row-level dependents alone.
// Affected() and UpdatedSince() both apply it.
//
// Owned by CacheDirectory, which adds a fragment's dependencies when it
// publishes the entry and removes them when the entry stops being valid,
// both under the entry's stripe lock. The registry therefore holds exactly
// the valid entries' dependencies and is bounded by the directory's
// capacity. Affected takes only the registry mutex and returns before the
// caller invalidates the fragments it names.
//
// Thread-safe behind one internal mutex, a leaf under the directory's
// stripe mutexes. The two index maps must stay mutually consistent, so a
// single mutex (not striping) is the right shape; contentions() shows
// whether it matters.
class DependencyRegistry {
 public:
  // Declares that fragment `canonical` depends on `table` (whole table when
  // `row_key` is empty).
  void Add(const std::string& canonical, const std::string& table,
           const std::string& row_key = "");

  // Drops all dependencies of `canonical` (its entry stopped being valid).
  void RemoveFragment(const std::string& canonical);

  // Fragments affected by `event`, in deterministic (sorted) order.
  std::vector<std::string> Affected(const storage::UpdateEvent& event) const;

  // The update log, for inserts racing an update (CacheDirectory::Insert).
  // The number of updates recorded so far.
  uint64_t update_sequence() const;
  // Records a data-source update. Call it before invalidating the
  // fragments the update affects.
  void NoteUpdate(const storage::UpdateEvent& event);
  // True if an update recorded after sequence `read_since` touches one of
  // `deps`, or if the log no longer reaches back that far.
  bool UpdatedSince(uint64_t read_since, const DependencyList& deps) const;

  size_t fragment_count() const {
    std::lock_guard<common::ContendedMutex> lock(mu_);
    return by_fragment_.size();
  }

  // Contended acquisitions of the internal mutex.
  uint64_t contentions() const { return mu_.contended_acquisitions(); }

 private:
  struct Dep {
    std::string table;
    std::string row_key;  // Empty: whole table.
  };

  mutable common::ContendedMutex mu_;
  // (table, row_key) -> fragments; row_key "" holds table-level deps.
  // Both maps guarded by mu_. A fragment's Dep is recorded only when
  // by_source_ gains the fragment, so each list holds no duplicates.
  std::unordered_map<
      std::string,
      std::unordered_map<std::string, std::unordered_set<std::string>>>
      by_source_;
  std::unordered_map<std::string, std::vector<Dep>> by_fragment_;

  // The last kUpdateLogSize updates, oldest first; update_seq_ counts
  // every update. Behind their own leaf mutex, apart from the indexes.
  static constexpr size_t kUpdateLogSize = 256;
  mutable std::mutex updates_mu_;
  std::deque<storage::UpdateEvent> recent_updates_;  // Guarded.
  uint64_t update_seq_ = 0;                          // Guarded.
};

}  // namespace dynaprox::bem

#endif  // DYNAPROX_BEM_DEPENDENCY_REGISTRY_H_
