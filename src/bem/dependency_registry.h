#ifndef DYNAPROX_BEM_DEPENDENCY_REGISTRY_H_
#define DYNAPROX_BEM_DEPENDENCY_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bem/types.h"
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
// Dependencies are filed under the slot of the fragment that declared
// them: a valid fragment holds exactly one slot, and a slot at most one
// valid fragment. Each source keeps the slots that depend on it, and each
// slot its sources with its position in each source's list, so dropping a
// dependency is O(1) with no lookup, and filing one is one lookup. A
// source no slot depends on any more stays in the index, empty, for the
// next fragment that depends on it; once there are more empty sources
// than slots they are all erased, so the index stays bounded by the
// capacity. Every list keeps its capacity, so a directory in steady state
// files and drops dependencies without allocating.
//
// Owned by CacheDirectory, which adds a fragment's dependencies when it
// publishes the entry and removes them when the entry stops being valid,
// both under the entry's stripe lock. The registry therefore holds exactly
// the valid entries' dependencies and is bounded by the directory's
// capacity. Affected takes only the registry mutex and returns before the
// caller invalidates the fragments it names.
//
// Thread-safe behind one internal mutex, a leaf under the directory's
// stripe mutexes. The two indexes must stay mutually consistent, so a
// single mutex (not striping) is the right shape; contentions() shows
// whether it matters.
class DependencyRegistry {
 public:
  // Files `deps` under `slot`, which fragment `canonical` now holds. The
  // slot's previous holder must have been removed. A dependency listed
  // twice is filed once.
  void Add(DpcKey slot, std::string_view canonical,
           const DependencyList& deps);

  // Drops the dependencies filed under `slot` (its fragment stopped being
  // valid). A slot with none filed is ignored.
  void Remove(DpcKey slot);

  // Fragments affected by `event`, as canonical ids in sorted order.
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

  // Fragments with at least one dependency filed.
  size_t fragment_count() const {
    std::lock_guard<common::ContendedMutex> lock(mu_);
    return fragments_;
  }

  // Contended acquisitions of the internal mutex.
  uint64_t contentions() const { return mu_.contended_acquisitions(); }

 private:
  // A source: (table, row_key), row_key "" for the whole table. Looked up
  // by a view of the two strings, so a lookup builds no key.
  struct SourceView {
    std::string_view table;
    std::string_view row_key;
  };
  struct SourceKey {
    std::string table;
    std::string row_key;
    operator SourceView() const { return {table, row_key}; }
  };
  struct SourceHash {
    using is_transparent = void;
    size_t operator()(SourceView source) const {
      const std::hash<std::string_view> hash;
      return hash(source.table) * 31 + hash(source.row_key);
    }
  };
  struct SourceEq {
    using is_transparent = void;
    bool operator()(SourceView a, SourceView b) const {
      return a.table == b.table && a.row_key == b.row_key;
    }
  };
  // A slot depending on a source, and the index of that dependency in the
  // slot's record.
  struct Dependent {
    DpcKey slot;
    size_t edge;
  };
  using SourceMap = std::unordered_map<SourceKey, std::vector<Dependent>,
                                       SourceHash, SourceEq>;
  // One dependency of a slot: its source (map nodes are stable), and the
  // slot's index in that source's dependents.
  struct Edge {
    SourceMap::value_type* source;
    size_t position;
  };
  struct SlotRecord {
    std::string canonical;    // Meaningful while edges is not empty.
    std::vector<Edge> edges;  // Empty: nothing filed.
  };

  mutable common::ContendedMutex mu_;
  // All guarded by mu_.
  SourceMap sources_;
  size_t empty_sources_ = 0;       // Sources in sources_ with no dependent.
  std::vector<SlotRecord> slots_;  // Grows to the largest slot.
  size_t fragments_ = 0;

  // The last kUpdateLogSize updates, oldest first; update_seq_ counts
  // every update. Behind their own leaf mutex, apart from the indexes.
  static constexpr size_t kUpdateLogSize = 256;
  mutable std::mutex updates_mu_;
  std::deque<storage::UpdateEvent> recent_updates_;  // Guarded.
  uint64_t update_seq_ = 0;                          // Guarded.
};

}  // namespace dynaprox::bem

#endif  // DYNAPROX_BEM_DEPENDENCY_REGISTRY_H_
