#ifndef DYNAPROX_BEM_CACHE_DIRECTORY_H_
#define DYNAPROX_BEM_CACHE_DIRECTORY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bem/dependency_registry.h"
#include "bem/free_list.h"
#include "bem/replacement.h"
#include "bem/types.h"
#include "common/clock.h"
#include "common/contended_mutex.h"
#include "common/result.h"

namespace dynaprox::bem {

// Outcome of a directory lookup.
enum class LookupOutcome {
  kHit,         // Present, valid, not expired: serve via GET.
  kMissAbsent,  // Never seen (or entry reclaimed).
  kMissInvalid, // Present but invalidated (data-source or explicit).
  kMissExpired, // Present but TTL elapsed (invalidated as a side effect).
};

struct LookupResult {
  LookupOutcome outcome;
  // Valid only for kHit.
  DpcKey key = kInvalidDpcKey;

  bool hit() const { return outcome == LookupOutcome::kHit; }
};

// Aggregate counters exposed for tests, benches and EXPERIMENTS.md.
struct DirectoryStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t ttl_invalidations = 0;
  uint64_t explicit_invalidations = 0;
  uint64_t evictions = 0;

  double HitRatio() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

// The cache directory (paper 4.3.3): the BEM's single source of truth about
// what the DPC holds. Maps fragmentID -> {dpcKey, isValid, ttl}, and owns
// the data-source dependencies of every valid entry.
//
// Keys carry a generation (bem::DpcKey): each assignment of a slot hands
// out key = generation * capacity + slot and then bumps the slot's
// generation, so a reassigned slot never repeats a key and a DPC holding
// the slot's previous occupant can tell it from the new one. A slot's
// first assignment keeps key == slot.
//
// Once a lookup has found a fragment's entry, its slot is the fragment's
// handle: the replacement policy orders slots, the dependency registry
// files dependencies under slots, and each slot records the entry
// referencing it. An eviction keeps the slot it frees for
// the insert that needed it, instead of passing it through the free list
// where a concurrent insert could take it, and the evicted entry's map
// node is reused for the incoming fragment.
//
// Lifecycle invariants (tested in cache_directory_test.cc, monitor_test.cc
// and concurrency_test.cc):
//  * Every slot in [0, capacity) is either on the free list, owned by
//    exactly one VALID entry, or held by the one insert assigning it...
//    with one paper-faithful subtlety: an INVALID entry keeps referencing
//    its released slot until that slot is reassigned, at which point the
//    stale entry is reclaimed. ("invalid fragments are not explicitly
//    removed from the DPC; the slots simply remain unused until they are
//    subsequently assigned to a new fragment") An evicted entry is
//    reclaimed at once, because its slot is reassigned at once.
//  * A valid entry <=> its dependencies are registered. Insert adds them
//    when it publishes the entry; InvalidateEntryLocked, the one step every
//    exit from validity runs through (eviction, TTL expiry, explicit and
//    key invalidation, InvalidateAll, re-insert), removes them. Both run
//    under the entry's stripe lock, so a data-source update can never
//    erase a newer incarnation's dependencies, and the registry is bounded
//    by capacity.
//  * Invalidation never communicates with the DPC.
//  * Directory size never exceeds capacity (quiescent; a burst of
//    concurrent inserts can transiently overshoot by the number of
//    in-flight inserts while stale entries are being reclaimed).
//
// Thread-safe. The entry map is lock-striped kStripes ways by fragment id
// (mirroring dpc::FragmentStore), so parallel block executions of one page
// — and parallel pages on different ingress workers — don't serialize on
// one directory mutex. Each stripe keeps its own counters under its lock;
// stats() and valid_count() add them up.
//
// Lock hierarchy (deadlock discipline): a stripe mutex may be held while
// taking the policy mutex, the dependency registry's mutex, or the free
// list's internal mutex — all leaves. Nothing takes a
// stripe mutex while holding the registry mutex: a data-source update
// reads DependencyRegistry::Affected first and invalidates after it
// returns. No operation ever holds two stripe mutexes,
// and cross-stripe work (eviction of a victim in another stripe, reclaim
// of a stale slot owner) runs with no stripe mutex held, re-validating
// under the target stripe's lock. The replacement policy stays one global
// instance behind its own mutex so victim selection keeps the exact
// sequential LRU/FIFO/CLOCK semantics the model tests (the golden churn
// traces in directory_model_test.cc) and bench/ablation_replacement pin
// down. An eviction picks its victim and has the policy forget it under
// one hold of that mutex, so concurrent evictions never pick the same
// victim.
class CacheDirectory {
 public:
  static constexpr size_t kStripes = 16;

  // `ttl_micros` <= 0 in Insert means "no TTL". `clock` must outlive the
  // directory. `policy` selects eviction victims when the key space is
  // exhausted.
  CacheDirectory(DpcKey capacity, const Clock* clock,
                 std::unique_ptr<ReplacementPolicy> policy);

  // Looks up `id`; on a hit the replacement policy sees an access. Expired
  // entries are invalidated lazily here.
  LookupResult Lookup(const FragmentId& id);

  // Registers `id` as cached with the data-source dependencies `deps` and
  // returns its new dpcKey, one generation past the slot's previous key.
  // If every slot is taken, evicts a victim chosen by the replacement
  // policy and takes the victim's slot. Re-inserting a currently-valid
  // fragment first invalidates it (fresh key, and `deps` replace its old
  // dependencies), matching the paper's miss-path ("an entry is inserted
  // into the cache directory").
  //
  // `read_since` is update_sequence() as read before the fragment's code
  // block read the data source. An update of one of `deps` recorded since
  // then (NoteUpdate) may have landed after that read, when no valid
  // entry existed for it to invalidate: the entry is then invalidated
  // right after it is published, so the next lookup re-renders it. The
  // key is still returned — the content is what this render saw.
  // kNoReadSince skips the check.
  static constexpr uint64_t kNoReadSince = UINT64_MAX;
  Result<DpcKey> Insert(const FragmentId& id, MicroTime ttl_micros,
                        const DependencyList& deps = {},
                        uint64_t read_since = kNoReadSince);

  // The data-source update sequence: the number of updates recorded.
  uint64_t update_sequence() const { return registry_.update_sequence(); }
  // Records a data-source update for Insert's check. Call it before
  // invalidating the fragments the update affects.
  void NoteUpdate(const storage::UpdateEvent& event) {
    registry_.NoteUpdate(event);
  }

  // Marks `id` invalid and pushes its key on the free list. NotFound if the
  // fragment is unknown or already invalid.
  Status Invalidate(const FragmentId& id);
  Status InvalidateCanonical(const std::string& canonical);

  // Invalidates the valid fragment that owns exactly `key` (used by the
  // DPC cold-cache recovery protocol, which only knows dpcKeys). Returns
  // the canonical id invalidated; NotFound if no valid entry holds that
  // key (never assigned, invalidated, or its slot reassigned since).
  //
  // With `pin_key` (a refresh) it invalidates the valid occupant of
  // `key`'s slot whatever its generation, and releases the slot to the
  // FRONT of the free list so the next Insert — normally the refresh
  // re-render of this very fragment — lands in the same slot, under the
  // slot's next key. The DPC's streamed recovery depends on that: it has
  // already committed `GET key` to the client and fills that hole with
  // the refreshed template's SET into the same slot. Two responses that
  // miss the same key each get that SET: the first refresh re-keys the
  // fragment, and the second still finds it by its slot.
  Result<std::string> InvalidateKey(DpcKey key, bool pin_key = false);

  // Invalidates every valid entry; returns how many.
  size_t InvalidateAll();

  // Proactively invalidates expired entries; returns how many.
  size_t SweepExpired();

  // Introspection. capacity() is the slot count.
  DpcKey capacity() const { return free_list_.capacity(); }
  size_t entry_count() const;
  size_t valid_count() const;
  // Slots on the free list (the paper's free dpcKeys).
  size_t free_key_count() const { return free_list_.free_count(); }
  DirectoryStats stats() const;
  const ReplacementPolicy& policy() const { return *policy_; }
  // The valid entries' dependencies; data-source updates start here.
  const DependencyRegistry& dependencies() const { return registry_; }

  // Parallelism counters: evidence that concurrent callers really hit
  // different stripes (and how often the shared structures still collide).
  struct ConcurrencyStats {
    uint64_t stripe_contentions = 0;     // Contended stripe-mutex locks.
    uint64_t policy_contentions = 0;     // Contended policy-mutex locks.
    uint64_t free_list_contentions = 0;  // Contended free-list locks.
    uint64_t registry_contentions = 0;   // Contended registry locks.
    uint64_t insert_races = 0;  // Insert rounds retried under concurrency.
  };
  ConcurrencyStats concurrency_stats() const;

  // Returns the valid entry's key for tests; NotFound otherwise.
  Result<DpcKey> KeyOf(const FragmentId& id) const;

  // A read-only view of one directory entry (introspection/status).
  struct EntryView {
    std::string fragment_id;  // Canonical form.
    DpcKey key;
    bool is_valid;
    MicroTime age_micros;     // Since insertion.
    MicroTime ttl_micros;     // <= 0: no expiry.
  };

  // Snapshots up to `limit` entries in canonical order (0 = all).
  std::vector<EntryView> SnapshotEntries(size_t limit = 0) const;

 private:
  struct Entry {
    DpcKey key;
    bool is_valid;
    MicroTime ttl_micros;    // <= 0: no expiry.
    MicroTime inserted_at;
  };

  // A canonical fragment id with its hash, computed once per call: the
  // hash picks the stripe and is the stripe map's hash too.
  struct HashedId {
    std::string_view canonical;
    size_t hash;
  };
  static HashedId Hashed(std::string_view canonical) {
    return {canonical, std::hash<std::string_view>{}(canonical)};
  }
  struct EntryKey {
    std::string canonical;
    size_t hash;
    operator HashedId() const { return {canonical, hash}; }
  };
  struct EntryKeyHash {
    using is_transparent = void;
    size_t operator()(HashedId id) const noexcept { return id.hash; }
  };
  struct EntryKeyEq {
    using is_transparent = void;
    bool operator()(HashedId a, HashedId b) const {
      return a.hash == b.hash && a.canonical == b.canonical;
    }
  };
  using EntryMap =
      std::unordered_map<EntryKey, Entry, EntryKeyHash, EntryKeyEq>;
  // A map node out of any map: an entry reclaimed from its slot, reused
  // for the fragment the slot goes to next.
  using EntryNode = EntryMap::node_type;

  // DirectoryStats, plus the valid entries, per stripe: each is bumped
  // under the stripe lock the operation already holds.
  struct StripeCounters {
    uint64_t valid = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t ttl_invalidations = 0;
    uint64_t explicit_invalidations = 0;
    uint64_t evictions = 0;
  };

  struct Stripe {
    mutable common::ContendedMutex mu;
    EntryMap entries;         // Guarded by mu.
    StripeCounters counters;  // Guarded by mu.
  };

  Stripe& StripeOf(HashedId id) const {
    return stripes_[id.hash % kStripes];
  }

  // Where an invalidated entry's slot goes: to the back of the free list,
  // to its front (a refresh pin), or nowhere (an eviction keeps it).
  enum class SlotRelease { kBack, kFront, kKeep };

  // Per slot: the entry referencing it, if any, and the generation of its
  // next assignment. A record goes from empty to (stripe, entry) only in
  // the publish of the insert holding the slot, under that stripe's
  // mutex, and back to empty only under the same mutex; so once a reader
  // holds the stripe the record names, and the record still names it,
  // the entry pointer is stable (map nodes do not move).
  struct SlotRecord {
    std::atomic<Stripe*> stripe{nullptr};
    EntryMap::value_type* entry = nullptr;  // Guarded by stripe->mu.
    // Read and bumped only by the thread holding the slot; the free
    // list's mutex, or the victim's stripe mutex, orders successive
    // holders.
    DpcKey next_generation = 0;
  };
  // An entry referencing a slot, with the stripe holding it.
  struct SlotEntry {
    Stripe* stripe = nullptr;
    EntryMap::value_type* entry = nullptr;
  };

  bool Expired(const Entry& entry) const;
  // Shared invalidation: flips the flag, drops the dependencies and the
  // policy's record, and releases the slot as `release` says. Caller
  // holds `stripe`'s mutex, the stripe holding `entry`.
  void InvalidateEntryLocked(Stripe& stripe, Entry& entry,
                             SlotRelease release);
  // Locks the stripe holding the entry that references `slot` into
  // `lock` and returns both; no entry, and no lock taken, if none.
  // Caller must hold NO stripe lock.
  SlotEntry LockSlotEntry(DpcKey slot,
                          std::unique_lock<common::ContendedMutex>& lock);
  // Empties `slot`'s record, whose stripe mutex the caller holds.
  void ClearSlotLocked(DpcKey slot);
  // Takes the entry referencing `slot` out of its stripe's map: the
  // record is emptied, and the node returned for reuse. Caller holds
  // the stripe's mutex.
  EntryNode TakeSlotEntryLocked(DpcKey slot, SlotEntry owner);
  // Reclaims the stale invalid entry (if any) that still references
  // `slot`, which the caller holds, and returns its node. Takes the
  // owner's stripe lock itself; caller must hold NO stripe lock.
  EntryNode ReclaimSlotOwner(DpcKey slot);
  // Evicts a policy victim and returns its slot, which the caller now
  // holds, with the victim's node in `node`. CapacityExceeded when the
  // policy has no candidates; NotFound when the victim stopped being
  // valid first (its slot went to the free list). Caller must hold NO
  // stripe lock.
  Result<DpcKey> EvictOne(EntryNode& node);

  const Clock* clock_;
  std::unique_ptr<ReplacementPolicy> policy_;  // Guarded by policy_mu_.
  mutable common::ContendedMutex policy_mu_;
  FreeList free_list_;  // Internally synchronized.
  // Written only under the stripe lock of the fragment concerned.
  DependencyRegistry registry_;  // Internally synchronized.
  mutable std::array<Stripe, kStripes> stripes_;
  std::unique_ptr<SlotRecord[]> slots_;  // One per slot.
  std::atomic<uint64_t> insert_races_{0};
};

}  // namespace dynaprox::bem

#endif  // DYNAPROX_BEM_CACHE_DIRECTORY_H_
