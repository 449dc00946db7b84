#ifndef DYNAPROX_BEM_CACHE_DIRECTORY_H_
#define DYNAPROX_BEM_CACHE_DIRECTORY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
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
// Lifecycle invariants (tested in cache_directory_test.cc, monitor_test.cc
// and concurrency_test.cc):
//  * Every slot in [0, capacity) is either on the free list or owned by
//    exactly one VALID entry... with one paper-faithful subtlety: an
//    INVALID entry keeps referencing its released slot until that slot is
//    reassigned, at which point the stale entry is reclaimed. ("invalid
//    fragments are not explicitly removed from the DPC; the slots simply
//    remain unused until they are subsequently assigned to a new fragment")
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
// one directory mutex. Counters are relaxed atomics.
//
// Lock hierarchy (deadlock discipline): a stripe mutex may be held while
// taking the policy mutex, the slot-owner mutex, the dependency registry's
// mutex, or the free list's internal mutex — all leaves. Nothing takes a
// stripe mutex while holding the registry mutex: a data-source update
// reads DependencyRegistry::Affected first and invalidates after it
// returns. No operation ever holds two stripe mutexes,
// and cross-stripe work (eviction of a victim in another stripe, reclaim
// of a stale slot owner) runs with no stripe mutex held, re-validating
// under the target stripe's lock. The replacement policy stays one global
// instance behind its own mutex so victim selection keeps the exact
// sequential LRU/FIFO/CLOCK semantics the model tests and
// bench/ablation_replacement pin down.
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
  // policy. Re-inserting a currently-valid
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
  size_t valid_count() const {
    return valid_count_.load(std::memory_order_relaxed);
  }
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

  struct Stripe {
    mutable common::ContendedMutex mu;
    std::unordered_map<std::string, Entry> entries;  // Guarded by mu.
  };

  Stripe& StripeFor(const std::string& canonical) const {
    return stripes_[std::hash<std::string>{}(canonical) % kStripes];
  }

  bool Expired(const Entry& entry) const;
  // Shared invalidation: flips the flag, drops the dependencies, releases
  // the slot, updates policy. Caller holds the entry's stripe mutex.
  // `pin_key` releases to the front of the free list (refresh reuse).
  void InvalidateEntryLocked(const std::string& canonical, Entry& entry,
                             bool pin_key = false);
  // Reclaims the stale invalid entry (if any) that still references
  // `slot`. Takes the owner's stripe lock itself; caller must hold NO
  // stripe lock.
  void ReclaimSlotOwner(DpcKey slot);
  // Frees one slot by evicting a policy victim. CapacityExceeded when the
  // policy has no candidates. Caller must hold NO stripe lock.
  Status EvictOne();

  const Clock* clock_;
  std::unique_ptr<ReplacementPolicy> policy_;  // Guarded by policy_mu_.
  mutable common::ContendedMutex policy_mu_;
  FreeList free_list_;  // Internally synchronized.
  // Written only under the stripe lock of the fragment concerned.
  DependencyRegistry registry_;  // Internally synchronized.
  mutable std::array<Stripe, kStripes> stripes_;
  // slot -> canonical fragment id of the entry referencing it ("" if
  // none). Guarded by owner_mu_ (leaf lock; element s is only rewritten by
  // the thread that currently holds slot s out of the free list).
  mutable std::mutex owner_mu_;
  std::vector<std::string> slot_owner_;
  // slot -> generation of its next assignment. Element s is read and
  // bumped only by the thread holding slot s out of the free list, whose
  // mutex orders successive holders.
  std::vector<DpcKey> next_generation_;

  std::atomic<size_t> valid_count_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> ttl_invalidations_{0};
  std::atomic<uint64_t> explicit_invalidations_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> insert_races_{0};
};

}  // namespace dynaprox::bem

#endif  // DYNAPROX_BEM_CACHE_DIRECTORY_H_
