#include "bem/cache_directory.h"

#include <algorithm>
#include <cassert>

#include "common/fault_point.h"
#include "common/logging.h"

namespace dynaprox::bem {

namespace {
// Bound on allocate/evict rounds in Insert. Each failed round means another
// thread won the race for the key we freed; with a sane policy the loop
// terminates in one or two rounds, so hitting the cap indicates either a
// policy with no candidates left or pathological contention — both are
// reported as CapacityExceeded rather than spinning forever.
constexpr int kMaxInsertRounds = 64;
}  // namespace

CacheDirectory::CacheDirectory(DpcKey capacity, const Clock* clock,
                               std::unique_ptr<ReplacementPolicy> policy)
    : clock_(clock),
      policy_(std::move(policy)),
      free_list_(capacity),
      slot_owner_(capacity),
      next_generation_(capacity, 0) {
  assert(clock_ != nullptr);
  assert(policy_ != nullptr);
}

bool CacheDirectory::Expired(const Entry& entry) const {
  return entry.ttl_micros > 0 &&
         clock_->NowMicros() - entry.inserted_at >= entry.ttl_micros;
}

void CacheDirectory::InvalidateEntryLocked(const std::string& canonical,
                                           Entry& entry, bool pin_key) {
  assert(entry.is_valid);
  entry.is_valid = false;
  valid_count_.fetch_sub(1, std::memory_order_relaxed);
  // Dropped under the stripe lock: once the lock is released, a re-render
  // may publish this fragment again with fresh dependencies.
  registry_.RemoveFragment(canonical);
  {
    std::lock_guard<common::ContendedMutex> policy_lock(policy_mu_);
    policy_->OnRemove(canonical);
  }
  // The slot goes to the back of the free list; the DPC is *not* told
  // (paper 4.3.3: "No action is taken by the DPC"). A refresh-pinned slot
  // goes to the front instead: the DPC explicitly asked for this fragment
  // to be regenerated, so the immediate re-render should land in it.
  const DpcKey slot = SlotOf(entry.key, capacity());
  Status released = pin_key ? free_list_.ReleaseFront(slot)
                            : free_list_.Release(slot);
  assert(released.ok());
  (void)released;
}

void CacheDirectory::ReclaimSlotOwner(DpcKey slot) {
  std::string owner;
  {
    std::lock_guard<std::mutex> owner_lock(owner_mu_);
    owner.swap(slot_owner_[slot]);
  }
  if (owner.empty()) return;
  Stripe& stripe = StripeFor(owner);
  std::lock_guard<common::ContendedMutex> lock(stripe.mu);
  auto it = stripe.entries.find(owner);
  // Erase the stale entry only if it still is the invalid incarnation that
  // released this slot. (The owner record can be outdated: the fragment
  // may have been re-inserted since in a different slot, overwriting its
  // entry — in that case the entry is valid and must be kept.)
  if (it != stripe.entries.end() && !it->second.is_valid &&
      SlotOf(it->second.key, capacity()) == slot) {
    stripe.entries.erase(it);
  }
}

LookupResult CacheDirectory::Lookup(const FragmentId& id) {
  std::string canonical = id.Canonical();
  Stripe& stripe = StripeFor(canonical);
  std::lock_guard<common::ContendedMutex> lock(stripe.mu);
  auto it = stripe.entries.find(canonical);
  if (it == stripe.entries.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return {LookupOutcome::kMissAbsent};
  }
  Entry& entry = it->second;
  if (!entry.is_valid) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return {LookupOutcome::kMissInvalid};
  }
  if (Expired(entry)) {
    ttl_invalidations_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    InvalidateEntryLocked(canonical, entry);
    return {LookupOutcome::kMissExpired};
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<common::ContendedMutex> policy_lock(policy_mu_);
    policy_->OnAccess(canonical);
  }
  return {LookupOutcome::kHit, entry.key};
}

Status CacheDirectory::EvictOne() {
  // Injected failure degrades like any eviction race: the Insert round
  // retries and ultimately reports CapacityExceeded (uncached emit).
  DYNAPROX_RETURN_IF_ERROR(
      chaos::InjectStatus(DYNAPROX_FAULT_POINT("bem.directory.evict")));
  // Replacement manager: evict a victim to free a key (paper 4.3.3).
  Result<std::string> victim = [&]() -> Result<std::string> {
    std::lock_guard<common::ContendedMutex> policy_lock(policy_mu_);
    return policy_->PickVictim();
  }();
  if (!victim.ok()) {
    return Status::CapacityExceeded(
        "directory full and no replacement candidate");
  }
  Status invalidated = InvalidateCanonical(*victim);
  if (invalidated.ok()) {
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  // NotFound means a concurrent caller invalidated the victim first; the
  // key it released is on the free list either way, so the Insert round
  // simply retries Allocate.
  return invalidated;
}

Result<DpcKey> CacheDirectory::Insert(const FragmentId& id,
                                      MicroTime ttl_micros,
                                      const DependencyList& deps,
                                      uint64_t read_since) {
  if (Status injected = chaos::InjectStatus(
          DYNAPROX_FAULT_POINT("bem.directory.insert"));
      !injected.ok()) {
    return injected;  // Caller degrades to an uncached emit.
  }
  std::string canonical = id.Canonical();
  Stripe& stripe = StripeFor(canonical);

  // Phase A — re-inserting a valid fragment (e.g. forced refresh) releases
  // its key first so it flows through the normal allocation path.
  {
    std::lock_guard<common::ContendedMutex> lock(stripe.mu);
    auto it = stripe.entries.find(canonical);
    if (it != stripe.entries.end() && it->second.is_valid) {
      explicit_invalidations_.fetch_add(1, std::memory_order_relaxed);
      InvalidateEntryLocked(canonical, it->second);
    }
  }

  // Phase B — allocate a slot, evicting victims as needed. Runs with no
  // stripe lock held: eviction touches arbitrary stripes. A freed slot can
  // be snatched by a concurrent Insert before our re-Allocate; that just
  // costs another round.
  Result<DpcKey> slot = Status::CapacityExceeded("unallocated");
  for (int round = 0; round < kMaxInsertRounds; ++round) {
    if (round > 0) insert_races_.fetch_add(1, std::memory_order_relaxed);
    slot = free_list_.Allocate();
    if (slot.ok()) break;
    Status evicted = EvictOne();
    if (evicted.IsCapacityExceeded()) return evicted;
  }
  if (!slot.ok()) {
    return Status::CapacityExceeded("insert retry limit exhausted");
  }

  // Phase C — the allocated slot may still be referenced by a stale
  // invalid entry (possibly this very fragment's previous incarnation). We
  // hold the slot exclusively (it is off the free list), so no other
  // thread can be reclaiming it or reading its generation.
  ReclaimSlotOwner(*slot);
  const DpcKey key = next_generation_[*slot]++ * capacity() + *slot;

  // Phase D — publish the entry with its dependencies. Re-check for a
  // concurrent insert of the same fragment that won between phases A and
  // D: its entry must be invalidated (releasing its key and dropping its
  // dependencies) before being overwritten, or the key would leak.
  {
    std::lock_guard<common::ContendedMutex> lock(stripe.mu);
    auto it = stripe.entries.find(canonical);
    if (it != stripe.entries.end() && it->second.is_valid) {
      insert_races_.fetch_add(1, std::memory_order_relaxed);
      explicit_invalidations_.fetch_add(1, std::memory_order_relaxed);
      InvalidateEntryLocked(canonical, it->second);
    }
    stripe.entries[canonical] =
        Entry{key, /*is_valid=*/true, ttl_micros, clock_->NowMicros()};
    for (const auto& [table, row_key] : deps) {
      registry_.Add(canonical, table, row_key);
    }
    {
      std::lock_guard<std::mutex> owner_lock(owner_mu_);
      slot_owner_[*slot] = canonical;
    }
    valid_count_.fetch_add(1, std::memory_order_relaxed);
    inserts_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<common::ContendedMutex> policy_lock(policy_mu_);
      policy_->OnInsert(canonical);
    }
  }
  // Checked after the publish: an update recorded before this check is
  // seen here, and one recorded after it invalidates the entry itself.
  if (read_since != kNoReadSince &&
      registry_.UpdatedSince(read_since, deps)) {
    std::lock_guard<common::ContendedMutex> lock(stripe.mu);
    auto it = stripe.entries.find(canonical);
    if (it != stripe.entries.end() && it->second.is_valid &&
        it->second.key == key) {
      explicit_invalidations_.fetch_add(1, std::memory_order_relaxed);
      InvalidateEntryLocked(canonical, it->second);
    }
  }
  DYNAPROX_LOG(kDebug, "bem") << "insert " << canonical << " -> key " << key;
  return key;
}

Status CacheDirectory::Invalidate(const FragmentId& id) {
  return InvalidateCanonical(id.Canonical());
}

Status CacheDirectory::InvalidateCanonical(const std::string& canonical) {
  Stripe& stripe = StripeFor(canonical);
  std::lock_guard<common::ContendedMutex> lock(stripe.mu);
  auto it = stripe.entries.find(canonical);
  if (it == stripe.entries.end() || !it->second.is_valid) {
    return Status::NotFound("no valid entry: " + canonical);
  }
  explicit_invalidations_.fetch_add(1, std::memory_order_relaxed);
  InvalidateEntryLocked(canonical, it->second);
  return Status::Ok();
}

Result<std::string> CacheDirectory::InvalidateKey(DpcKey key, bool pin_key) {
  std::string owner;
  {
    std::lock_guard<std::mutex> owner_lock(owner_mu_);
    owner = slot_owner_[SlotOf(key, capacity())];
  }
  if (owner.empty()) {
    return Status::NotFound("key has no owner: " + std::to_string(key));
  }
  Stripe& stripe = StripeFor(owner);
  std::lock_guard<common::ContendedMutex> lock(stripe.mu);
  // Re-validate under the stripe lock: the owner record was read without
  // it, and the slot may have been reassigned in between. A plain
  // invalidation matches only the exact key. A refresh matches the slot's
  // valid occupant under any generation: another refresh may have
  // re-keyed the fragment the DPC asks about into the slot's next
  // generation, and only the slot's next SET can fill the DPC's hole.
  auto it = stripe.entries.find(owner);
  const bool matches =
      it != stripe.entries.end() &&
      (pin_key ? SlotOf(it->second.key, capacity()) == SlotOf(key, capacity())
               : it->second.key == key);
  if (!matches || !it->second.is_valid) {
    return Status::NotFound("key has no valid owner: " + std::to_string(key));
  }
  explicit_invalidations_.fetch_add(1, std::memory_order_relaxed);
  InvalidateEntryLocked(owner, it->second, pin_key);
  return owner;
}

size_t CacheDirectory::InvalidateAll() {
  size_t count = 0;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<common::ContendedMutex> lock(stripe.mu);
    for (auto& [canonical, entry] : stripe.entries) {
      if (!entry.is_valid) continue;
      explicit_invalidations_.fetch_add(1, std::memory_order_relaxed);
      InvalidateEntryLocked(canonical, entry);
      ++count;
    }
  }
  return count;
}

size_t CacheDirectory::SweepExpired() {
  size_t count = 0;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<common::ContendedMutex> lock(stripe.mu);
    for (auto& [canonical, entry] : stripe.entries) {
      if (!entry.is_valid || !Expired(entry)) continue;
      ttl_invalidations_.fetch_add(1, std::memory_order_relaxed);
      InvalidateEntryLocked(canonical, entry);
      ++count;
    }
  }
  return count;
}

size_t CacheDirectory::entry_count() const {
  size_t count = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<common::ContendedMutex> lock(stripe.mu);
    count += stripe.entries.size();
  }
  return count;
}

DirectoryStats CacheDirectory::stats() const {
  DirectoryStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.inserts = inserts_.load(std::memory_order_relaxed);
  stats.ttl_invalidations =
      ttl_invalidations_.load(std::memory_order_relaxed);
  stats.explicit_invalidations =
      explicit_invalidations_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  return stats;
}

CacheDirectory::ConcurrencyStats CacheDirectory::concurrency_stats() const {
  ConcurrencyStats stats;
  for (const Stripe& stripe : stripes_) {
    stats.stripe_contentions += stripe.mu.contended_acquisitions();
  }
  stats.policy_contentions = policy_mu_.contended_acquisitions();
  stats.free_list_contentions = free_list_.contentions();
  stats.registry_contentions = registry_.contentions();
  stats.insert_races = insert_races_.load(std::memory_order_relaxed);
  return stats;
}

std::vector<CacheDirectory::EntryView> CacheDirectory::SnapshotEntries(
    size_t limit) const {
  std::vector<EntryView> out;
  MicroTime now = clock_->NowMicros();
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<common::ContendedMutex> lock(stripe.mu);
    for (const auto& [canonical, entry] : stripe.entries) {
      out.push_back({canonical, entry.key, entry.is_valid,
                     now - entry.inserted_at, entry.ttl_micros});
    }
  }
  // Stripes iterate in hash order; sort so snapshots stay deterministic
  // for tests and status pages.
  std::sort(out.begin(), out.end(),
            [](const EntryView& a, const EntryView& b) {
              return a.fragment_id < b.fragment_id;
            });
  if (limit != 0 && out.size() > limit) out.resize(limit);
  return out;
}

Result<DpcKey> CacheDirectory::KeyOf(const FragmentId& id) const {
  std::string canonical = id.Canonical();
  const Stripe& stripe = StripeFor(canonical);
  std::lock_guard<common::ContendedMutex> lock(stripe.mu);
  auto it = stripe.entries.find(canonical);
  if (it == stripe.entries.end() || !it->second.is_valid) {
    return Status::NotFound("no valid entry: " + canonical);
  }
  return it->second.key;
}

}  // namespace dynaprox::bem
