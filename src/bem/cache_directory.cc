#include "bem/cache_directory.h"

#include <algorithm>
#include <cassert>

#include "common/fault_point.h"
#include "common/logging.h"

namespace dynaprox::bem {

namespace {
// Bound on allocate/evict rounds in Insert. A failed round means a
// concurrent invalidation beat the eviction to its victim; with a sane
// policy the loop terminates in one or two rounds, so hitting the cap
// indicates either a policy with no candidates left or pathological
// contention — both are reported as CapacityExceeded rather than spinning
// forever.
constexpr int kMaxInsertRounds = 64;
}  // namespace

CacheDirectory::CacheDirectory(DpcKey capacity, const Clock* clock,
                               std::unique_ptr<ReplacementPolicy> policy)
    : clock_(clock),
      policy_(std::move(policy)),
      free_list_(capacity),
      slots_(std::make_unique<SlotRecord[]>(capacity)) {
  assert(clock_ != nullptr);
  assert(policy_ != nullptr);
}

bool CacheDirectory::Expired(const Entry& entry) const {
  return entry.ttl_micros > 0 &&
         clock_->NowMicros() - entry.inserted_at >= entry.ttl_micros;
}

void CacheDirectory::InvalidateEntryLocked(Stripe& stripe, Entry& entry,
                                           SlotRelease release) {
  assert(entry.is_valid);
  entry.is_valid = false;
  --stripe.counters.valid;
  const DpcKey slot = SlotOf(entry.key, capacity());
  // Dropped under the stripe lock: once the lock is released, a re-render
  // may publish this fragment again with fresh dependencies.
  registry_.Remove(slot);
  // An eviction's victim was forgotten by the policy when it was picked.
  if (release == SlotRelease::kKeep) return;
  {
    std::lock_guard<common::ContendedMutex> policy_lock(policy_mu_);
    policy_->OnRemove(slot);
  }
  // The slot goes to the back of the free list; the DPC is *not* told
  // (paper 4.3.3: "No action is taken by the DPC"). A refresh-pinned slot
  // goes to the front instead: the DPC explicitly asked for this fragment
  // to be regenerated, so the immediate re-render should land in it.
  Status released = release == SlotRelease::kFront
                        ? free_list_.ReleaseFront(slot)
                        : free_list_.Release(slot);
  assert(released.ok());
  (void)released;
}

CacheDirectory::SlotEntry CacheDirectory::LockSlotEntry(
    DpcKey slot, std::unique_lock<common::ContendedMutex>& lock) {
  SlotRecord& record = slots_[slot];
  for (;;) {
    Stripe* stripe = record.stripe.load(std::memory_order_acquire);
    if (stripe == nullptr) return {};
    std::unique_lock<common::ContendedMutex> held(stripe->mu);
    // The record may have moved while this thread waited.
    if (record.stripe.load(std::memory_order_relaxed) == stripe) {
      lock = std::move(held);
      return {stripe, record.entry};
    }
  }
}

void CacheDirectory::ClearSlotLocked(DpcKey slot) {
  slots_[slot].entry = nullptr;
  slots_[slot].stripe.store(nullptr, std::memory_order_release);
}

CacheDirectory::EntryNode CacheDirectory::TakeSlotEntryLocked(
    DpcKey slot, SlotEntry owner) {
  ClearSlotLocked(slot);
  EntryMap& entries = owner.stripe->entries;
  return entries.extract(entries.find(HashedId(owner.entry->first)));
}

CacheDirectory::EntryNode CacheDirectory::ReclaimSlotOwner(DpcKey slot) {
  std::unique_lock<common::ContendedMutex> lock;
  SlotEntry owner = LockSlotEntry(slot, lock);
  // The record names the invalid incarnation that released this slot: an
  // entry re-inserted in place since has emptied the record of the slot
  // it left (Insert, Phase D).
  if (owner.entry == nullptr || owner.entry->second.is_valid) return {};
  return TakeSlotEntryLocked(slot, owner);
}

LookupResult CacheDirectory::Lookup(const FragmentId& id) {
  const std::string canonical = id.Canonical();
  const HashedId hashed = Hashed(canonical);
  Stripe& stripe = StripeOf(hashed);
  std::lock_guard<common::ContendedMutex> lock(stripe.mu);
  auto it = stripe.entries.find(hashed);
  if (it == stripe.entries.end()) {
    ++stripe.counters.misses;
    return {LookupOutcome::kMissAbsent};
  }
  Entry& entry = it->second;
  if (!entry.is_valid) {
    ++stripe.counters.misses;
    return {LookupOutcome::kMissInvalid};
  }
  if (Expired(entry)) {
    ++stripe.counters.ttl_invalidations;
    ++stripe.counters.misses;
    InvalidateEntryLocked(stripe, entry, SlotRelease::kBack);
    return {LookupOutcome::kMissExpired};
  }
  ++stripe.counters.hits;
  {
    std::lock_guard<common::ContendedMutex> policy_lock(policy_mu_);
    policy_->OnAccess(SlotOf(entry.key, capacity()));
  }
  return {LookupOutcome::kHit, entry.key};
}

Result<DpcKey> CacheDirectory::EvictOne(EntryNode& node) {
  // Injected failure degrades like any eviction race: the Insert round
  // retries and ultimately reports CapacityExceeded (uncached emit).
  DYNAPROX_RETURN_IF_ERROR(
      chaos::InjectStatus(DYNAPROX_FAULT_POINT("bem.directory.evict")));
  // Replacement manager: evict a victim to free a key (paper 4.3.3). The
  // policy forgets the victim at once, so no concurrent eviction picks it.
  Result<DpcKey> victim = [&]() -> Result<DpcKey> {
    std::lock_guard<common::ContendedMutex> policy_lock(policy_mu_);
    Result<DpcKey> picked = policy_->PickVictim();
    if (picked.ok()) policy_->OnRemove(*picked);
    return picked;
  }();
  if (!victim.ok()) {
    return Status::CapacityExceeded(
        "directory full and no replacement candidate");
  }
  std::unique_lock<common::ContendedMutex> lock;
  SlotEntry owner = LockSlotEntry(*victim, lock);
  if (owner.entry == nullptr || !owner.entry->second.is_valid) {
    // A concurrent caller invalidated the victim first and released its
    // slot to the free list, so the Insert round simply retries Allocate.
    return Status::NotFound("victim no longer valid");
  }
  StripeCounters& counters = owner.stripe->counters;
  ++counters.explicit_invalidations;
  ++counters.evictions;
  InvalidateEntryLocked(*owner.stripe, owner.entry->second,
                        SlotRelease::kKeep);
  // The slot is the caller's now, and its entry goes with it.
  node = TakeSlotEntryLocked(*victim, owner);
  return victim;
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
  const std::string canonical = id.Canonical();
  const HashedId hashed = Hashed(canonical);
  Stripe& stripe = StripeOf(hashed);

  // Phase A — re-inserting a valid fragment (e.g. forced refresh) releases
  // its key first so it flows through the normal allocation path.
  {
    std::lock_guard<common::ContendedMutex> lock(stripe.mu);
    auto it = stripe.entries.find(hashed);
    if (it != stripe.entries.end() && it->second.is_valid) {
      ++stripe.counters.explicit_invalidations;
      InvalidateEntryLocked(stripe, it->second, SlotRelease::kBack);
    }
  }

  // Phase B — take a slot: the free list's oldest, or else the one an
  // eviction frees, which stays ours. Runs with no stripe lock held:
  // eviction touches arbitrary stripes. A round is retried only when a
  // concurrent invalidation beat the eviction to its victim. Either way
  // the stale entry still referencing the slot (possibly this very
  // fragment's previous incarnation) leaves the map, and its node is
  // reused below. We hold the slot exclusively, so no other thread can be
  // reclaiming it or reading its generation.
  EntryNode node;
  std::optional<DpcKey> slot;
  for (int round = 0; round < kMaxInsertRounds && !slot; ++round) {
    if (round > 0) insert_races_.fetch_add(1, std::memory_order_relaxed);
    if ((slot = free_list_.Allocate())) {
      node = ReclaimSlotOwner(*slot);
      break;
    }
    Result<DpcKey> evicted = EvictOne(node);
    if (evicted.ok()) slot = *evicted;
    if (evicted.status().IsCapacityExceeded()) return evicted.status();
  }
  if (!slot) return Status::CapacityExceeded("insert retry limit exhausted");

  // Phase C — the key: the slot's next generation.
  SlotRecord& record = slots_[*slot];
  const DpcKey key = record.next_generation++ * capacity() + *slot;

  // Phase D — publish the entry with its dependencies. Re-check for a
  // concurrent insert of the same fragment that won between phases A and
  // D: its entry must be invalidated (releasing its key and dropping its
  // dependencies) before being overwritten, or the key would leak.
  {
    std::lock_guard<common::ContendedMutex> lock(stripe.mu);
    auto it = stripe.entries.find(hashed);
    if (it != stripe.entries.end() && it->second.is_valid) {
      insert_races_.fetch_add(1, std::memory_order_relaxed);
      ++stripe.counters.explicit_invalidations;
      InvalidateEntryLocked(stripe, it->second, SlotRelease::kBack);
    }
    const Entry entry{key, /*is_valid=*/true, ttl_micros, clock_->NowMicros()};
    if (it != stripe.entries.end()) {
      // Reused in place: the slot the old incarnation referenced no
      // longer leads to it.
      SlotRecord& left = slots_[SlotOf(it->second.key, capacity())];
      if (left.stripe.load(std::memory_order_relaxed) == &stripe &&
          left.entry == &*it) {
        ClearSlotLocked(SlotOf(it->second.key, capacity()));
      }
      it->second = entry;
      record.entry = &*it;
    } else if (!node.empty()) {
      node.key().canonical.assign(canonical);
      node.key().hash = hashed.hash;
      node.mapped() = entry;
      record.entry = &*stripe.entries.insert(std::move(node)).position;
    } else {
      record.entry =
          &*stripe.entries.emplace(EntryKey{canonical, hashed.hash}, entry)
                .first;
    }
    record.stripe.store(&stripe, std::memory_order_release);
    registry_.Add(*slot, canonical, deps);
    ++stripe.counters.valid;
    ++stripe.counters.inserts;
    {
      std::lock_guard<common::ContendedMutex> policy_lock(policy_mu_);
      policy_->OnInsert(*slot);
    }
  }
  // Checked after the publish: an update recorded before this check is
  // seen here, and one recorded after it invalidates the entry itself.
  if (read_since != kNoReadSince &&
      registry_.UpdatedSince(read_since, deps)) {
    std::lock_guard<common::ContendedMutex> lock(stripe.mu);
    auto it = stripe.entries.find(hashed);
    if (it != stripe.entries.end() && it->second.is_valid &&
        it->second.key == key) {
      ++stripe.counters.explicit_invalidations;
      InvalidateEntryLocked(stripe, it->second, SlotRelease::kBack);
    }
  }
  DYNAPROX_LOG(kDebug, "bem") << "insert " << canonical << " -> key " << key;
  return key;
}

Status CacheDirectory::Invalidate(const FragmentId& id) {
  return InvalidateCanonical(id.Canonical());
}

Status CacheDirectory::InvalidateCanonical(const std::string& canonical) {
  const HashedId hashed = Hashed(canonical);
  Stripe& stripe = StripeOf(hashed);
  std::lock_guard<common::ContendedMutex> lock(stripe.mu);
  auto it = stripe.entries.find(hashed);
  if (it == stripe.entries.end() || !it->second.is_valid) {
    return Status::NotFound("no valid entry: " + canonical);
  }
  ++stripe.counters.explicit_invalidations;
  InvalidateEntryLocked(stripe, it->second, SlotRelease::kBack);
  return Status::Ok();
}

Result<std::string> CacheDirectory::InvalidateKey(DpcKey key, bool pin_key) {
  std::unique_lock<common::ContendedMutex> lock;
  SlotEntry owner = LockSlotEntry(SlotOf(key, capacity()), lock);
  if (owner.entry == nullptr) {
    return Status::NotFound("key has no owner: " + std::to_string(key));
  }
  // A plain invalidation matches only the exact key. A refresh matches the
  // slot's valid occupant under any generation: another refresh may have
  // re-keyed the fragment the DPC asks about into the slot's next
  // generation, and only the slot's next SET can fill the DPC's hole.
  Entry& entry = owner.entry->second;
  if (!entry.is_valid || (!pin_key && entry.key != key)) {
    return Status::NotFound("key has no valid owner: " + std::to_string(key));
  }
  ++owner.stripe->counters.explicit_invalidations;
  InvalidateEntryLocked(*owner.stripe, entry,
                        pin_key ? SlotRelease::kFront : SlotRelease::kBack);
  return owner.entry->first.canonical;
}

size_t CacheDirectory::InvalidateAll() {
  size_t count = 0;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<common::ContendedMutex> lock(stripe.mu);
    for (auto& [id, entry] : stripe.entries) {
      if (!entry.is_valid) continue;
      ++stripe.counters.explicit_invalidations;
      InvalidateEntryLocked(stripe, entry, SlotRelease::kBack);
      ++count;
    }
  }
  return count;
}

size_t CacheDirectory::SweepExpired() {
  size_t count = 0;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<common::ContendedMutex> lock(stripe.mu);
    for (auto& [id, entry] : stripe.entries) {
      if (!entry.is_valid || !Expired(entry)) continue;
      ++stripe.counters.ttl_invalidations;
      InvalidateEntryLocked(stripe, entry, SlotRelease::kBack);
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

size_t CacheDirectory::valid_count() const {
  size_t count = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<common::ContendedMutex> lock(stripe.mu);
    count += stripe.counters.valid;
  }
  return count;
}

DirectoryStats CacheDirectory::stats() const {
  DirectoryStats stats;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<common::ContendedMutex> lock(stripe.mu);
    stats.hits += stripe.counters.hits;
    stats.misses += stripe.counters.misses;
    stats.inserts += stripe.counters.inserts;
    stats.ttl_invalidations += stripe.counters.ttl_invalidations;
    stats.explicit_invalidations += stripe.counters.explicit_invalidations;
    stats.evictions += stripe.counters.evictions;
  }
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
    for (const auto& [id, entry] : stripe.entries) {
      out.push_back({id.canonical, entry.key, entry.is_valid,
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
  const std::string canonical = id.Canonical();
  const HashedId hashed = Hashed(canonical);
  const Stripe& stripe = StripeOf(hashed);
  std::lock_guard<common::ContendedMutex> lock(stripe.mu);
  auto it = stripe.entries.find(hashed);
  if (it == stripe.entries.end() || !it->second.is_valid) {
    return Status::NotFound("no valid entry: " + canonical);
  }
  return it->second.key;
}

}  // namespace dynaprox::bem
