#include "bem/cache_directory.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/rng.h"

namespace dynaprox::bem {
namespace {

std::unique_ptr<CacheDirectory> MakeDirectory(DpcKey capacity,
                                              const Clock* clock) {
  return std::make_unique<CacheDirectory>(
      capacity, clock, *MakeReplacementPolicy("lru"));
}

FragmentId Frag(const std::string& name) { return FragmentId(name); }

TEST(CacheDirectoryTest, MissThenInsertThenHit) {
  SimClock clock;
  auto dir = MakeDirectory(8, &clock);
  LookupResult miss = dir->Lookup(Frag("navbar"));
  EXPECT_EQ(miss.outcome, LookupOutcome::kMissAbsent);

  Result<DpcKey> key = dir->Insert(Frag("navbar"), 0);
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(*key, 0u);

  LookupResult hit = dir->Lookup(Frag("navbar"));
  ASSERT_TRUE(hit.hit());
  EXPECT_EQ(hit.key, *key);
  EXPECT_EQ(dir->stats().hits, 1u);
  EXPECT_EQ(dir->stats().misses, 1u);
}

TEST(CacheDirectoryTest, SequentialKeysFromFreeList) {
  SimClock clock;
  auto dir = MakeDirectory(8, &clock);
  EXPECT_EQ(*dir->Insert(Frag("a"), 0), 0u);
  EXPECT_EQ(*dir->Insert(Frag("b"), 0), 1u);
  EXPECT_EQ(*dir->Insert(Frag("c"), 0), 2u);
  EXPECT_EQ(dir->valid_count(), 3u);
  EXPECT_EQ(dir->free_key_count(), 5u);
}

TEST(CacheDirectoryTest, InvalidateReleasesKeyToTail) {
  SimClock clock;
  auto dir = MakeDirectory(3, &clock);
  ASSERT_TRUE(dir->Insert(Frag("a"), 0).ok());  // Slot 0, key 0.
  ASSERT_TRUE(dir->Invalidate(Frag("a")).ok());
  EXPECT_EQ(dir->Lookup(Frag("a")).outcome, LookupOutcome::kMissInvalid);
  // Slots 1 and 2 precede the released 0.
  EXPECT_EQ(*dir->Insert(Frag("b"), 0), 1u);
  EXPECT_EQ(*dir->Insert(Frag("c"), 0), 2u);
  // Reuses the released slot, one generation on: key 1 * 3 + 0.
  EXPECT_EQ(*dir->Insert(Frag("d"), 0), 3u);
}

TEST(CacheDirectoryTest, PinnedInvalidateKeyReusesTheSameSlot) {
  // The refresh protocol's contract: a pin_key invalidation must hand the
  // same slot back to the next Insert, so the DPC's committed `GET key`
  // can be filled by the refreshed SET into that slot.
  SimClock clock;
  auto dir = MakeDirectory(8, &clock);
  ASSERT_TRUE(dir->Insert(Frag("a"), 0).ok());      // Slot 0.
  DpcKey hot = *dir->Insert(Frag("hot"), 0);        // Slot 1, key 1.
  ASSERT_TRUE(dir->Insert(Frag("c"), 0).ok());      // Slot 2.
  Result<std::string> owner = dir->InvalidateKey(hot, /*pin_key=*/true);
  ASSERT_TRUE(owner.ok());
  EXPECT_EQ(*owner, Frag("hot").Canonical());
  // Re-render re-inserts the same fragment: same slot, ahead of 3..7,
  // under the slot's next generation.
  DpcKey refreshed = *dir->Insert(Frag("hot"), 0);
  EXPECT_EQ(SlotOf(refreshed, 8), SlotOf(hot, 8));
  EXPECT_EQ(refreshed, hot + 8);
}

TEST(CacheDirectoryTest, InvalidateUnknownFails) {
  SimClock clock;
  auto dir = MakeDirectory(2, &clock);
  EXPECT_TRUE(dir->Invalidate(Frag("ghost")).IsNotFound());
  ASSERT_TRUE(dir->Insert(Frag("a"), 0).ok());
  ASSERT_TRUE(dir->Invalidate(Frag("a")).ok());
  EXPECT_TRUE(dir->Invalidate(Frag("a")).IsNotFound());  // Already invalid.
}

TEST(CacheDirectoryTest, TtlExpiryIsLazy) {
  SimClock clock;
  auto dir = MakeDirectory(4, &clock);
  ASSERT_TRUE(dir->Insert(Frag("quote"), 10 * kMicrosPerSecond).ok());
  clock.AdvanceSeconds(5);
  EXPECT_TRUE(dir->Lookup(Frag("quote")).hit());
  clock.AdvanceSeconds(6);
  EXPECT_EQ(dir->Lookup(Frag("quote")).outcome,
            LookupOutcome::kMissExpired);
  EXPECT_EQ(dir->stats().ttl_invalidations, 1u);
  // Further lookups see the invalid entry.
  EXPECT_EQ(dir->Lookup(Frag("quote")).outcome,
            LookupOutcome::kMissInvalid);
}

TEST(CacheDirectoryTest, ZeroTtlNeverExpires) {
  SimClock clock;
  auto dir = MakeDirectory(4, &clock);
  ASSERT_TRUE(dir->Insert(Frag("eternal"), 0).ok());
  clock.AdvanceSeconds(1e6);
  EXPECT_TRUE(dir->Lookup(Frag("eternal")).hit());
}

TEST(CacheDirectoryTest, SweepExpiredInvalidatesAllExpired) {
  SimClock clock;
  auto dir = MakeDirectory(8, &clock);
  ASSERT_TRUE(dir->Insert(Frag("fast"), 1 * kMicrosPerSecond).ok());
  ASSERT_TRUE(dir->Insert(Frag("slow"), 100 * kMicrosPerSecond).ok());
  ASSERT_TRUE(dir->Insert(Frag("none"), 0).ok());
  clock.AdvanceSeconds(2);
  EXPECT_EQ(dir->SweepExpired(), 1u);
  EXPECT_EQ(dir->valid_count(), 2u);
  clock.AdvanceSeconds(200);
  EXPECT_EQ(dir->SweepExpired(), 1u);
  EXPECT_TRUE(dir->Lookup(Frag("none")).hit());
}

TEST(CacheDirectoryTest, ReinsertValidFragmentGetsFreshKey) {
  SimClock clock;
  auto dir = MakeDirectory(4, &clock);
  DpcKey first = *dir->Insert(Frag("a"), 0);
  DpcKey second = *dir->Insert(Frag("a"), 0);
  EXPECT_NE(first, second);
  EXPECT_EQ(dir->valid_count(), 1u);
  LookupResult hit = dir->Lookup(Frag("a"));
  ASSERT_TRUE(hit.hit());
  EXPECT_EQ(hit.key, second);
}

TEST(CacheDirectoryTest, KeyReuseReclaimsStaleEntry) {
  SimClock clock;
  auto dir = MakeDirectory(1, &clock);
  ASSERT_TRUE(dir->Insert(Frag("old"), 0).ok());      // key 0.
  ASSERT_TRUE(dir->Invalidate(Frag("old")).ok());     // key 0 released.
  ASSERT_TRUE(dir->Insert(Frag("new"), 0).ok());      // Reuses key 0.
  // The stale "old" entry must be gone: directory size bounded by capacity.
  EXPECT_EQ(dir->entry_count(), 1u);
  EXPECT_EQ(dir->Lookup(Frag("old")).outcome, LookupOutcome::kMissAbsent);
  EXPECT_TRUE(dir->Lookup(Frag("new")).hit());
}

TEST(CacheDirectoryTest, EvictionWhenKeySpaceExhausted) {
  SimClock clock;
  auto dir = MakeDirectory(2, &clock);
  ASSERT_TRUE(dir->Insert(Frag("a"), 0).ok());
  ASSERT_TRUE(dir->Insert(Frag("b"), 0).ok());
  // "a" is LRU; inserting "c" evicts it.
  ASSERT_TRUE(dir->Insert(Frag("c"), 0).ok());
  EXPECT_EQ(dir->stats().evictions, 1u);
  EXPECT_EQ(dir->Lookup(Frag("a")).outcome, LookupOutcome::kMissAbsent);
  EXPECT_TRUE(dir->Lookup(Frag("b")).hit());
  EXPECT_TRUE(dir->Lookup(Frag("c")).hit());
}

TEST(CacheDirectoryTest, AccessOrderShapesEviction) {
  SimClock clock;
  auto dir = MakeDirectory(2, &clock);
  ASSERT_TRUE(dir->Insert(Frag("a"), 0).ok());
  ASSERT_TRUE(dir->Insert(Frag("b"), 0).ok());
  EXPECT_TRUE(dir->Lookup(Frag("a")).hit());  // "b" becomes LRU.
  ASSERT_TRUE(dir->Insert(Frag("c"), 0).ok());
  EXPECT_TRUE(dir->Lookup(Frag("a")).hit());
  EXPECT_EQ(dir->Lookup(Frag("b")).outcome, LookupOutcome::kMissAbsent);
}

TEST(CacheDirectoryTest, InvalidateAllReleasesEverything) {
  SimClock clock;
  auto dir = MakeDirectory(4, &clock);
  ASSERT_TRUE(dir->Insert(Frag("a"), 0).ok());
  ASSERT_TRUE(dir->Insert(Frag("b"), 0).ok());
  EXPECT_EQ(dir->InvalidateAll(), 2u);
  EXPECT_EQ(dir->valid_count(), 0u);
  EXPECT_EQ(dir->free_key_count(), 4u);
  EXPECT_EQ(dir->InvalidateAll(), 0u);
}

TEST(CacheDirectoryTest, InvalidateKeyFindsOwner) {
  SimClock clock;
  auto dir = MakeDirectory(4, &clock);
  DpcKey key = *dir->Insert(Frag("a"), 0);
  Result<std::string> owner = dir->InvalidateKey(key);
  ASSERT_TRUE(owner.ok());
  EXPECT_EQ(*owner, "a");
  EXPECT_EQ(dir->Lookup(Frag("a")).outcome, LookupOutcome::kMissInvalid);
  EXPECT_TRUE(dir->InvalidateKey(key).status().IsNotFound());
  // Key 99 addresses slot 3, generation 24: never handed out.
  EXPECT_TRUE(dir->InvalidateKey(99).status().IsNotFound());
}

TEST(CacheDirectoryTest, InvalidateKeyMatchesOnlyTheExactKey) {
  // Once a slot is reassigned, its previous key names nothing: a plain
  // invalidation for it must not invalidate the slot's new owner.
  SimClock clock;
  auto dir = MakeDirectory(1, &clock);
  DpcKey old_key = *dir->Insert(Frag("old"), 0);
  ASSERT_TRUE(dir->Invalidate(Frag("old")).ok());
  DpcKey new_key = *dir->Insert(Frag("new"), 0);
  EXPECT_NE(new_key, old_key);
  EXPECT_EQ(SlotOf(new_key, 1), SlotOf(old_key, 1));
  EXPECT_TRUE(dir->InvalidateKey(old_key).status().IsNotFound());
  EXPECT_TRUE(dir->Lookup(Frag("new")).hit());
  EXPECT_EQ(*dir->InvalidateKey(new_key), "new");
}

TEST(CacheDirectoryTest, PinnedInvalidateKeyTakesTheSlotsCurrentOccupant) {
  // Two DPC responses missed key 1; the first refresh already re-keyed
  // the fragment to 1 + 4. The second refresh, still for key 1, must take
  // the slot's occupant again so its re-render SETs into that slot.
  SimClock clock;
  auto dir = MakeDirectory(4, &clock);
  ASSERT_TRUE(dir->Insert(Frag("a"), 0).ok());
  const DpcKey missed = *dir->Insert(Frag("shared"), 0);
  EXPECT_EQ(*dir->InvalidateKey(missed, /*pin_key=*/true), "shared");
  const DpcKey rekeyed = *dir->Insert(Frag("shared"), 0);
  EXPECT_EQ(rekeyed, missed + 4);
  EXPECT_EQ(*dir->InvalidateKey(missed, /*pin_key=*/true), "shared");
  EXPECT_EQ(*dir->Insert(Frag("shared"), 0), missed + 8);
  // A slot with no valid occupant has nothing to refresh.
  ASSERT_TRUE(dir->Invalidate(Frag("shared")).ok());
  EXPECT_TRUE(
      dir->InvalidateKey(missed, /*pin_key=*/true).status().IsNotFound());
}

TEST(CacheDirectoryTest, ReadOlderThanTheUpdateLogIsTreatedAsStale) {
  SimClock clock;
  auto dir = MakeDirectory(4, &clock);
  const uint64_t read_since = dir->update_sequence();
  // More unrelated updates than the log keeps: the insert cannot prove
  // its dependency was not among the dropped ones.
  for (int i = 0; i < 300; ++i) {
    dir->NoteUpdate(storage::UpdateEvent{"other", std::to_string(i),
                                         storage::UpdateKind::kUpdate});
  }
  ASSERT_TRUE(dir->Insert(Frag("a"), 0, {{"t", "row"}}, read_since).ok());
  EXPECT_EQ(dir->Lookup(Frag("a")).outcome, LookupOutcome::kMissInvalid);
  ASSERT_TRUE(dir->Insert(Frag("b"), 0, {{"t", "row"}},
                          dir->update_sequence())
                  .ok());
  EXPECT_TRUE(dir->Lookup(Frag("b")).hit());
}

TEST(CacheDirectoryTest, KeyOfReportsValidEntriesOnly) {
  SimClock clock;
  auto dir = MakeDirectory(4, &clock);
  DpcKey key = *dir->Insert(Frag("a"), 0);
  ASSERT_TRUE(dir->KeyOf(Frag("a")).ok());
  EXPECT_EQ(*dir->KeyOf(Frag("a")), key);
  ASSERT_TRUE(dir->Invalidate(Frag("a")).ok());
  EXPECT_TRUE(dir->KeyOf(Frag("a")).status().IsNotFound());
}

// Inserts `capacity` fresh fragments named `prefix`<i> and checks that
// their slots are exactly [0, capacity): each slot handed out once, none
// evicted, and no key handed out before (`seen` collects every key).
void ExpectEveryKeyOnce(CacheDirectory& dir, const std::string& prefix,
                        std::set<DpcKey>& seen) {
  const uint64_t evictions_before = dir.stats().evictions;
  std::set<DpcKey> slots;
  for (DpcKey i = 0; i < dir.capacity(); ++i) {
    Result<DpcKey> key = dir.Insert(Frag(prefix + std::to_string(i)), 0);
    ASSERT_TRUE(key.ok());
    EXPECT_TRUE(slots.insert(SlotOf(*key, dir.capacity())).second)
        << "slot of key " << *key << " twice";
    EXPECT_TRUE(seen.insert(*key).second) << "key " << *key << " reused";
  }
  EXPECT_EQ(slots.size(), dir.capacity());
  EXPECT_EQ(dir.stats().evictions, evictions_before);
  EXPECT_EQ(dir.free_key_count(), 0u);
  EXPECT_EQ(dir.entry_count(), dir.capacity());
}

TEST(CacheDirectoryTest, ReinsertsAfterInvalidateAllHandOutEveryKeyOnce) {
  SimClock clock;
  auto dir = MakeDirectory(200, &clock);
  std::set<DpcKey> seen;
  ExpectEveryKeyOnce(*dir, "first-", seen);
  EXPECT_EQ(dir->InvalidateAll(), 200u);
  EXPECT_EQ(dir->free_key_count(), 200u);
  ExpectEveryKeyOnce(*dir, "second-", seen);
}

TEST(CacheDirectoryTest, ReinsertsAfterSweepExpiredHandOutEveryKeyOnce) {
  SimClock clock;
  auto dir = MakeDirectory(200, &clock);
  // Half the keys expire in the sweep; the other half stays valid until
  // invalidated one by one, so both release paths feed the free list.
  std::set<DpcKey> seen;
  std::vector<std::string> lasting;
  for (int i = 0; i < 200; ++i) {
    std::string name = "f" + std::to_string(i);
    Result<DpcKey> key =
        dir->Insert(Frag(name), i % 2 == 0 ? kMicrosPerSecond : 0);
    ASSERT_TRUE(key.ok());
    seen.insert(*key);
    if (i % 2 != 0) lasting.push_back(name);
  }
  clock.AdvanceSeconds(2);
  EXPECT_EQ(dir->SweepExpired(), 100u);
  for (const std::string& name : lasting) {
    ASSERT_TRUE(dir->Invalidate(Frag(name)).ok());
  }
  ExpectEveryKeyOnce(*dir, "g", seen);
}

TEST(CacheDirectoryTest, SnapshotEntriesStaySorted) {
  SimClock clock;
  auto dir = MakeDirectory(300, &clock);
  Rng rng(5);
  std::set<std::string> names;
  while (names.size() < 250) {
    names.insert("frag-" + std::to_string(rng.NextBounded(1000000)));
  }
  for (const std::string& name : names) {
    ASSERT_TRUE(dir->Insert(Frag(name), 0).ok());
  }
  std::vector<CacheDirectory::EntryView> all = dir->SnapshotEntries();
  ASSERT_EQ(all.size(), names.size());
  auto name_it = names.begin();
  for (const CacheDirectory::EntryView& view : all) {
    EXPECT_EQ(view.fragment_id, *name_it++);
  }
  std::vector<CacheDirectory::EntryView> first = dir->SnapshotEntries(10);
  ASSERT_EQ(first.size(), 10u);
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].fragment_id, all[i].fragment_id);
  }
}

TEST(CacheDirectoryTest, AffectedFragmentsStaySorted) {
  SimClock clock;
  auto dir = MakeDirectory(300, &clock);
  Rng rng(6);
  std::set<std::string> expected;
  for (int i = 0; i < 250; ++i) {
    std::string name = "frag-" + std::to_string(rng.NextBounded(1000000));
    // Row, table and both: each fragment must be named once.
    DependencyList deps;
    if (i % 3 != 1) deps.push_back({"news", "n1"});
    if (i % 3 != 0) deps.push_back({"news", ""});
    ASSERT_TRUE(dir->Insert(Frag(name), 0, deps).ok());
    expected.insert(name);
  }
  std::vector<std::string> affected = dir->dependencies().Affected(
      {"news", "n1", storage::UpdateKind::kUpdate});
  EXPECT_EQ(affected,
            std::vector<std::string>(expected.begin(), expected.end()));
}

// Invariant sweep: under a random-ish workload the directory never exceeds
// capacity, and valid + free key counts always total capacity.
TEST(CacheDirectoryTest, InvariantsHoldUnderChurn) {
  SimClock clock;
  const DpcKey kCapacity = 8;
  auto dir = MakeDirectory(kCapacity, &clock);
  for (int i = 0; i < 500; ++i) {
    FragmentId id("f" + std::to_string(i % 20));
    LookupResult lookup = dir->Lookup(id);
    if (!lookup.hit()) {
      ASSERT_TRUE(dir->Insert(id, (i % 3 == 0) ? 5 : 0).ok());
    }
    if (i % 7 == 0) {
      (void)dir->Invalidate(FragmentId("f" + std::to_string((i / 7) % 20)));
    }
    clock.AdvanceMicros(1);
    ASSERT_LE(dir->entry_count(), kCapacity);
    ASSERT_EQ(dir->valid_count() + dir->free_key_count(), kCapacity);
  }
  EXPECT_GT(dir->stats().evictions, 0u);
}

}  // namespace
}  // namespace dynaprox::bem
