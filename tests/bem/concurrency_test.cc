// Multi-threaded hammer tests for the striped BEM structures. These are
// the tier-1 TSan targets for the block-execution work: they drive
// CacheDirectory, FreeList, and BackEndMonitor from many threads at once
// and then check the structural invariants that the striped locking must
// preserve — every valid entry owns a distinct key, and keys are never
// lost or duplicated across the free list and the directory.
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bem/cache_directory.h"
#include "bem/free_list.h"
#include "bem/monitor.h"
#include "common/clock.h"
#include "storage/table.h"

namespace dynaprox::bem {
namespace {

FragmentId Frag(const std::string& name) { return FragmentId(name); }

// Slots held by valid entries must be distinct, and together with the
// free list they must account for every slot.
void CheckKeyInvariants(const CacheDirectory& dir, DpcKey capacity) {
  std::vector<CacheDirectory::EntryView> entries =
      dir.SnapshotEntries(capacity);
  std::set<DpcKey> held;
  for (const auto& entry : entries) {
    if (!entry.is_valid) continue;
    EXPECT_TRUE(held.insert(SlotOf(entry.key, capacity)).second)
        << "slot of dpcKey " << entry.key
        << " assigned to two valid fragments";
  }
  EXPECT_EQ(held.size() + dir.free_key_count(), capacity);
}

TEST(BemConcurrencyTest, DirectoryHammerKeepsKeysConsistent) {
  SimClock clock;
  CacheDirectory dir(32, &clock, *MakeReplacementPolicy("lru"));
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dir, t] {
      for (int i = 0; i < kOps; ++i) {
        // 48 canonicals over capacity 32: steady eviction pressure.
        FragmentId id = Frag("f" + std::to_string((t * 7 + i) % 48));
        switch (i % 4) {
          case 0:
          case 1:
            (void)dir.Lookup(id);
            break;
          case 2:
            (void)dir.Insert(id, 0);
            break;
          default:
            (void)dir.Invalidate(id);
            break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  CheckKeyInvariants(dir, 32);
  // Cases 0 and 1 of 4 are lookups; each lands in exactly one bucket.
  DirectoryStats stats = dir.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kOps / 2);
}

TEST(BemConcurrencyTest, ConcurrentInsertsOfSameCanonicalKeepOneValidEntry) {
  SimClock clock;
  CacheDirectory dir(16, &clock, *MakeReplacementPolicy("lru"));
  constexpr int kThreads = 8;
  // All threads hammer the same four canonicals: the insert-race path
  // (phase D re-check) must leave at most one valid entry per canonical
  // and leak no keys.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dir] {
      for (int i = 0; i < 1500; ++i) {
        (void)dir.Insert(Frag("shared" + std::to_string(i % 4)), 0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  CheckKeyInvariants(dir, 16);
  std::set<std::string> valid_canonicals;
  for (const auto& entry : dir.SnapshotEntries(16)) {
    if (!entry.is_valid) continue;
    EXPECT_TRUE(valid_canonicals.insert(entry.fragment_id).second)
        << "two valid entries for " << entry.fragment_id;
  }
  EXPECT_LE(valid_canonicals.size(), 4u);
}

TEST(BemConcurrencyTest, FreeListNeverHandsOutAKeyTwice) {
  constexpr DpcKey kCapacity = 64;
  FreeList list(kCapacity);
  std::vector<std::atomic<int>> owners(kCapacity);
  for (auto& o : owners) o.store(-1);
  std::atomic<bool> violation{false};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 3000; ++i) {
        Result<DpcKey> key = list.Allocate();
        if (!key.ok()) continue;  // Transiently empty under contention.
        int expected = -1;
        if (!owners[*key].compare_exchange_strong(expected, t)) {
          violation.store(true);  // Someone else already holds this key.
        }
        owners[*key].store(-1);
        Status released =
            (i % 2 == 0) ? list.Release(*key) : list.ReleaseFront(*key);
        EXPECT_TRUE(released.ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(list.free_count(), kCapacity);
}

TEST(BemConcurrencyTest, MonitorHammerWithDataSourceInvalidations) {
  SimClock clock;
  BemOptions options;
  options.capacity = 24;
  options.clock = &clock;
  auto monitor = *BackEndMonitor::Create(options);
  storage::ContentRepository repository;
  monitor->AttachRepository(&repository);
  storage::Table* table = repository.GetOrCreateTable("t");

  std::atomic<bool> stop{false};
  // Mutator thread: repository updates ride the update bus into
  // OnDataSourceUpdate, invalidating dependent fragments concurrently
  // with the lookup/insert threads.
  std::thread mutator([&] {
    int i = 0;
    while (!stop.load()) {
      storage::Row row;
      row["v"] = std::to_string(i);
      table->Upsert("row" + std::to_string(i % 8), std::move(row));
      ++i;
    }
  });

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        FragmentId id = Frag("m" + std::to_string((t + i) % 32));
        LookupResult lookup = monitor->LookupFragment(id);
        if (!lookup.hit()) {
          (void)monitor->InsertFragment(
              id, 0, {{"t", "row" + std::to_string(i % 8)}});
        }
        if (i % 97 == 0) {
          monitor->SweepExpired();
        }
        if (i % 501 == 0) {
          monitor->InvalidateAll();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true);
  mutator.join();
  monitor->DetachRepository();
  CheckKeyInvariants(monitor->directory(), 24);
  // Every fragment declares a dependency, so the registry holds exactly
  // the valid entries.
  EXPECT_EQ(monitor->dependencies().fragment_count(),
            monitor->directory().valid_count());
}

// A data-source update invalidates X and must drop X's dependencies in the
// same critical section. Dropping them after the stripe lock is released
// lets a concurrent re-render publish X with fresh dependencies first,
// and the late drop then erases them: X stays valid, but no later update
// of its row can reach it, so the DPC serves it stale until eviction.
TEST(BemConcurrencyTest, DataSourceUpdateNeverStripsAFreshIncarnation) {
  constexpr int kRounds = 20;
  constexpr int kUpdates = 500;
  constexpr int kRenderers = 3;
  const FragmentId x = Frag("x");
  const storage::UpdateEvent update{"t", "row",
                                    storage::UpdateKind::kUpdate};
  int stripped = 0;
  for (int round = 0; round < kRounds; ++round) {
    SimClock clock;
    BemOptions options;
    options.capacity = 8;
    options.clock = &clock;
    auto monitor = *BackEndMonitor::Create(options);
    std::atomic<bool> stop{false};
    std::vector<std::thread> renderers;
    for (int t = 0; t < kRenderers; ++t) {
      renderers.emplace_back([&] {
        while (!stop.load()) {
          if (!monitor->LookupFragment(x).hit()) {
            (void)monitor->InsertFragment(x, 0, {{"t", "row"}});
          }
        }
      });
    }
    for (int i = 0; i < kUpdates; ++i) monitor->OnDataSourceUpdate(update);
    stop.store(true);
    for (std::thread& t : renderers) t.join();

    if (!monitor->directory().KeyOf(x).ok()) continue;  // X left invalid.
    std::vector<std::string> affected =
        monitor->dependencies().Affected(update);
    if (affected != std::vector<std::string>{x.Canonical()}) ++stripped;
  }
  EXPECT_EQ(stripped, 0) << "rounds that left a valid X no update can reach";
}

}  // namespace
}  // namespace dynaprox::bem
