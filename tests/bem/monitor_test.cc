#include "bem/monitor.h"

#include <gtest/gtest.h>

#include "common/clock.h"
#include "storage/table.h"

namespace dynaprox::bem {
namespace {

BemOptions Options(const Clock* clock, DpcKey capacity = 16) {
  BemOptions options;
  options.capacity = capacity;
  options.clock = clock;
  return options;
}

// A valid entry has its dependencies registered and an invalid one has
// none; every fragment in these tests declares at least one dependency.
void ExpectDepsMatchValidEntries(const BackEndMonitor& monitor) {
  EXPECT_EQ(monitor.dependencies().fragment_count(),
            monitor.directory().valid_count());
}

TEST(MonitorTest, CreateRejectsBadConfig) {
  BemOptions zero;
  zero.capacity = 0;
  EXPECT_FALSE(BackEndMonitor::Create(zero).ok());
  BemOptions bad_policy;
  bad_policy.replacement_policy = "magic";
  EXPECT_FALSE(BackEndMonitor::Create(bad_policy).ok());
}

TEST(MonitorTest, LookupInsertHitCycle) {
  SimClock clock;
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  FragmentId id("navbar");
  EXPECT_FALSE(monitor->LookupFragment(id).hit());
  ASSERT_TRUE(monitor->InsertFragment(id).ok());
  EXPECT_TRUE(monitor->LookupFragment(id).hit());
}

TEST(MonitorTest, DefaultTtlApplies) {
  SimClock clock;
  BemOptions options = Options(&clock);
  options.default_ttl_micros = 10 * kMicrosPerSecond;
  auto monitor = *BackEndMonitor::Create(options);
  FragmentId id("f");
  ASSERT_TRUE(monitor->InsertFragment(id).ok());  // ttl = default.
  clock.AdvanceSeconds(11);
  EXPECT_EQ(monitor->LookupFragment(id).outcome,
            LookupOutcome::kMissExpired);
}

TEST(MonitorTest, ExplicitTtlOverridesDefault) {
  SimClock clock;
  BemOptions options = Options(&clock);
  options.default_ttl_micros = 1 * kMicrosPerSecond;
  auto monitor = *BackEndMonitor::Create(options);
  FragmentId id("f");
  ASSERT_TRUE(monitor->InsertFragment(id, 0).ok());  // 0 = no expiry.
  clock.AdvanceSeconds(100);
  EXPECT_TRUE(monitor->LookupFragment(id).hit());
}

TEST(MonitorTest, DataSourceUpdateInvalidatesDependents) {
  SimClock clock;
  storage::ContentRepository repository;
  storage::Table* products = repository.GetOrCreateTable("products");
  products->Upsert("p1", {});

  auto monitor = *BackEndMonitor::Create(Options(&clock));
  monitor->AttachRepository(&repository);

  FragmentId id("reco", {{"user", "bob"}});
  ASSERT_TRUE(monitor->InsertFragment(id, -1, {{"products", "p1"}}).ok());
  ASSERT_TRUE(monitor->LookupFragment(id).hit());

  // Mutating the row the fragment depends on invalidates it.
  products->Upsert("p1", {{"title", storage::Value(std::string("new"))}});
  EXPECT_EQ(monitor->LookupFragment(id).outcome,
            LookupOutcome::kMissInvalid);
  ExpectDepsMatchValidEntries(*monitor);
}

TEST(MonitorTest, UnrelatedUpdateDoesNotInvalidate) {
  SimClock clock;
  storage::ContentRepository repository;
  storage::Table* products = repository.GetOrCreateTable("products");
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  monitor->AttachRepository(&repository);

  FragmentId id("reco");
  ASSERT_TRUE(monitor->InsertFragment(id, -1, {{"products", "p1"}}).ok());
  products->Upsert("p2", {});
  EXPECT_TRUE(monitor->LookupFragment(id).hit());
  ExpectDepsMatchValidEntries(*monitor);
}

TEST(MonitorTest, TableLevelDependency) {
  SimClock clock;
  storage::ContentRepository repository;
  storage::Table* headlines = repository.GetOrCreateTable("headlines");
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  monitor->AttachRepository(&repository);

  FragmentId id("headlines");
  ASSERT_TRUE(monitor->InsertFragment(id, -1, {{"headlines", ""}}).ok());
  headlines->Upsert("h99", {});
  EXPECT_FALSE(monitor->LookupFragment(id).hit());
}

TEST(MonitorTest, DetachStopsInvalidation) {
  SimClock clock;
  storage::ContentRepository repository;
  storage::Table* t = repository.GetOrCreateTable("t");
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  monitor->AttachRepository(&repository);
  FragmentId id("f");
  ASSERT_TRUE(monitor->InsertFragment(id, -1, {{"t", ""}}).ok());
  monitor->DetachRepository();
  t->Upsert("row", {});
  EXPECT_TRUE(monitor->LookupFragment(id).hit());
}

TEST(MonitorTest, ReinsertSupersedesOldDependencies) {
  SimClock clock;
  storage::ContentRepository repository;
  storage::Table* t = repository.GetOrCreateTable("t");
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  monitor->AttachRepository(&repository);

  FragmentId id("f");
  ASSERT_TRUE(monitor->InsertFragment(id, -1, {{"t", "old-row"}}).ok());
  // Regenerate with a different dependency set.
  ASSERT_TRUE(monitor->InsertFragment(id, -1, {{"t", "new-row"}}).ok());

  t->Upsert("old-row", {});  // Stale dependency must not fire.
  EXPECT_TRUE(monitor->LookupFragment(id).hit());
  t->Upsert("new-row", {});
  EXPECT_FALSE(monitor->LookupFragment(id).hit());
}

TEST(MonitorTest, InvalidateKeyRemovesDependencies) {
  SimClock clock;
  storage::ContentRepository repository;
  storage::Table* t = repository.GetOrCreateTable("t");
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  monitor->AttachRepository(&repository);

  FragmentId id("f");
  DpcKey key = *monitor->InsertFragment(id, -1, {{"t", ""}});
  ASSERT_TRUE(monitor->InsertFragment(FragmentId("g"), -1, {{"t", ""}}).ok());
  ASSERT_TRUE(monitor->InvalidateKey(key).ok());
  EXPECT_FALSE(monitor->LookupFragment(id).hit());
  EXPECT_EQ(monitor->dependencies().fragment_count(), 1u);
  ExpectDepsMatchValidEntries(*monitor);
  // Re-running the update is harmless.
  t->Upsert("x", {});
  ExpectDepsMatchValidEntries(*monitor);
}

TEST(MonitorTest, RefreshKeyKeepsTheSlotStable) {
  SimClock clock;
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  FragmentId a("a"), b("b");
  ASSERT_TRUE(monitor->InsertFragment(a, -1, {{"t", "a"}}).ok());
  DpcKey key = *monitor->InsertFragment(b, -1, {{"t", "b"}});
  ASSERT_TRUE(monitor->RefreshKey(key).ok());
  EXPECT_FALSE(monitor->LookupFragment(b).hit());
  ExpectDepsMatchValidEntries(*monitor);
  // The refresh re-render re-caches the fragment in the SAME slot, one
  // generation on — the DPC fills its in-flight `GET key` from the
  // refresh's SET into that slot.
  DpcKey refreshed = *monitor->InsertFragment(b, -1, {{"t", "b"}});
  EXPECT_EQ(SlotOf(refreshed, monitor->capacity()),
            SlotOf(key, monitor->capacity()));
  EXPECT_EQ(refreshed, key + monitor->capacity());
  ExpectDepsMatchValidEntries(*monitor);
}

TEST(MonitorTest, UpdateBetweenReadAndInsertLeavesNoValidEntry) {
  // A block reads the data source, then an update of that row lands
  // before the block's insert: there is no valid entry to invalidate yet,
  // so the insert itself must not leave the stale output cached.
  SimClock clock;
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  FragmentId quote("quote");
  const uint64_t read_since = monitor->update_sequence();
  monitor->OnDataSourceUpdate(
      storage::UpdateEvent{"quotes", "IBM", storage::UpdateKind::kUpdate});
  Result<DpcKey> key =
      monitor->InsertFragment(quote, -1, {{"quotes", "IBM"}}, read_since);
  ASSERT_TRUE(key.ok());  // The page still SETs what it rendered.
  EXPECT_FALSE(monitor->LookupFragment(quote).hit());
  ExpectDepsMatchValidEntries(*monitor);
  // Updates of other rows or tables, or before the read, leave it cached.
  const uint64_t later = monitor->update_sequence();
  monitor->OnDataSourceUpdate(
      storage::UpdateEvent{"quotes", "AAPL", storage::UpdateKind::kUpdate});
  monitor->OnDataSourceUpdate(
      storage::UpdateEvent{"news", "", storage::UpdateKind::kUpdate});
  ASSERT_TRUE(
      monitor->InsertFragment(quote, -1, {{"quotes", "IBM"}}, later).ok());
  EXPECT_TRUE(monitor->LookupFragment(quote).hit());
  // A table-level dependency sees any row of its table.
  FragmentId board("board");
  const uint64_t before_row = monitor->update_sequence();
  monitor->OnDataSourceUpdate(
      storage::UpdateEvent{"quotes", "MSFT", storage::UpdateKind::kUpdate});
  ASSERT_TRUE(
      monitor->InsertFragment(board, -1, {{"quotes", ""}}, before_row).ok());
  EXPECT_FALSE(monitor->LookupFragment(board).hit());
}

TEST(MonitorTest, InvalidateAllClearsDirectoryAndDeps) {
  SimClock clock;
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  for (int i = 0; i < 5; ++i) {
    FragmentId id("f" + std::to_string(i));
    ASSERT_TRUE(monitor->InsertFragment(id, -1, {{"t", ""}}).ok());
  }
  EXPECT_EQ(monitor->InvalidateAll(), 5u);
  EXPECT_EQ(monitor->directory().valid_count(), 0u);
  EXPECT_EQ(monitor->dependencies().fragment_count(), 0u);
}

TEST(MonitorTest, SnapshotEntriesReflectsDirectoryState) {
  SimClock clock;
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  ASSERT_TRUE(monitor->InsertFragment(FragmentId("a"), 0).ok());
  ASSERT_TRUE(
      monitor->InsertFragment(FragmentId("b"), 5 * kMicrosPerSecond).ok());
  clock.AdvanceSeconds(2);
  ASSERT_TRUE(monitor->Invalidate(FragmentId("a")).ok());

  auto entries = monitor->SnapshotEntries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].fragment_id, "a");
  EXPECT_FALSE(entries[0].is_valid);
  EXPECT_EQ(entries[1].fragment_id, "b");
  EXPECT_TRUE(entries[1].is_valid);
  EXPECT_EQ(entries[1].age_micros, 2 * kMicrosPerSecond);
  EXPECT_EQ(entries[1].ttl_micros, 5 * kMicrosPerSecond);

  EXPECT_EQ(monitor->SnapshotEntries(1).size(), 1u);
}

TEST(MonitorTest, SweepExpiredCountsOnlyExpired) {
  SimClock clock;
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  ASSERT_TRUE(
      monitor->InsertFragment(FragmentId("a"), kMicrosPerSecond).ok());
  ASSERT_TRUE(monitor->InsertFragment(FragmentId("b"), 0).ok());
  clock.AdvanceSeconds(2);
  EXPECT_EQ(monitor->SweepExpired(), 1u);
}

// Churn: every version bump mints a new fragment id, so the directory
// turns over by eviction. The dependencies must turn over with it.
TEST(MonitorTest, DependenciesAreBoundedByCapacity) {
  SimClock clock;
  auto monitor = *BackEndMonitor::Create(Options(&clock, 16));
  for (int i = 0; i < 160; ++i) {
    ASSERT_TRUE(monitor
                    ->InsertFragment(FragmentId("f" + std::to_string(i)), -1,
                                     {{"t", "row" + std::to_string(i)}})
                    .ok());
  }
  EXPECT_LE(monitor->dependencies().fragment_count(), 16u);
  ExpectDepsMatchValidEntries(*monitor);
  // Only the surviving fragments still react to updates.
  EXPECT_TRUE(monitor->dependencies()
                  .Affected({"t", "row0", storage::UpdateKind::kUpdate})
                  .empty());
  EXPECT_EQ(monitor->dependencies()
                .Affected({"t", "row159", storage::UpdateKind::kUpdate})
                .size(),
            1u);
}

TEST(MonitorTest, EvictionDropsDependencies) {
  SimClock clock;
  auto monitor = *BackEndMonitor::Create(Options(&clock, 2));
  ASSERT_TRUE(monitor->InsertFragment(FragmentId("a"), -1, {{"t", "a"}}).ok());
  ASSERT_TRUE(monitor->InsertFragment(FragmentId("b"), -1, {{"t", "b"}}).ok());
  ASSERT_TRUE(monitor->InsertFragment(FragmentId("c"), -1, {{"t", "c"}}).ok());
  EXPECT_EQ(monitor->stats().evictions, 1u);
  ExpectDepsMatchValidEntries(*monitor);
  EXPECT_TRUE(monitor->dependencies()
                  .Affected({"t", "a", storage::UpdateKind::kUpdate})
                  .empty());
}

TEST(MonitorTest, LazyTtlExpiryDropsDependencies) {
  SimClock clock;
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  ASSERT_TRUE(monitor
                  ->InsertFragment(FragmentId("a"), kMicrosPerSecond,
                                   {{"t", "a"}})
                  .ok());
  ASSERT_TRUE(monitor->InsertFragment(FragmentId("b"), 0, {{"t", "b"}}).ok());
  clock.AdvanceSeconds(2);
  EXPECT_EQ(monitor->LookupFragment(FragmentId("a")).outcome,
            LookupOutcome::kMissExpired);
  EXPECT_EQ(monitor->dependencies().fragment_count(), 1u);
  ExpectDepsMatchValidEntries(*monitor);
}

TEST(MonitorTest, SweepExpiredDropsDependencies) {
  SimClock clock;
  auto monitor = *BackEndMonitor::Create(Options(&clock));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(monitor
                    ->InsertFragment(FragmentId("f" + std::to_string(i)),
                                     i % 2 == 0 ? kMicrosPerSecond : 0,
                                     {{"t", ""}})
                    .ok());
  }
  clock.AdvanceSeconds(2);
  EXPECT_EQ(monitor->SweepExpired(), 2u);
  EXPECT_EQ(monitor->dependencies().fragment_count(), 2u);
  ExpectDepsMatchValidEntries(*monitor);
}

}  // namespace
}  // namespace dynaprox::bem
