#include "bem/dependency_registry.h"

#include <gtest/gtest.h>

namespace dynaprox::bem {
namespace {

storage::UpdateEvent Event(const std::string& table, const std::string& key) {
  return {table, key, storage::UpdateKind::kUpdate};
}

TEST(DependencyRegistryTest, RowLevelDependency) {
  DependencyRegistry registry;
  registry.Add(0, "frag1", {{"products", "p1"}});
  EXPECT_EQ(registry.Affected(Event("products", "p1")),
            std::vector<std::string>{"frag1"});
  EXPECT_TRUE(registry.Affected(Event("products", "p2")).empty());
  EXPECT_TRUE(registry.Affected(Event("users", "p1")).empty());
}

TEST(DependencyRegistryTest, TableLevelDependencyMatchesAnyRow) {
  DependencyRegistry registry;
  registry.Add(0, "frag1", {{"products", ""}});  // Whole table.
  EXPECT_EQ(registry.Affected(Event("products", "anything")).size(), 1u);
  EXPECT_EQ(registry.Affected(Event("products", "")).size(), 1u);
}

TEST(DependencyRegistryTest, MultipleFragmentsOneSource) {
  DependencyRegistry registry;
  registry.Add(0, "b-frag", {{"quotes", "IBM"}});
  registry.Add(1, "a-frag", {{"quotes", "IBM"}});
  std::vector<std::string> affected = registry.Affected(Event("quotes", "IBM"));
  ASSERT_EQ(affected.size(), 2u);
  // Deterministic sorted order.
  EXPECT_EQ(affected[0], "a-frag");
  EXPECT_EQ(affected[1], "b-frag");
}

TEST(DependencyRegistryTest, RowAndTableDepsCombineWithoutDuplicates) {
  DependencyRegistry registry;
  // Same fragment, row-level and table-level.
  registry.Add(0, "frag", {{"products", "p1"}, {"products", ""}});
  EXPECT_EQ(registry.Affected(Event("products", "p1")).size(), 1u);
}

TEST(DependencyRegistryTest, RemoveDropsAllTheSlotsDeps) {
  DependencyRegistry registry;
  registry.Add(0, "frag", {{"products", "p1"}, {"users", "u1"}});
  registry.Add(1, "other", {{"products", "p1"}});
  EXPECT_EQ(registry.fragment_count(), 2u);
  registry.Remove(0);
  EXPECT_EQ(registry.fragment_count(), 1u);
  EXPECT_EQ(registry.Affected(Event("products", "p1")),
            std::vector<std::string>{"other"});
  EXPECT_TRUE(registry.Affected(Event("users", "u1")).empty());
}

TEST(DependencyRegistryTest, RemoveOfASlotWithNothingFiledIsIgnored) {
  DependencyRegistry registry;
  registry.Remove(3);
  registry.Add(0, "frag", {});  // No dependencies: nothing filed.
  registry.Remove(0);
  EXPECT_EQ(registry.fragment_count(), 0u);
}

TEST(DependencyRegistryTest, DuplicateDependencyIsFiledOnce) {
  DependencyRegistry registry;
  registry.Add(0, "frag", {{"t", "k"}, {"t", "k"}});
  EXPECT_EQ(registry.Affected(Event("t", "k")).size(), 1u);
  registry.Remove(0);
  EXPECT_TRUE(registry.Affected(Event("t", "k")).empty());
}

// A slot reused by the next fragment files under its new name, and a
// source emptied and filled again (its storage reused) still matches.
TEST(DependencyRegistryTest, SlotsAndSourcesAreReusedAcrossFragments) {
  DependencyRegistry registry;
  for (int round = 0; round < 50; ++round) {
    const std::string row = "r" + std::to_string(round % 3);
    const std::string name = "frag-" + std::to_string(round);
    registry.Add(0, name, {{"t", row}, {"t", ""}});
    registry.Add(1, "steady", {{"t", "r0"}});
    EXPECT_EQ(registry.Affected(Event("t", row)),
              (row == "r0" ? std::vector<std::string>{name, "steady"}
                           : std::vector<std::string>{name}))
        << "round " << round;
    EXPECT_EQ(registry.fragment_count(), 2u);
    registry.Remove(0);
    registry.Remove(1);
    EXPECT_TRUE(registry.Affected(Event("t", row)).empty());
  }
  EXPECT_EQ(registry.fragment_count(), 0u);
}

// Swap-removal keeps every other slot findable, whichever slot leaves.
TEST(DependencyRegistryTest, RemovingAnyDependentKeepsTheOthers) {
  for (DpcKey leaving = 0; leaving < 4; ++leaving) {
    DependencyRegistry registry;
    for (DpcKey slot = 0; slot < 4; ++slot) {
      registry.Add(slot, "f" + std::to_string(slot),
                   {{"t", "shared"}, {"t", "own" + std::to_string(slot)}});
    }
    registry.Remove(leaving);
    std::vector<std::string> expected;
    for (DpcKey slot = 0; slot < 4; ++slot) {
      if (slot != leaving) expected.push_back("f" + std::to_string(slot));
    }
    EXPECT_EQ(registry.Affected(Event("t", "shared")), expected);
    for (DpcKey slot = 0; slot < 4; ++slot) {
      EXPECT_EQ(registry.Affected(Event("t", "own" + std::to_string(slot)))
                    .size(),
                slot == leaving ? 0u : 1u);
    }
  }
}

}  // namespace
}  // namespace dynaprox::bem
