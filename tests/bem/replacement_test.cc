#include "bem/replacement.h"

#include <algorithm>
#include <list>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dynaprox::bem {
namespace {

// Evicts everything, oldest first: the policy's whole order, and its size.
std::vector<std::string> DrainOrder(ReplacementPolicy& policy) {
  std::vector<std::string> order;
  for (Result<std::string> victim = policy.PickVictim(); victim.ok();
       victim = policy.PickVictim()) {
    order.push_back(*victim);
    policy.OnRemove(*victim);
  }
  return order;
}

TEST(LruPolicyTest, EvictsLeastRecentlyUsed) {
  LruPolicy lru;
  lru.OnInsert("a");
  lru.OnInsert("b");
  lru.OnInsert("c");
  EXPECT_EQ(*lru.PickVictim(), "a");
  lru.OnAccess("a");  // Now "b" is oldest.
  EXPECT_EQ(*lru.PickVictim(), "b");
}

TEST(LruPolicyTest, RemoveDropsEntry) {
  LruPolicy lru;
  lru.OnInsert("a");
  lru.OnInsert("b");
  lru.OnRemove("a");
  EXPECT_EQ(*lru.PickVictim(), "b");
  lru.OnRemove("b");
  EXPECT_FALSE(lru.PickVictim().ok());
}

TEST(LruPolicyTest, RemoveUnknownIsIgnored) {
  LruPolicy lru;
  lru.OnRemove("ghost");
  EXPECT_FALSE(lru.PickVictim().ok());
}

TEST(LruPolicyTest, ReinsertTouches) {
  LruPolicy lru;
  lru.OnInsert("a");
  lru.OnInsert("b");
  lru.OnInsert("a");  // Re-insert moves "a" to the front.
  EXPECT_EQ(*lru.PickVictim(), "b");
}

TEST(LruPolicyTest, TouchingFrontBackOrMiddleKeepsOrderAndSize) {
  struct Case {
    const char* touched;
    std::vector<std::string> expected;  // Eviction order after the touch.
  };
  // Inserted a..e, so "e" is the front (most recent) and "a" the back.
  for (const Case& c : {Case{"e", {"a", "b", "c", "d", "e"}},
                        Case{"a", {"b", "c", "d", "e", "a"}},
                        Case{"c", {"a", "b", "d", "e", "c"}}}) {
    for (bool via_access : {true, false}) {
      LruPolicy lru;
      for (const char* id : {"a", "b", "c", "d", "e"}) lru.OnInsert(id);
      if (via_access) {
        lru.OnAccess(c.touched);
      } else {
        lru.OnInsert(c.touched);  // A re-insert touches too.
      }
      EXPECT_EQ(DrainOrder(lru), c.expected)
          << "touched " << c.touched << (via_access ? " by access" : "");
    }
  }
}

TEST(LruPolicyTest, AgreesWithAListModelUnderRandomTouches) {
  Rng rng(11);
  LruPolicy lru;
  std::list<std::string> model;  // Front = most recent.
  for (int step = 0; step < 5000; ++step) {
    std::string id = "f" + std::to_string(rng.NextBounded(64));
    auto at = std::find(model.begin(), model.end(), id);
    switch (rng.NextBounded(4)) {
      case 0:  // Insert (re-insert touches).
        lru.OnInsert(id);
        if (at != model.end()) model.erase(at);
        model.push_front(id);
        break;
      case 1:
        if (at == model.end()) break;  // Hits only touch tracked ids.
        lru.OnAccess(id);
        model.erase(at);
        model.push_front(id);
        break;
      case 2:
        lru.OnRemove(id);
        if (at != model.end()) model.erase(at);
        break;
      default: {  // Evict the victim, as the directory does.
        Result<std::string> victim = lru.PickVictim();
        ASSERT_EQ(victim.ok(), !model.empty()) << "step " << step;
        if (!victim.ok()) break;
        ASSERT_EQ(*victim, model.back()) << "step " << step;
        lru.OnRemove(*victim);
        model.pop_back();
        break;
      }
    }
    Result<std::string> victim = lru.PickVictim();
    ASSERT_EQ(victim.ok(), !model.empty()) << "step " << step;
    if (victim.ok()) {
      ASSERT_EQ(*victim, model.back()) << "step " << step;
    }
  }
  EXPECT_EQ(DrainOrder(lru),
            std::vector<std::string>(model.rbegin(), model.rend()));
}

TEST(FifoPolicyTest, EvictsOldestIgnoringAccesses) {
  FifoPolicy fifo;
  fifo.OnInsert("a");
  fifo.OnInsert("b");
  fifo.OnAccess("a");  // FIFO ignores accesses.
  EXPECT_EQ(*fifo.PickVictim(), "a");
  fifo.OnRemove("a");
  EXPECT_EQ(*fifo.PickVictim(), "b");
}

TEST(FifoPolicyTest, ReinsertKeepsOriginalAge) {
  FifoPolicy fifo;
  fifo.OnInsert("a");
  fifo.OnInsert("b");
  fifo.OnInsert("a");  // Still oldest.
  EXPECT_EQ(*fifo.PickVictim(), "a");
}

TEST(ClockPolicyTest, SecondChanceBeforeEviction) {
  ClockPolicy clock;
  clock.OnInsert("a");
  clock.OnInsert("b");
  // Both referenced: first sweep clears bits, second finds "a".
  EXPECT_EQ(*clock.PickVictim(), "a");
  // "a" was not removed and its bit is now clear; accessing it re-arms it.
  clock.OnAccess("a");
  EXPECT_EQ(*clock.PickVictim(), "b");
}

TEST(ClockPolicyTest, RemoveKeepsRingConsistent) {
  ClockPolicy clock;
  clock.OnInsert("a");
  clock.OnInsert("b");
  clock.OnInsert("c");
  clock.OnRemove("b");
  Result<std::string> victim = clock.PickVictim();
  ASSERT_TRUE(victim.ok());
  EXPECT_NE(*victim, "b");
  clock.OnRemove("a");
  clock.OnRemove("c");
  EXPECT_FALSE(clock.PickVictim().ok());
}

TEST(ClockPolicyTest, EmptyRingFails) {
  ClockPolicy clock;
  EXPECT_EQ(clock.PickVictim().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(MakeReplacementPolicyTest, FactoryByName) {
  for (const char* name : {"lru", "fifo", "clock"}) {
    Result<std::unique_ptr<ReplacementPolicy>> policy =
        MakeReplacementPolicy(name);
    ASSERT_TRUE(policy.ok()) << name;
    EXPECT_EQ((*policy)->name(), name);
  }
  EXPECT_FALSE(MakeReplacementPolicy("arc").ok());
}

// Property-style sweep: every policy returns a victim that was inserted
// and not removed, for a few interleavings.
class PolicyParamTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PolicyParamTest, VictimIsAlwaysATrackedEntry) {
  auto policy = *MakeReplacementPolicy(GetParam());
  std::set<std::string> live;
  for (int i = 0; i < 20; ++i) {
    std::string id = "f" + std::to_string(i);
    policy->OnInsert(id);
    live.insert(id);
    if (i % 3 == 0) {
      policy->OnAccess("f" + std::to_string(i / 2));
    }
    if (i % 4 == 0 && !live.empty()) {
      std::string gone = *live.begin();
      policy->OnRemove(gone);
      live.erase(gone);
    }
    if (!live.empty()) {
      Result<std::string> victim = policy->PickVictim();
      ASSERT_TRUE(victim.ok());
      EXPECT_TRUE(live.count(*victim)) << *victim;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyParamTest,
                         ::testing::Values("lru", "fifo", "clock"));

}  // namespace
}  // namespace dynaprox::bem
