#include "dpc/fragment_store.h"

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

namespace dynaprox::dpc {
namespace {

TEST(FragmentStoreTest, SetGetRoundTrip) {
  FragmentStore store(4);
  ASSERT_TRUE(store.Set(2, "hello").ok());
  Result<dpc::FragmentRef> content = store.Get(2);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(**content, "hello");
}

TEST(FragmentStoreTest, GetEmptySlotIsNotFound) {
  FragmentStore store(4);
  Result<dpc::FragmentRef> content = store.Get(1);
  EXPECT_TRUE(content.status().IsNotFound());
  EXPECT_EQ(store.stats().get_misses, 1u);
}

TEST(FragmentStoreTest, KeysBeyondCapacityAddressLaterGenerations) {
  // Key 5 in a 2-slot store is slot 1, generation 2: it shares slot 1
  // with keys 1 and 3 but is none of them. Only the reserved sentinel is
  // rejected outright.
  FragmentStore store(2);
  ASSERT_TRUE(store.Set(5, "x").ok());
  EXPECT_EQ(**store.Get(5), "x");
  EXPECT_TRUE(store.Get(1).status().IsNotFound());
  EXPECT_TRUE(store.Get(3).status().IsNotFound());
  EXPECT_TRUE(store.Get(7).status().IsNotFound());
  EXPECT_EQ(store.occupied_slots(), 1u);
  EXPECT_TRUE(store.Set(bem::kInvalidDpcKey, "x").IsInvalidArgument());
}

TEST(FragmentStoreTest, GetHitsOnlyTheExactKey) {
  FragmentStore store(4);
  ASSERT_TRUE(store.Set(6, "gen1").ok());  // Slot 2, generation 1.
  EXPECT_EQ(**store.Get(6), "gen1");
  // The slot's other generations are misses, not splices.
  EXPECT_TRUE(store.Get(2).status().IsNotFound());
  EXPECT_TRUE(store.Get(10).status().IsNotFound());
  EXPECT_EQ(store.stats().get_misses, 2u);
}

TEST(FragmentStoreTest, OlderSetNeverReplacesANewerKey) {
  // Two responses in flight can deliver a slot's SETs out of order. Slot
  // 2 of a 4-slot store holds keys 2, 6, 10, ... in turn.
  FragmentStore store(4);
  ASSERT_TRUE(store.Set(6, "gen1").ok());
  // With no response in flight nothing can want the late, older SET.
  ASSERT_TRUE(store.Set(2, "gen0").ok());
  EXPECT_EQ(**store.Get(6), "gen1");
  EXPECT_TRUE(store.Get(2).status().IsNotFound());
  EXPECT_EQ(store.stats().stale_sets, 1u);
  EXPECT_EQ(store.stats().sets, 1u);
  EXPECT_EQ(store.occupied_slots(), 1u);
  EXPECT_EQ(store.content_bytes(), 4u);
}

FragmentRef Text(const char* text) {
  return std::make_shared<const std::string>(text);
}

TEST(FragmentStoreTest, OlderSetFromAResponseInFlightNeverReplacesANewerKey) {
  // The older SET's response was already open when the newer key landed:
  // it was rendered before the slot's reassignment.
  FragmentStore store(4);
  FragmentStore::Writer slow = store.OpenWriter();
  FragmentStore::Writer fast = store.OpenWriter();
  ASSERT_TRUE(store.Set(6, Text("gen1"), &fast).ok());
  fast.Close();
  ASSERT_TRUE(store.Set(2, Text("gen0"), &slow).ok());  // Kept aside.
  slow.Close();
  EXPECT_EQ(**store.Get(6), "gen1");
  EXPECT_TRUE(store.Get(2).status().IsNotFound());
}

TEST(FragmentStoreTest, LowerKeyFromAResponseOpenedLaterIsARestartedBem) {
  // Slot 2 holds generation 3 of an origin that has since restarted and
  // hands out generation 0 again. The response carrying key 2 opened after
  // key 14 was stored, so it was rendered later: its key takes the slot,
  // and no GET can find the old incarnation's bytes any more.
  FragmentStore store(4);
  {
    FragmentStore::Writer before_restart = store.OpenWriter();
    ASSERT_TRUE(store.Set(14, Text("old incarnation"), &before_restart).ok());
  }
  FragmentStore::Writer after_restart = store.OpenWriter();
  ASSERT_TRUE(store.Set(2, Text("new incarnation"), &after_restart).ok());
  after_restart.Close();
  EXPECT_EQ(**store.Get(2), "new incarnation");
  EXPECT_TRUE(store.Get(14).status().IsNotFound());
  EXPECT_EQ(store.stats().stale_sets, 0u);
  EXPECT_EQ(store.stats().sets, 2u);
  // A push carries no response, so it follows key order alone.
  ASSERT_TRUE(store.SetPushed(10, Text("pushed"), 0, 0).ok());
  ASSERT_TRUE(store.SetPushed(6, Text("older push"), 0, 0).ok());
  EXPECT_EQ(**store.Get(10), "pushed");
  EXPECT_EQ(store.stats().stale_sets, 1u);
}

TEST(FragmentStoreTest, PagesInFlightStillFindTheSlotsEarlierKeys) {
  // A page rendered before the slot's reassignment may arrive after the
  // next occupant: the displaced occupant and a late older SET are kept
  // aside while a response opened before they left the slot is open.
  FragmentStore store(4);
  ASSERT_TRUE(store.Set(2, "gen0").ok());
  FragmentStore::Writer in_flight = store.OpenWriter();
  ASSERT_TRUE(store.Set(6, "gen1").ok());  // Displaces gen0.
  EXPECT_EQ(**store.Get(6), "gen1");
  EXPECT_EQ(**store.Get(2), "gen0");
  ASSERT_TRUE(store.Set(14, "gen3").ok());
  ASSERT_TRUE(store.Set(10, "gen2").ok());  // Late: kept aside too.
  EXPECT_EQ(**store.Get(14), "gen3");
  EXPECT_EQ(**store.Get(10), "gen2");
  EXPECT_EQ(**store.Get(6), "gen1");
  EXPECT_EQ(store.stats().stale_sets, 0u);
  // Once that response closes, no page in flight can want them.
  in_flight.Close();
  EXPECT_TRUE(store.Get(2).status().IsNotFound());
  EXPECT_TRUE(store.Get(10).status().IsNotFound());
  EXPECT_EQ(**store.Get(14), "gen3");
}

TEST(FragmentStoreTest, AwaitEndsWhenItsSetLands) {
  FragmentStore store(4);
  // The response carrying the SET opened first; the waiting response's
  // head arrived while it was still open.
  FragmentStore::Writer carrier = store.OpenWriter();
  FragmentStore::Writer waiter = store.OpenWriter();
  waiter.HeadArrived();
  ASSERT_TRUE(store.Set(2, "previous occupant").ok());
  std::thread setter([&store] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(store.Set(6, "landed").ok());
  });
  const auto start = std::chrono::steady_clock::now();
  Result<FragmentRef> got =
      store.Await(6, waiter, start + std::chrono::seconds(10));
  setter.join();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(**got, "landed");
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(store.stats().set_waits, 1u);
}

TEST(FragmentStoreTest, AwaitEndsWhenEarlierWritersClose) {
  FragmentStore store(4);
  FragmentStore::Writer carrier = store.OpenWriter();
  FragmentStore::Writer waiter = store.OpenWriter();
  waiter.HeadArrived();
  // A writer opened after the head can't carry the SET: not waited for.
  FragmentStore::Writer later = store.OpenWriter();
  std::thread closer([&carrier] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    carrier.Close();
  });
  const auto start = std::chrono::steady_clock::now();
  Result<FragmentRef> got =
      store.Await(6, waiter, start + std::chrono::seconds(10));
  closer.join();
  EXPECT_TRUE(got.status().IsNotFound());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(store.stats().set_waits, 1u);
}

TEST(FragmentStoreTest, AwaitDoesNotWaitWithoutAnEarlierWriter) {
  FragmentStore store(4);
  FragmentStore::Writer waiter = store.OpenWriter();
  waiter.HeadArrived();
  FragmentStore::Writer later = store.OpenWriter();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(store.Await(6, waiter, start + std::chrono::seconds(10))
                  .status()
                  .IsNotFound());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(store.stats().set_waits, 0u);
}

TEST(FragmentStoreTest, WaitersDoNotWaitForEachOther) {
  // Two responses that each opened before the other's head and both miss:
  // neither carries a SET while it waits, so once both wait one of them
  // goes on, and the other waits only until that one is done, never for
  // its deadline.
  FragmentStore store(4);
  FragmentStore::Writer first = store.OpenWriter();
  FragmentStore::Writer second = store.OpenWriter();
  first.HeadArrived();
  second.HeadArrived();
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::seconds(10);
  std::thread other([&] {
    EXPECT_TRUE(store.Await(5, second, deadline).status().IsNotFound());
    second.Close();  // Its recovery and the rest of its scan.
  });
  EXPECT_TRUE(store.Await(6, first, deadline).status().IsNotFound());
  first.Close();
  other.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  // A response in flight that is not waiting still holds a waiter back
  // until it closes.
  FragmentStore::Writer carrier = store.OpenWriter();
  FragmentStore::Writer waiter = store.OpenWriter();
  waiter.HeadArrived();
  std::thread closer([&carrier] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    carrier.Close();
  });
  const auto held = std::chrono::steady_clock::now();
  EXPECT_TRUE(store.Await(7, waiter, deadline).status().IsNotFound());
  closer.join();
  EXPECT_GE(std::chrono::steady_clock::now() - held,
            std::chrono::milliseconds(20));
}

TEST(FragmentStoreTest, AwaitStopsAtItsDeadline) {
  FragmentStore store(4);
  FragmentStore::Writer carrier = store.OpenWriter();
  FragmentStore::Writer waiter = store.OpenWriter();
  waiter.HeadArrived();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(store.Await(6, waiter, start + std::chrono::milliseconds(30))
                  .status()
                  .IsNotFound());
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(30));
}

TEST(FragmentStoreTest, OverwriteReplacesContentAndAccounting) {
  FragmentStore store(2);
  ASSERT_TRUE(store.Set(0, "12345").ok());
  EXPECT_EQ(store.content_bytes(), 5u);
  EXPECT_EQ(store.occupied_slots(), 1u);
  ASSERT_TRUE(store.Set(0, "ab").ok());
  EXPECT_EQ(store.content_bytes(), 2u);
  EXPECT_EQ(store.occupied_slots(), 1u);
  EXPECT_EQ(**store.Get(0), "ab");
}

TEST(FragmentStoreTest, EmptyContentIsStillOccupied) {
  // An empty fragment (e.g. a conditional section that rendered nothing)
  // is a valid cached value, distinct from "never set".
  FragmentStore store(2);
  ASSERT_TRUE(store.Set(0, "").ok());
  Result<dpc::FragmentRef> content = store.Get(0);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ((*content)->size(), 0u);
  EXPECT_EQ(store.occupied_slots(), 1u);
}

TEST(FragmentStoreTest, ClearEmptiesEverything) {
  FragmentStore store(3);
  ASSERT_TRUE(store.Set(0, "a").ok());
  ASSERT_TRUE(store.Set(1, "b").ok());
  store.Clear();
  EXPECT_EQ(store.occupied_slots(), 0u);
  EXPECT_EQ(store.content_bytes(), 0u);
  EXPECT_TRUE(store.Get(0).status().IsNotFound());
}

TEST(FragmentStoreTest, StatsCountOperations) {
  FragmentStore store(2);
  ASSERT_TRUE(store.Set(0, "x").ok());
  (void)store.Get(0);
  (void)store.Get(0);
  (void)store.Get(1);
  EXPECT_EQ(store.stats().sets, 1u);
  EXPECT_EQ(store.stats().gets, 3u);
  EXPECT_EQ(store.stats().get_misses, 1u);
}

TEST(FragmentStoreTest, ZeroCapacityStore) {
  FragmentStore store(0);
  EXPECT_EQ(store.capacity(), 0u);
  EXPECT_TRUE(store.Set(0, "x").IsInvalidArgument());
}

TEST(FragmentStorePushTest, SetPushedStoresAndCounts) {
  FragmentStore store(4);
  auto body = std::make_shared<const std::string>("pushed body");
  ASSERT_TRUE(store.SetPushed(1, body, /*base_age_micros=*/0,
                              /*now_micros=*/100).ok());
  EXPECT_EQ(**store.Get(1), "pushed body");
  EXPECT_EQ(store.stats().pushes, 1u);
  EXPECT_EQ(store.stats().sets, 0u);
  EXPECT_EQ(store.pushed_slots(), 1u);
}

TEST(FragmentStorePushTest, AgeAccountsBaseAgePlusResidency) {
  FragmentStore store(4);
  auto body = std::make_shared<const std::string>("b");
  // Pushed at t=1000 already 500 old; at t=1600 it is 500 + 600 old.
  ASSERT_TRUE(store.SetPushed(0, body, 500, 1000).ok());
  Result<MicroTime> age = store.AgeOf(0, 1600);
  ASSERT_TRUE(age.ok());
  EXPECT_EQ(*age, 1100);
}

TEST(FragmentStorePushTest, SetContentHasAgeZero) {
  FragmentStore store(4);
  ASSERT_TRUE(store.Set(2, "fresh").ok());
  Result<MicroTime> age = store.AgeOf(2, 999999);
  ASSERT_TRUE(age.ok());
  EXPECT_EQ(*age, 0);
  EXPECT_EQ(store.pushed_slots(), 0u);
}

TEST(FragmentStorePushTest, AgeOfEmptySlotIsNotFound) {
  FragmentStore store(4);
  EXPECT_TRUE(store.AgeOf(3, 0).status().IsNotFound());
}

TEST(FragmentStorePushTest, SetOverwritesPushResettingAge) {
  FragmentStore store(4);
  auto body = std::make_shared<const std::string>("old push");
  ASSERT_TRUE(store.SetPushed(1, body, 1000, 2000).ok());
  EXPECT_EQ(store.pushed_slots(), 1u);
  // A SET from a freshly assembled response supersedes the push: the
  // content is now zero-age and the pushed gauge drops.
  ASSERT_TRUE(store.Set(1, "fresh set").ok());
  EXPECT_EQ(store.pushed_slots(), 0u);
  EXPECT_EQ(*store.AgeOf(1, 5000), 0);
  EXPECT_EQ(**store.Get(1), "fresh set");
}

TEST(FragmentStorePushTest, ClearResetsPushState) {
  FragmentStore store(4);
  auto body = std::make_shared<const std::string>("x");
  ASSERT_TRUE(store.SetPushed(0, body, 0, 0).ok());
  store.Clear();
  EXPECT_EQ(store.pushed_slots(), 0u);
  EXPECT_TRUE(store.AgeOf(0, 0).status().IsNotFound());
}

}  // namespace
}  // namespace dynaprox::dpc
