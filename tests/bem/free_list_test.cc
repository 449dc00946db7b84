#include "bem/free_list.h"

#include <optional>

#include <gtest/gtest.h>

namespace dynaprox::bem {
namespace {

TEST(FreeListTest, StartsFullWithSequentialKeys) {
  FreeList list(4);
  EXPECT_EQ(list.free_count(), 4u);
  EXPECT_EQ(list.capacity(), 4u);
  for (DpcKey expected = 0; expected < 4; ++expected) {
    std::optional<DpcKey> key = list.Allocate();
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(*key, expected);
  }
  EXPECT_TRUE(list.empty());
}

TEST(FreeListTest, AllocateOnEmptyFails) {
  FreeList list(1);
  ASSERT_TRUE(list.Allocate().has_value());
  EXPECT_FALSE(list.Allocate().has_value());
}

TEST(FreeListTest, ReleaseAppendsAtTailFifo) {
  FreeList list(3);
  ASSERT_TRUE(list.Allocate().has_value());  // 0
  ASSERT_TRUE(list.Allocate().has_value());  // 1
  ASSERT_TRUE(list.Release(0).ok());
  // Order now: 2 (never allocated), then released 0.
  EXPECT_EQ(*list.Allocate(), 2u);
  EXPECT_EQ(*list.Allocate(), 0u);
}

TEST(FreeListTest, ReleaseOutOfRangeFails) {
  FreeList list(2);
  ASSERT_TRUE(list.Allocate().has_value());
  EXPECT_TRUE(list.Release(7).IsInvalidArgument());
}

TEST(FreeListTest, ReleaseBeyondCapacityFails) {
  // The paper requires the freeList be at least as large as the cache; a
  // double release would overflow that bound and is rejected.
  FreeList list(2);
  EXPECT_EQ(list.Release(0).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(list.Allocate().has_value());
  ASSERT_TRUE(list.Release(0).ok());
  EXPECT_EQ(list.Release(1).code(), StatusCode::kFailedPrecondition);
}

TEST(FreeListTest, ReleaseFrontIsReusedByNextAllocate) {
  FreeList list(3);
  ASSERT_TRUE(list.Allocate().has_value());  // 0
  ASSERT_TRUE(list.Allocate().has_value());  // 1
  ASSERT_TRUE(list.ReleaseFront(1).ok());
  // The pinned key jumps ahead of the never-allocated 2.
  EXPECT_EQ(*list.Allocate(), 1u);
  EXPECT_EQ(*list.Allocate(), 2u);
}

TEST(FreeListTest, ReleaseFrontRejectsBadKeys) {
  FreeList list(2);
  EXPECT_TRUE(list.ReleaseFront(7).IsInvalidArgument());
  EXPECT_EQ(list.ReleaseFront(0).code(), StatusCode::kFailedPrecondition);
}

TEST(FreeListTest, ZeroCapacityAlwaysExhausted) {
  FreeList list(0);
  EXPECT_TRUE(list.empty());
  EXPECT_FALSE(list.Allocate().has_value());
}

}  // namespace
}  // namespace dynaprox::bem
