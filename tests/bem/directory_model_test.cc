// Model-based test: CacheDirectory checked against a simple reference
// model (a map plus paper invariants) under randomized operation
// sequences. This pins down the subtle lifecycle rules — lazy TTL expiry,
// freeList recycling, stale-entry reclamation — far beyond the
// example-based tests.

#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "bem/cache_directory.h"
#include "common/clock.h"
#include "common/rng.h"

namespace dynaprox::bem {
namespace {

// Reference model: tracks which fragments *must* be valid (inserted, never
// invalidated/evicted/expired) and which must not. Eviction makes hits
// unpredictable for untouched entries, so the model tracks definite
// validity only when no eviction has occurred since the insert.
class ReferenceModel {
 public:
  explicit ReferenceModel(size_t capacity) : capacity_(capacity) {}

  void OnInsert(const std::string& id, MicroTime now, MicroTime ttl) {
    valid_[id] = {now, ttl};
  }
  void OnInvalidate(const std::string& id) { valid_.erase(id); }
  void OnEviction() {
    // Some entry was evicted; we no longer know which are resident.
    eviction_happened_ = true;
  }
  void Expire(MicroTime now) {
    for (auto it = valid_.begin(); it != valid_.end();) {
      if (it->second.ttl > 0 && now - it->second.inserted >= it->second.ttl) {
        it = valid_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Whether a Lookup hit is *required* (only when no eviction could have
  // removed it).
  bool MustHit(const std::string& id) const {
    return !eviction_happened_ && valid_.count(id) > 0;
  }
  // Whether a hit is *allowed*.
  bool MayHit(const std::string& id) const { return valid_.count(id) > 0; }

  size_t capacity() const { return capacity_; }

 private:
  struct Times {
    MicroTime inserted;
    MicroTime ttl;
  };
  size_t capacity_;
  std::map<std::string, Times> valid_;
  bool eviction_happened_ = false;
};

class DirectoryModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DirectoryModelTest, RandomOpsAgreeWithModel) {
  Rng rng(GetParam());
  SimClock clock;
  const DpcKey kCapacity = 16;
  CacheDirectory directory(kCapacity, &clock, *MakeReplacementPolicy("lru"));
  ReferenceModel model(kCapacity);
  std::map<std::string, DpcKey> last_key;

  for (int step = 0; step < 3000; ++step) {
    std::string name = "f" + std::to_string(rng.NextBounded(40));
    FragmentId id(name);
    uint64_t evictions_before = directory.stats().evictions;

    switch (rng.NextBounded(8)) {
      case 0:
      case 1:
      case 2: {  // Lookup.
        LookupResult result = directory.Lookup(id);
        if (model.MustHit(name)) {
          EXPECT_TRUE(result.hit()) << name << " step " << step;
        }
        if (result.hit()) {
          EXPECT_TRUE(model.MayHit(name)) << name << " step " << step;
          // A hit names exactly the key the fragment's insert returned.
          EXPECT_EQ(result.key, last_key[name]) << name << " step " << step;
        }
        break;
      }
      case 3:
      case 4: {  // Insert (after a miss, like the real miss path).
        if (!directory.Lookup(id).hit()) {
          MicroTime ttl =
              rng.NextBool(0.3)
                  ? static_cast<MicroTime>(1 + rng.NextBounded(50))
                  : 0;
          Result<DpcKey> key = directory.Insert(id, ttl);
          ASSERT_TRUE(key.ok());
          last_key[name] = *key;
          model.OnInsert(name, clock.NowMicros(), ttl);
        }
        break;
      }
      case 5: {  // Invalidate.
        Status status = directory.Invalidate(id);
        if (model.MustHit(name)) {
          EXPECT_TRUE(status.ok()) << name;
        }
        model.OnInvalidate(name);
        break;
      }
      case 6: {  // Time passes; expiry becomes possible.
        clock.AdvanceMicros(1 + static_cast<MicroTime>(rng.NextBounded(20)));
        model.Expire(clock.NowMicros());
        break;
      }
      case 7: {  // Sweep.
        directory.SweepExpired();
        model.Expire(clock.NowMicros());
        break;
      }
    }
    if (directory.stats().evictions > evictions_before) {
      model.OnEviction();
    }

    // Paper invariants, every step:
    ASSERT_LE(directory.entry_count(), kCapacity);
    ASSERT_EQ(directory.valid_count() + directory.free_key_count(),
              kCapacity);
  }
}

TEST_P(DirectoryModelTest, KeysNeverAliasAcrossValidFragments) {
  // Two valid fragments must never share a dpcKey or a slot (otherwise the
  // DPC would serve one fragment's bytes for the other).
  Rng rng(GetParam() * 31 + 7);
  SimClock clock;
  const DpcKey kCapacity = 8;
  CacheDirectory directory(kCapacity, &clock,
                           *MakeReplacementPolicy("fifo"));
  std::set<std::string> inserted;
  for (int step = 0; step < 2000; ++step) {
    std::string name = "f" + std::to_string(rng.NextBounded(24));
    FragmentId id(name);
    if (rng.NextBool(0.6)) {
      if (!directory.Lookup(id).hit()) {
        ASSERT_TRUE(directory.Insert(id, 0).ok());
        inserted.insert(name);
      }
    } else if (!inserted.empty()) {
      (void)directory.Invalidate(
          FragmentId("f" + std::to_string(rng.NextBounded(24))));
    }
    // Collect keys and slots of all currently-valid fragments.
    std::set<DpcKey> keys;
    std::set<DpcKey> slots;
    for (const std::string& fragment : inserted) {
      Result<DpcKey> key = directory.KeyOf(FragmentId(fragment));
      if (!key.ok()) continue;
      ASSERT_TRUE(keys.insert(*key).second)
          << "key " << *key << " aliased at step " << step;
      ASSERT_TRUE(slots.insert(SlotOf(*key, kCapacity)).second)
          << "slot of key " << *key << " aliased at step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectoryModelTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace dynaprox::bem
