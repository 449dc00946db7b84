// Model-based test: CacheDirectory checked against a simple reference
// model (a map plus paper invariants) under randomized operation
// sequences. This pins down the subtle lifecycle rules — lazy TTL expiry,
// freeList recycling, stale-entry reclamation — far beyond the
// example-based tests.

#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bem/cache_directory.h"
#include "common/clock.h"
#include "common/rng.h"
#include "storage/update_bus.h"

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

// The directory's replacement behaviour, pinned by policy: a seeded
// churn-shaped trace (capacity 1,024; fragments "s<row>?v=<version>" over
// 1,600 rows, each depending on its row; half of the requests ask for a
// new version; 2 % are data-source updates of a row) records, for every
// insert, the fragment it evicted ("-" if none) and the key it assigned.
// The goldens were recorded on a directory that tracked replacement order,
// dependencies and slot owners by canonical string and evicted through the
// free list: a change of victim, of victim order or of key assignment
// shows here.
struct ChurnTrace {
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t digest = 14695981039346656037ull;  // FNV-1a over every line.
  std::vector<std::string> first_evictions;   // The first four lines.
};

ChurnTrace RunChurnTrace(const char* policy) {
  constexpr DpcKey kCapacity = 1024;
  constexpr uint64_t kRows = 1600;
  constexpr int kSteps = 40000;
  Rng rng(7);
  SimClock clock;
  CacheDirectory directory(kCapacity, &clock, *MakeReplacementPolicy(policy));
  std::vector<int> version(kRows, 0);
  // What the trace believes valid, and each slot's last assignee.
  std::map<std::string, FragmentId> live;
  std::map<DpcKey, std::string> occupant;
  ChurnTrace trace;
  for (int step = 0; step < kSteps; ++step) {
    const uint64_t row = rng.NextBounded(kRows);
    const std::string row_key = "s" + std::to_string(row);
    const uint64_t op = rng.NextBounded(100);
    if (op < 2) {
      const storage::UpdateEvent event{"content", row_key,
                                       storage::UpdateKind::kUpdate};
      directory.NoteUpdate(event);
      for (const std::string& canonical :
           directory.dependencies().Affected(event)) {
        EXPECT_TRUE(directory.InvalidateCanonical(canonical).ok());
        live.erase(canonical);
      }
      continue;
    }
    if (op < 51) ++version[row];
    FragmentId id(row_key, {{"v", std::to_string(version[row])}});
    if (directory.Lookup(id).hit()) continue;
    const uint64_t evictions = directory.stats().evictions;
    Result<DpcKey> key = directory.Insert(id, 0, {{"content", row_key}});
    EXPECT_TRUE(key.ok()) << key.status().ToString();
    if (!key.ok()) return trace;
    const std::string canonical = id.Canonical();
    std::string victim = "-";
    if (directory.stats().evictions > evictions) {
      // The victim stopped being valid; the slot's last assignee is the
      // first suspect, every other live fragment the rest.
      auto evicted = [&](const std::string& suspect) {
        return suspect != canonical &&
               !directory.KeyOf(live.at(suspect)).ok();
      };
      const std::string& assignee = occupant[SlotOf(*key, kCapacity)];
      if (live.count(assignee) > 0 && evicted(assignee)) {
        victim = assignee;
      } else {
        for (const auto& [name, fragment] : live) {
          if (evicted(name)) {
            victim = name;
            break;
          }
        }
      }
      live.erase(victim);
      ++trace.evictions;
    }
    live.insert_or_assign(canonical, id);
    occupant[SlotOf(*key, kCapacity)] = canonical;
    const std::string line = victim + " " + std::to_string(*key) + "\n";
    for (unsigned char c : line) {
      trace.digest = (trace.digest ^ c) * 1099511628211ull;
    }
    if (victim != "-" && trace.first_evictions.size() < 4) {
      trace.first_evictions.push_back(line);
    }
    ++trace.inserts;
  }
  return trace;
}

struct GoldenTrace {
  const char* policy;
  uint64_t inserts;
  uint64_t evictions;
  uint64_t digest;
  std::vector<std::string> first_evictions;
};

void PrintTo(const GoldenTrace& golden, std::ostream* os) {
  *os << golden.policy;
}

class DirectoryGoldenTraceTest
    : public ::testing::TestWithParam<GoldenTrace> {};

TEST_P(DirectoryGoldenTraceTest, ChurnTraceKeepsItsVictimsAndKeys) {
  const GoldenTrace& golden = GetParam();
  ChurnTrace trace = RunChurnTrace(golden.policy);
  std::string recorded = "{\"" + std::string(golden.policy) + "\", " +
                         std::to_string(trace.inserts) + ", " +
                         std::to_string(trace.evictions) + ", " +
                         std::to_string(trace.digest) + "ull, {";
  for (const std::string& line : trace.first_evictions) {
    recorded += "\"" + line.substr(0, line.size() - 1) + "\\n\", ";
  }
  recorded += "}}";
  EXPECT_EQ(trace.inserts, golden.inserts) << recorded;
  EXPECT_EQ(trace.evictions, golden.evictions) << recorded;
  EXPECT_EQ(trace.first_evictions, golden.first_evictions) << recorded;
  EXPECT_EQ(trace.digest, golden.digest) << recorded;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DirectoryGoldenTraceTest,
    ::testing::Values(
        GoldenTrace{"lru", 28919, 27418, 6261444556168306968ull,
                    {"s674?v=1 1025\n", "s1041?v=1 1026\n",
                     "s875?v=1 1027\n", "s495?v=1 1030\n"}},
        GoldenTrace{"fifo", 29076, 27574, 7717128767456856487ull,
                    {"s622?v=1 1024\n", "s674?v=1 1025\n",
                     "s1041?v=1 1026\n", "s875?v=1 1027\n"}},
        GoldenTrace{"clock", 28982, 27472, 14061661629716419715ull,
                    {"s622?v=1 1024\n", "s1242?v=1 2722\n",
                     "s674?v=1 1025\n", "s1041?v=1 1026\n"}}),
    [](const ::testing::TestParamInfo<GoldenTrace>& info) {
      return std::string(info.param.policy);
    });

}  // namespace
}  // namespace dynaprox::bem
