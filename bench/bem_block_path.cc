// Per-layer cost of the BEM's block path (google-benchmark): what the origin
// spends per block on top of generating it. Three layers:
//
//   * tag emission: TagCodec::AppendLiteral and AppendSet over 256 B and
//     16 KiB of content, with no STX byte and with 1 % STX (escaped);
//   * a directory hit: CacheDirectory::Lookup on a full 4,096-entry
//     directory (LRU touch included);
//   * a miss that evicts: CacheDirectory::Insert at capacity 1,024 cycling
//     over 1,600 fragment ids with one row dependency each, the shape of
//     perfbench's churn workload, so every insert evicts the LRU victim
//     and drops its dependency. It reports heap allocations per insert
//     beside evictions per insert, counted by this binary's global
//     operator new.
//
// Run: ./build/bench/bench_bem_block_path

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bem/cache_directory.h"
#include "bem/replacement.h"
#include "bem/tag_codec.h"
#include "common/clock.h"
#include "common/rng.h"

// Every heap allocation of the process, counted. Kept out of line, so the
// compiler never pairs an inlined free() with a new it can see.
std::atomic<uint64_t> g_allocations{0};

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using dynaprox::Rng;
using dynaprox::SimClock;
using dynaprox::bem::CacheDirectory;
using dynaprox::bem::DependencyList;
using dynaprox::bem::DpcKey;
using dynaprox::bem::FragmentId;
using dynaprox::bem::MakeReplacementPolicy;
using dynaprox::bem::TagCodec;

// Printable filler with STX bytes at `stx_percent` density (seeded).
std::string Content(size_t size, int stx_percent) {
  Rng rng(42);
  std::string out(size, 'x');
  for (size_t i = 0; i < size; ++i) {
    out[i] = rng.NextBounded(100) < static_cast<uint64_t>(stx_percent)
                 ? TagCodec::kStx
                 : static_cast<char>('a' + i % 26);
  }
  return out;
}

// Fragment ids shaped like SyntheticSite's ("s<slot>?v=<version>").
FragmentId SlotFragment(int slot) {
  return FragmentId("s" + std::to_string(slot), {{"v", "1"}});
}

std::unique_ptr<CacheDirectory> MakeDirectory(DpcKey capacity,
                                              const SimClock* clock) {
  return std::make_unique<CacheDirectory>(capacity, clock,
                                          *MakeReplacementPolicy("lru"));
}

// Args: {content bytes, STX percent}.
void BM_AppendLiteral(benchmark::State& state) {
  const std::string content = Content(static_cast<size_t>(state.range(0)),
                                      static_cast<int>(state.range(1)));
  std::string out;
  for (auto _ : state) {
    out.clear();
    TagCodec::AppendLiteral(content, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(content.size()));
}

void BM_AppendSet(benchmark::State& state) {
  const std::string content = Content(static_cast<size_t>(state.range(0)),
                                      static_cast<int>(state.range(1)));
  std::string out;
  for (auto _ : state) {
    out.clear();
    TagCodec::AppendSet(0x3ff, content, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(content.size()));
}

void BM_DirectoryHit(benchmark::State& state) {
  constexpr int kEntries = 4096;
  SimClock clock;
  auto directory = MakeDirectory(kEntries, &clock);
  std::vector<FragmentId> ids;
  for (int slot = 0; slot < kEntries; ++slot) {
    ids.push_back(SlotFragment(slot));
    if (!directory->Insert(ids.back(), 0).ok()) abort();
  }
  size_t next = 0;
  for (auto _ : state) {
    auto lookup = directory->Lookup(ids[next]);
    if (!lookup.hit()) abort();
    benchmark::DoNotOptimize(lookup.key);
    next = (next + 1) % ids.size();
  }
}

void BM_InsertWithEviction(benchmark::State& state) {
  constexpr DpcKey kCapacity = 1024;
  constexpr int kFragments = 1600;
  SimClock clock;
  auto directory = MakeDirectory(kCapacity, &clock);
  std::vector<FragmentId> ids;
  std::vector<DependencyList> deps;
  for (int slot = 0; slot < kFragments; ++slot) {
    ids.push_back(SlotFragment(slot));
    deps.push_back({{"content", "s" + std::to_string(slot)}});
  }
  // Insert every id once: the directory is full, so every measured insert
  // evicts, and every row has been seen, so the measured inserts run in
  // steady state.
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!directory->Insert(ids[i], 0, deps[i]).ok()) abort();
  }
  size_t next = 0;
  const uint64_t evictions_before = directory->stats().evictions;
  const uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto key = directory->Insert(ids[next], 0, deps[next]);
    if (!key.ok()) abort();
    benchmark::DoNotOptimize(*key);
    next = (next + 1) % ids.size();
  }
  const double inserts = static_cast<double>(state.iterations());
  state.counters["allocs/insert"] =
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          allocations_before) /
      inserts;
  state.counters["evictions/insert"] =
      static_cast<double>(directory->stats().evictions - evictions_before) /
      inserts;
}

BENCHMARK(BM_AppendLiteral)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({16384, 0})
    ->Args({16384, 1});
BENCHMARK(BM_AppendSet)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({16384, 0})
    ->Args({16384, 1});
BENCHMARK(BM_DirectoryHit);
BENCHMARK(BM_InsertWithEviction);

}  // namespace

BENCHMARK_MAIN();
