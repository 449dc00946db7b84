// Page-assembly cost with the zero-copy buffer chain (google-benchmark).
// A Zipf-popular population of large fragments is assembled into pages
// two ways: the chain path (literals and cached fragments referenced,
// only SET bodies materialized) and a flattening path that models the old
// contiguous-string assembler (every byte of every page copied). The
// AssembledPage byte accounting gives the exact copy reduction; the
// tentpole claim is >= 2x fewer bytes copied with no latency regression.

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <benchmark/benchmark.h>

#include "bem/tag_codec.h"
#include "common/buffer_chain.h"
#include "common/rng.h"
#include "dpc/assembler.h"
#include "dpc/fragment_store.h"

namespace {

using dynaprox::Rng;
using dynaprox::ZipfSampler;
using dynaprox::bem::TagCodec;
using dynaprox::common::Buffer;
using dynaprox::common::MakeBuffer;
using dynaprox::dpc::AssemblePage;
using dynaprox::dpc::FragmentStore;

constexpr size_t kFragments = 64;       // Popularity ranks.
constexpr size_t kPages = 256;          // Distinct request targets.
constexpr int kFragmentsPerPage = 8;
constexpr double kZipfAlpha = 1.0;      // Classic web-trace fit.

// Large fragments: rank 0 is 32KB, sizes taper with rank so the hot
// fragments dominate page bytes (the case zero-copy splicing pays for).
size_t FragmentSize(size_t rank) { return 32768 / (1 + rank / 8); }

struct Workload {
  FragmentStore store{kFragments};
  std::vector<Buffer> templates;  // GET-heavy steady-state wires.

  Workload() {
    Rng rng(42);
    ZipfSampler sampler(kFragments, kZipfAlpha);
    for (size_t rank = 0; rank < kFragments; ++rank) {
      std::string body(FragmentSize(rank),
                       static_cast<char>('a' + rank % 26));
      if (!store.Set(static_cast<dynaprox::bem::DpcKey>(rank),
                     std::move(body))
               .ok()) {
        abort();
      }
    }
    for (size_t page = 0; page < kPages; ++page) {
      std::string wire = "<html>";
      for (int slot = 0; slot < kFragmentsPerPage; ++slot) {
        TagCodec::AppendLiteral("<div>", wire);
        TagCodec::AppendGet(
            static_cast<dynaprox::bem::DpcKey>(sampler.Sample(rng)), wire);
        TagCodec::AppendLiteral("</div>", wire);
      }
      wire += "</html>";
      templates.push_back(MakeBuffer(std::move(wire)));
    }
  }
};

Workload& SharedWorkload() {
  static Workload workload;
  return workload;
}

// Zero-copy path: the assembled page is a chain of references into the
// template wire and the fragment store. bytes_copied stays ~0.
void BM_AssembleChained(benchmark::State& state) {
  Workload& workload = SharedWorkload();
  Rng rng(7);
  ZipfSampler page_popularity(kPages, kZipfAlpha);
  uint64_t copied = 0, referenced = 0, pages = 0;
  for (auto _ : state) {
    const Buffer& wire =
        workload.templates[page_popularity.Sample(rng)];
    auto page = AssemblePage(wire, workload.store);
    if (!page.ok()) abort();
    benchmark::DoNotOptimize(page->body);
    copied += page->progress.bytes_copied;
    referenced += page->progress.bytes_referenced;
    ++pages;
  }
  state.counters["bytes_copied/page"] =
      static_cast<double>(copied) / static_cast<double>(pages);
  state.counters["bytes_referenced/page"] =
      static_cast<double>(referenced) / static_cast<double>(pages);
  state.SetBytesProcessed(
      static_cast<int64_t>(copied + referenced));
}

// Old contiguous path, modeled exactly: assemble, then materialize the
// page as one string. Every body byte is copied once per request.
void BM_AssembleFlattened(benchmark::State& state) {
  Workload& workload = SharedWorkload();
  Rng rng(7);
  ZipfSampler page_popularity(kPages, kZipfAlpha);
  uint64_t copied = 0, pages = 0;
  for (auto _ : state) {
    const Buffer& wire =
        workload.templates[page_popularity.Sample(rng)];
    auto page = AssemblePage(wire, workload.store);
    if (!page.ok()) abort();
    std::string flat = page->Text();
    benchmark::DoNotOptimize(flat);
    copied += page->progress.bytes_copied + flat.size();
    ++pages;
  }
  state.counters["bytes_copied/page"] =
      static_cast<double>(copied) / static_cast<double>(pages);
  state.SetBytesProcessed(static_cast<int64_t>(copied));
}

// Cold pages: every fragment arrives inline in a SET block, the one case
// that must materialize (the copy is shared with the store). This bounds
// the accounting from the other side.
void BM_AssembleColdSets(benchmark::State& state) {
  FragmentStore store(kFragments);
  std::string wire;
  for (size_t rank = 0; rank < 8; ++rank) {
    TagCodec::AppendSet(static_cast<dynaprox::bem::DpcKey>(rank),
                        std::string(FragmentSize(rank), 'c'), wire);
  }
  Buffer shared_wire = MakeBuffer(std::move(wire));
  uint64_t copied = 0, referenced = 0, pages = 0;
  for (auto _ : state) {
    auto page = AssemblePage(shared_wire, store);
    if (!page.ok()) abort();
    benchmark::DoNotOptimize(page->body);
    copied += page->progress.bytes_copied;
    referenced += page->progress.bytes_referenced;
    ++pages;
  }
  state.counters["bytes_copied/page"] =
      static_cast<double>(copied) / static_cast<double>(pages);
  state.SetBytesProcessed(static_cast<int64_t>(copied + referenced));
}

// Streaming path: the same Zipf page mix fed 4KB at a time through
// StreamingAssembler, the way a template arrives off a socket. The copy
// accounting must match the buffered chain path; holdback_peak_bytes is
// the per-connection buffering bound (open SET body + partial tag),
// which stays chunk-sized no matter how large the page is.
void BM_AssembleStreaming(benchmark::State& state) {
  Workload& workload = SharedWorkload();
  Rng rng(7);
  ZipfSampler page_popularity(kPages, kZipfAlpha);
  constexpr size_t kChunkBytes = 4096;
  uint64_t copied = 0, referenced = 0, pages = 0, holdback_peak = 0;
  for (auto _ : state) {
    const Buffer& wire =
        workload.templates[page_popularity.Sample(rng)];
    dynaprox::dpc::StreamingAssembler assembler(workload.store);
    dynaprox::common::BufferChain out;
    std::string_view bytes(*wire);
    for (size_t at = 0; at < bytes.size(); at += kChunkBytes) {
      if (!assembler.Feed(wire, bytes.substr(at, kChunkBytes), out).ok()) {
        abort();
      }
      holdback_peak =
          std::max<uint64_t>(holdback_peak, assembler.buffered_bytes());
    }
    if (!assembler.Finish(out).ok()) abort();
    benchmark::DoNotOptimize(out);
    copied += assembler.progress().bytes_copied;
    referenced += assembler.progress().bytes_referenced;
    ++pages;
  }
  state.counters["bytes_copied/page"] =
      static_cast<double>(copied) / static_cast<double>(pages);
  state.counters["bytes_referenced/page"] =
      static_cast<double>(referenced) / static_cast<double>(pages);
  state.counters["holdback_peak_bytes"] =
      static_cast<double>(holdback_peak);
  state.SetBytesProcessed(static_cast<int64_t>(copied + referenced));
}

BENCHMARK(BM_AssembleChained);
BENCHMARK(BM_AssembleFlattened);
BENCHMARK(BM_AssembleColdSets);
BENCHMARK(BM_AssembleStreaming);

}  // namespace

BENCHMARK_MAIN();
