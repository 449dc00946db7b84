// Ablation: template-scanning cost (google-benchmark). The paper's Result 1
// hinges on scan cost being linear and comparable to firewall scanning
// (z ~= y). This bench measures the DPC's scanner throughput with both
// marker-search strategies, plus KMP signature matching as the firewall
// stand-in, on realistic templates.

#include <string>

#include <benchmark/benchmark.h>

#include "bem/tag_codec.h"
#include "common/buffer_chain.h"
#include "dpc/assembler.h"
#include "dpc/fragment_store.h"
#include "dpc/kmp.h"
#include "dpc/tag_scanner.h"

namespace {

using dynaprox::bem::TagCodec;
using dynaprox::common::Buffer;
using dynaprox::common::MakeBuffer;
using dynaprox::dpc::KmpMatcher;
using dynaprox::dpc::ParseTemplate;
using dynaprox::dpc::ScanStrategy;

// Builds a template with `fragments` GET tags separated by literal runs of
// `literal_bytes` bytes (a "hot" steady-state template).
std::string MakeGetTemplate(int fragments, int literal_bytes) {
  std::string wire;
  std::string filler(literal_bytes, 'x');
  for (int i = 0; i < fragments; ++i) {
    TagCodec::AppendLiteral(filler, wire);
    TagCodec::AppendGet(static_cast<dynaprox::bem::DpcKey>(i), wire);
  }
  TagCodec::AppendLiteral(filler, wire);
  return wire;
}

// A cold template: fragments inlined in SET blocks.
std::string MakeSetTemplate(int fragments, int fragment_bytes) {
  std::string wire;
  std::string body(fragment_bytes, 'y');
  for (int i = 0; i < fragments; ++i) {
    TagCodec::AppendSet(static_cast<dynaprox::bem::DpcKey>(i), body, wire);
  }
  return wire;
}

void BM_ScanGetTemplate(benchmark::State& state, ScanStrategy strategy) {
  Buffer wire =
      MakeBuffer(MakeGetTemplate(static_cast<int>(state.range(0)), 500));
  for (auto _ : state) {
    auto segments = ParseTemplate(wire, strategy);
    benchmark::DoNotOptimize(segments);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wire->size()));
}

void BM_ScanSetTemplate(benchmark::State& state, ScanStrategy strategy) {
  Buffer wire =
      MakeBuffer(MakeSetTemplate(static_cast<int>(state.range(0)), 1000));
  for (auto _ : state) {
    auto segments = ParseTemplate(wire, strategy);
    benchmark::DoNotOptimize(segments);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wire->size()));
}

void BM_FirewallKmpScan(benchmark::State& state) {
  // Signature scanning over a full page, the firewall's y-per-byte work.
  std::string page = MakeGetTemplate(static_cast<int>(state.range(0)), 500);
  KmpMatcher matcher("attack-signature-not-present");
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.CountOccurrences(page));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page.size()));
}

void BM_AssembleHotPage(benchmark::State& state) {
  int fragments = static_cast<int>(state.range(0));
  dynaprox::dpc::FragmentStore store(
      static_cast<dynaprox::bem::DpcKey>(fragments));
  std::string content(1000, 'f');
  for (int i = 0; i < fragments; ++i) {
    (void)store.Set(static_cast<dynaprox::bem::DpcKey>(i), content);
  }
  std::string wire = MakeGetTemplate(fragments, 100);
  for (auto _ : state) {
    auto page = dynaprox::dpc::AssemblePage(wire, store);
    benchmark::DoNotOptimize(page);
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_ScanGetTemplate, memchr, ScanStrategy::kMemchr)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_ScanGetTemplate, byteloop, ScanStrategy::kByteLoop)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_ScanSetTemplate, memchr, ScanStrategy::kMemchr)
    ->Arg(4)
    ->Arg(16);
BENCHMARK_CAPTURE(BM_ScanSetTemplate, byteloop, ScanStrategy::kByteLoop)
    ->Arg(4)
    ->Arg(16);
BENCHMARK(BM_FirewallKmpScan)->Arg(4)->Arg(64);
BENCHMARK(BM_AssembleHotPage)->Arg(4)->Arg(64);

BENCHMARK_MAIN();
