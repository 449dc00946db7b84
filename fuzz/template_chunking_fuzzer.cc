// libFuzzer entry point for the streaming scanner's chunk-boundary state
// machine. Two oracles:
//  - any template, sliced at any byte boundaries, must scan like the same
//    template fed whole: same accept/reject, same segment stream (adjacent
//    literals folded);
//  - decode -> encode -> decode: an accepted template's segments,
//    re-encoded with bem::TagCodec, must scan back to the same segments.
// The first bytes of the input seed the chunk sizes, so coverage-guided
// fuzzing explores boundary placements as well as template bytes.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bem/tag_codec.h"
#include "common/buffer_chain.h"
#include "dpc/tag_scanner.h"
#include "folded_segments.h"

namespace {

using dynaprox::bem::TagCodec;
using dynaprox::dpc::ParseTemplate;
using dynaprox::dpc::StreamingScanner;
using dynaprox::dpc::StreamSegment;
using dynaprox::fuzz::Fold;
using dynaprox::fuzz::FoldedSegment;
using Kind = StreamSegment::Kind;

std::string Encode(const std::vector<FoldedSegment>& segments) {
  std::string wire;
  for (const FoldedSegment& segment : segments) {
    switch (segment.kind) {
      case Kind::kLiteral:
        TagCodec::AppendLiteral(segment.text, wire);
        break;
      case Kind::kSet:
        TagCodec::AppendSet(segment.key, segment.text, wire);
        break;
      case Kind::kGet:
        TagCodec::AppendGet(segment.key, wire);
        break;
    }
  }
  return wire;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // First byte (when present) seeds the chunk-size sequence; the rest is
  // the template.
  uint32_t seed = size > 0 ? data[0] : 0;
  std::string_view wire(reinterpret_cast<const char*>(data) + (size > 0),
                        size - (size > 0));

  auto whole = ParseTemplate(wire);

  StreamingScanner scanner;
  std::vector<StreamSegment> streamed;
  dynaprox::Status status = dynaprox::Status::Ok();
  uint32_t state = seed * 2654435761u + 1;
  for (size_t at = 0; at < wire.size() && status.ok();) {
    state = state * 1664525u + 1013904223u;  // LCG: deterministic sizes.
    size_t take = 1 + state % 7;
    if (take > wire.size() - at) take = wire.size() - at;
    status = scanner.Feed(
        dynaprox::common::MakeBuffer(std::string(wire.substr(at, take))),
        streamed);
    at += take;
  }
  if (status.ok()) status = scanner.Finish(streamed);

  // Accept/reject must agree regardless of chunk placement.
  if (whole.ok() != status.ok()) __builtin_trap();
  if (!whole.ok()) return 0;

  std::vector<FoldedSegment> decoded = Fold(*whole);
  if (decoded != Fold(streamed)) __builtin_trap();

  auto reencoded = ParseTemplate(Encode(decoded));
  if (!reencoded.ok() || Fold(*reencoded) != decoded) __builtin_trap();
  return 0;
}
