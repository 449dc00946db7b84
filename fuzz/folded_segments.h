// Canonical form of a scanned template, shared by the template fuzz
// harnesses. The scanner flushes a literal at every chunk boundary, so two
// scans of one template are compared with adjacent literals folded and
// empty ones dropped.

#ifndef DYNAPROX_FUZZ_FOLDED_SEGMENTS_H_
#define DYNAPROX_FUZZ_FOLDED_SEGMENTS_H_

#include <string>
#include <vector>

#include "bem/types.h"
#include "dpc/tag_scanner.h"

namespace dynaprox::fuzz {

struct FoldedSegment {
  dpc::StreamSegment::Kind kind;
  bem::DpcKey key;
  std::string text;

  bool operator==(const FoldedSegment&) const = default;
};

inline std::vector<FoldedSegment> Fold(
    const std::vector<dpc::StreamSegment>& segments) {
  using Kind = dpc::StreamSegment::Kind;
  std::vector<FoldedSegment> out;
  for (const dpc::StreamSegment& segment : segments) {
    if (segment.kind != Kind::kLiteral) {
      out.push_back({segment.kind, segment.key, segment.Text()});
    } else if (segment.text_size() == 0) {
      continue;
    } else if (!out.empty() && out.back().kind == Kind::kLiteral) {
      out.back().text += segment.Text();
    } else {
      out.push_back({Kind::kLiteral, bem::kInvalidDpcKey, segment.Text()});
    }
  }
  return out;
}

}  // namespace dynaprox::fuzz

#endif  // DYNAPROX_FUZZ_FOLDED_SEGMENTS_H_
