// libFuzzer entry point for the BEM template grammar: the bytes a
// compromised origin can send where SET/GET tags are expected. The scanner
// must never crash, and both scan strategies must decode the same
// segments: the ablation strategy is an implementation detail.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/buffer_chain.h"
#include "dpc/tag_scanner.h"
#include "folded_segments.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using dynaprox::dpc::ParseTemplate;
  using dynaprox::dpc::ScanStrategy;
  dynaprox::common::Buffer wire = dynaprox::common::MakeBuffer(
      std::string(reinterpret_cast<const char*>(data), size));
  auto memchr_parse = ParseTemplate(wire, ScanStrategy::kMemchr);
  auto loop_parse = ParseTemplate(wire, ScanStrategy::kByteLoop);
  if (memchr_parse.ok() != loop_parse.ok()) __builtin_trap();
  if (!memchr_parse.ok()) return 0;
  if (dynaprox::fuzz::Fold(*memchr_parse) !=
      dynaprox::fuzz::Fold(*loop_parse)) {
    __builtin_trap();
  }
  return 0;
}
