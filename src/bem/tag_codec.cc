#include "bem/tag_codec.h"

#include <bit>
#include <charconv>
#include <cstring>

namespace dynaprox::bem {

namespace {
constexpr std::string_view kLiteralStx = "\x02L\x03";
constexpr std::string_view kSetEnd = "\x02" "E\x03";

// Appends STX `marker` hex-key ETX, the key in minimal hex, in one append.
void AppendKeyTag(char marker, DpcKey key, std::string& out) {
  char tag[3 + 2 * sizeof(DpcKey)] = {TagCodec::kStx, marker};
  char* end = std::to_chars(tag + 2, std::end(tag), key, 16).ptr;
  *end++ = TagCodec::kEtx;
  out.append(tag, end);
}
}  // namespace

void TagCodec::AppendLiteral(std::string_view text, std::string& out) {
  while (!text.empty()) {
    const char* stx =
        static_cast<const char*>(std::memchr(text.data(), kStx, text.size()));
    if (stx == nullptr) {
      out.append(text);
      return;
    }
    size_t run = static_cast<size_t>(stx - text.data());
    out.append(text.data(), run);
    out.append(kLiteralStx);
    text.remove_prefix(run + 1);
  }
}

void TagCodec::AppendSet(DpcKey key, std::string_view content,
                         std::string& out) {
  AppendKeyTag('S', key, out);
  AppendLiteral(content, out);
  out.append(kSetEnd);
}

void TagCodec::AppendGet(DpcKey key, std::string& out) {
  AppendKeyTag('G', key, out);
}

size_t TagCodec::GetTagSize(DpcKey key) {
  return 3 + (std::bit_width(key | 1) + 3) / 4;  // Key 0 is one digit.
}

}  // namespace dynaprox::bem
