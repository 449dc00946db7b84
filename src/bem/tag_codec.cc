#include "bem/tag_codec.h"

#include <cstring>

#include "common/strings.h"

namespace dynaprox::bem {

namespace {
constexpr std::string_view kLiteralStx = "\x02L\x03";
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
  out += kStx;
  out += 'S';
  out += ToHex(key);
  out += kEtx;
  AppendLiteral(content, out);
  out += kStx;
  out += 'E';
  out += kEtx;
}

void TagCodec::AppendGet(DpcKey key, std::string& out) {
  out += kStx;
  out += 'G';
  out += ToHex(key);
  out += kEtx;
}

size_t TagCodec::GetTagSize(DpcKey key) { return 3 + ToHex(key).size(); }

size_t TagCodec::SetFramingSize(DpcKey key) {
  return GetTagSize(key) + 3;  // set-open plus the 3-byte set-close.
}

}  // namespace dynaprox::bem
