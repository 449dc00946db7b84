// libFuzzer entry point for HTTP request framing: the bytes a hostile
// client can put on the wire, read by the one framing decoder behind
// every RequestReader (with byte caps armed). The oracle is that read
// boundaries never matter: the input fed whole, fed in two parts at its
// midpoint, and (under 256 bytes) fed one byte at a time must yield the
// same accepted messages, the same first error and the same bytes left
// over. The one-shot ParseRequest must return ok or a clean error.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "http/parser.h"

namespace {

using dynaprox::http::Request;
using dynaprox::http::RequestReader;
using Violation = RequestReader::LimitViolation;

struct Outcome {
  std::vector<Request> messages;
  std::optional<dynaprox::Status> error;
  Violation violation = Violation::kNone;
  size_t left_over = 0;
};

Outcome Read(const std::vector<std::string_view>& parts) {
  RequestReader reader;
  reader.set_limits({/*max_header_bytes=*/4096, /*max_body_bytes=*/16384});
  Outcome outcome;
  for (std::string_view part : parts) {
    reader.Feed(part);
    while (auto next = reader.Next()) {
      if (!next->ok()) {
        outcome.error = next->status();
        outcome.violation = reader.limit_violation();
        return outcome;
      }
      outcome.messages.push_back(std::move(**next));
    }
  }
  outcome.left_over = reader.buffered_bytes();
  return outcome;
}

bool Same(const Request& a, const Request& b) {
  return a.method == b.method && a.target == b.target &&
         a.version == b.version && a.headers.fields() == b.headers.fields() &&
         a.body == b.body;
}

bool Same(const Outcome& a, const Outcome& b) {
  if (a.messages.size() != b.messages.size()) return false;
  for (size_t i = 0; i < a.messages.size(); ++i) {
    if (!Same(a.messages[i], b.messages[i])) return false;
  }
  if (a.error.has_value() != b.error.has_value()) return false;
  if (a.error.has_value() && (a.error->code() != b.error->code() ||
                              a.error->message() != b.error->message())) {
    return false;
  }
  return a.violation == b.violation && a.left_over == b.left_over;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view wire(reinterpret_cast<const char*>(data), size);

  (void)dynaprox::http::ParseRequest(wire);

  Outcome whole = Read({wire});
  size_t split = size / 2;
  if (!Same(whole, Read({wire.substr(0, split), wire.substr(split)}))) {
    __builtin_trap();
  }
  if (size < 256) {
    std::vector<std::string_view> bytes;
    for (size_t i = 0; i < size; ++i) bytes.push_back(wire.substr(i, 1));
    if (!Same(whole, Read(bytes))) __builtin_trap();
  }
  return 0;
}
