// libFuzzer entry point for HTTP response framing: the bytes an origin
// (or anything posing as one) sends the DPC's upstream reader. The
// oracle: a StreamingResponseReader fed in two parts at the input's
// midpoint must agree with the whole-wire ParseResponse — the same head,
// the same joined body, and excess_bytes() exactly the trailing bytes
// ParseResponse refuses. A response it fails or leaves incomplete must
// fail ParseResponse too.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "http/parser.h"

using dynaprox::Result;
using dynaprox::http::ParseResponse;
using dynaprox::http::Response;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view wire(reinterpret_cast<const char*>(data), size);
  Result<Response> whole = ParseResponse(wire);

  dynaprox::http::StreamingResponseReader reader;
  std::optional<Result<Response>> head;
  std::string body;
  const size_t split = size / 2;
  for (std::string_view part : {wire.substr(0, split), wire.substr(split)}) {
    reader.Feed(part);
    if (!head.has_value()) head = reader.NextHead();
    if (head.has_value() && head->ok()) body += reader.TakeBody();
  }
  if (!head.has_value() || !head->ok() || reader.failed() ||
      !reader.body_complete()) {
    if (whole.ok()) __builtin_trap();
    return 0;
  }

  // Complete: the bytes up to the end of the body are one message, and
  // any past it make the whole wire unacceptable.
  const size_t excess = reader.excess_bytes();
  if (excess != 0 && whole.ok()) __builtin_trap();
  Result<Response> message = excess == 0
                                 ? std::move(whole)
                                 : ParseResponse(wire.substr(0, size - excess));
  if (!message.ok()) __builtin_trap();
  Response streamed = std::move(**head);
  dynaprox::http::Dechunk(streamed.headers, body.size());
  if (streamed.status_code != message->status_code ||
      streamed.reason != message->reason ||
      streamed.version != message->version ||
      streamed.headers.fields() != message->headers.fields() ||
      body != message->body) {
    __builtin_trap();
  }
  return 0;
}
