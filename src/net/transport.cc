#include "net/transport.h"

namespace dynaprox::net {

Result<http::Response> Transport::RoundTrip(const http::Request& request) {
  Result<StreamingResponse> streaming = RoundTripStreaming(request);
  if (!streaming.ok()) return streaming.status();
  return DrainWhole(std::move(*streaming));
}

}  // namespace dynaprox::net
