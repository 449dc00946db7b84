#include "firewall/firewall.h"

namespace dynaprox::firewall {

ScanningFirewall::ScanningFirewall(net::Transport* inner,
                                   std::vector<std::string> signatures)
    : inner_(inner) {
  matchers_.reserve(signatures.size());
  for (std::string& signature : signatures) {
    matchers_.emplace_back(std::move(signature));
  }
}

bool ScanningFirewall::Scan(std::string_view data) {
  ++stats_.messages;
  stats_.bytes_scanned += data.size();
  bool matched = false;
  for (const dpc::KmpMatcher& matcher : matchers_) {
    size_t count = matcher.CountOccurrences(data);
    stats_.signature_hits += count;
    matched = matched || count > 0;
  }
  return matched;
}

Result<net::StreamingResponse> ScanningFirewall::RoundTripStreaming(
    const http::Request& request) {
  if (Scan(request.Serialize())) {
    ++stats_.blocked;
    return net::StreamWhole(http::Response::MakeError(
        403, "Forbidden", "request blocked by firewall policy"));
  }
  Result<net::StreamingResponse> streaming =
      inner_->RoundTripStreaming(request);
  if (!streaming.ok()) return streaming.status();
  Result<http::Response> response = net::DrainWhole(std::move(*streaming));
  if (!response.ok()) return response.status();
  Scan(response->body);
  return net::StreamWhole(std::move(*response));
}

}  // namespace dynaprox::firewall
