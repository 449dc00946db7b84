#ifndef DYNAPROX_FIREWALL_FIREWALL_H_
#define DYNAPROX_FIREWALL_FIREWALL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dpc/kmp.h"
#include "net/transport.h"

namespace dynaprox::firewall {

// Section 5's scan-cost model. Every byte crossing the firewall is scanned
// at cost y per byte; with the DPC in place the same bytes are scanned a
// second time by the template scanner, and since both scanners are
// linear-time string matchers the paper assumes z ~= y, giving
// scanCost_C = 2 * y * B_C (equations (1) and (2)).
struct ScanCostModel {
  double cost_per_byte = 1.0;  // y.

  double CostNoCache(double bytes_nc) const { return bytes_nc * cost_per_byte; }
  double CostWithCache(double bytes_c) const {
    return 2.0 * bytes_c * cost_per_byte;
  }
  // Percentage savings in scan cost; negative when caching scans more.
  double SavingsPercent(double bytes_nc, double bytes_c) const {
    double nc = CostNoCache(bytes_nc);
    return nc == 0 ? 0.0 : (nc - CostWithCache(bytes_c)) / nc * 100.0;
  }
  // Result 1: the DPC pays off when B_NC > 2 * B_C.
  bool CachePreferable(double bytes_nc, double bytes_c) const {
    return bytes_nc > 2.0 * bytes_c;
  }
};

struct FirewallStats {
  uint64_t messages = 0;
  uint64_t bytes_scanned = 0;
  uint64_t signature_hits = 0;
  uint64_t blocked = 0;
};

// A packet-filtering firewall stand-in: runs every request and response
// body through KMP signature matching (the real linear-time work the model
// charges y per byte for). Requests matching a signature are rejected with
// 403; response matches are counted but passed (IDS-style).
class ScanningFirewall : public net::Transport {
 public:
  // `inner` must outlive the firewall.
  ScanningFirewall(net::Transport* inner, std::vector<std::string> signatures);

  // Reads the response body whole before scanning it, since a signature
  // can straddle chunks, and passes it on as one chunk.
  Result<net::StreamingResponse> RoundTripStreaming(
      const http::Request& request) override;

  const FirewallStats& stats() const { return stats_; }

 private:
  // Scans `data`, updating counters; returns true on any signature match.
  bool Scan(std::string_view data);

  net::Transport* inner_;
  std::vector<dpc::KmpMatcher> matchers_;
  FirewallStats stats_;
};

}  // namespace dynaprox::firewall

#endif  // DYNAPROX_FIREWALL_FIREWALL_H_
