#ifndef DYNAPROX_NET_CIRCUIT_BREAKER_H_
#define DYNAPROX_NET_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "net/retry.h"
#include "net/transport.h"

namespace dynaprox::net {

struct CircuitBreakerOptions {
  // Rolling outcome window (count-based): the error rate is computed over
  // the last `window` recorded round trips.
  int window = 32;
  // Never trip on fewer than this many samples in the window — a single
  // failed request after a quiet period is not an outage.
  int min_samples = 8;
  // Open when the window error rate reaches this fraction.
  double error_threshold = 0.5;
  // Cooldown between open and the first half-open probe, reusing the
  // net/retry.h backoff parameters: initial_backoff_micros is the first
  // cooldown, doubled on every consecutive re-open (a failed probe), and
  // capped at initial_backoff_micros << (max_attempts - 1).
  RetryOptions cooldown{/*max_attempts=*/6,
                        /*initial_backoff_micros=*/kMicrosPerSecond};
  // Trial requests admitted concurrently while half-open.
  int half_open_probes = 1;
  // Consecutive successful probes required to close again.
  int close_after = 2;
  // Time source; null uses SystemClock::Default().
  const Clock* clock = nullptr;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

struct CircuitBreakerStats {
  BreakerState state = BreakerState::kClosed;
  uint64_t rejections = 0;  // Allow() == false (fast-failed requests).
  uint64_t opens = 0;       // Transitions into open (trips + failed probes).
  uint64_t closes = 0;      // Half-open windows that ended in recovery.
  uint64_t probes = 0;      // Trial requests admitted while half-open.
  int window_samples = 0;
  double window_error_rate = 0.0;  // Over the current rolling window.
};

// Classic three-state circuit breaker guarding an upstream dependency.
//
// Closed: every request is admitted and its outcome recorded in a rolling
// window; when the window error rate reaches the threshold the breaker
// opens, so a dead origin is detected once instead of paying a dial
// timeout per request. Open: requests are rejected instantly until the
// cooldown elapses. Half-open: a bounded number of probe requests test the
// origin; enough consecutive successes close the breaker, any failure
// re-opens it with a doubled cooldown.
//
// Thread-safe; pair each Allow() == true with exactly one Record().
class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerOptions options = {});

  // True if the request may proceed. While half-open this reserves one of
  // the probe slots; the caller must Record() the outcome either way.
  bool Allow();

  // Reports the outcome of an admitted request. Results that arrive after
  // the breaker opened (in-flight stragglers) are ignored.
  void Record(bool success);

  BreakerState state() const;
  CircuitBreakerStats stats() const;

 private:
  void OpenLocked(MicroTime now);
  double ErrorRateLocked() const;

  const CircuitBreakerOptions options_;
  const Clock* clock_;
  const MicroTime max_cooldown_;

  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::kClosed;
  std::vector<uint8_t> outcomes_;  // Ring buffer; 1 = error.
  size_t next_slot_ = 0;
  int samples_ = 0;
  int errors_ = 0;
  MicroTime opened_at_ = 0;
  MicroTime cooldown_ = 0;
  int consecutive_opens_ = 0;
  int inflight_probes_ = 0;
  int probe_successes_ = 0;
  uint64_t rejections_ = 0;
  uint64_t opens_ = 0;
  uint64_t closes_ = 0;
  uint64_t probes_ = 0;
};

// Message prefix of the Status a breaker-guarded transport returns while
// rejecting, so callers (the DPC's degraded-mode path) can tell a breaker
// fast-fail from a real upstream error.
inline constexpr char kBreakerOpenMessage[] = "circuit breaker open";

inline bool IsBreakerRejection(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition &&
         status.message().rfind(kBreakerOpenMessage, 0) == 0;
}

struct CircuitBreakerTransportOptions {
  CircuitBreakerOptions breaker;
  // Also count HTTP 5xx answers as failures: an origin that dials fine but
  // answers 500s is just as down for the DPC's purposes.
  bool count_http_5xx = true;
};

// Transport decorator gating every round trip through a CircuitBreaker.
// Rejections surface as FailedPrecondition with kBreakerOpenMessage and
// never reach the inner transport (no dial, no timeout).
class CircuitBreakerTransport : public Transport {
 public:
  // `inner` must outlive the decorator.
  CircuitBreakerTransport(Transport* inner,
                          CircuitBreakerTransportOptions options = {});

  // Forwards the inner stream, so the body still streams. Every round
  // trip is judged at its head: a failed round trip, or a 5xx head under
  // count_http_5xx, is a failure; a later mid-body error is not counted.
  Result<StreamingResponse> RoundTripStreaming(
      const http::Request& request) override;

  CircuitBreaker& breaker() { return breaker_; }
  const CircuitBreaker& breaker() const { return breaker_; }

 private:
  // Whether an answer with `status_code` counts as a success.
  bool Healthy(int status_code) const;

  Transport* inner_;
  CircuitBreakerTransportOptions options_;
  CircuitBreaker breaker_;
};

}  // namespace dynaprox::net

#endif  // DYNAPROX_NET_CIRCUIT_BREAKER_H_
