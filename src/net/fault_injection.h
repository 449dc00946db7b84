#ifndef DYNAPROX_NET_FAULT_INJECTION_H_
#define DYNAPROX_NET_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/clock.h"
#include "common/rng.h"
#include "net/transport.h"

namespace dynaprox::net {

// Knobs for FaultInjectingTransport. Probabilities are evaluated per round
// trip in the order error -> black hole -> garbage -> delay; the first one
// that fires wins (delay additionally forwards to the inner transport).
struct FaultInjectionOptions {
  // Fail instantly with IoError ("connection reset"), as a refused dial or
  // an RST mid-request would.
  double error_probability = 0.0;
  // Sleep black_hole_micros, then fail with IoError ("timeout"): the
  // origin accepted the connection and went silent until our deadline.
  double black_hole_probability = 0.0;
  MicroTime black_hole_micros = 5 * kMicrosPerMilli;
  // Answer 200 with corrupt template bytes (kTemplateHeader set, body that
  // no tag codec accepts) — a truncated or scrambled origin response.
  double garbage_probability = 0.0;
  // Sleep delay_micros, then forward normally (a slow but healthy origin).
  double delay_probability = 0.0;
  MicroTime delay_micros = kMicrosPerMilli;
  // Cost of each attempt while the origin is down (see set_down): models
  // the dial timeout a real dead origin charges per connection attempt.
  // 0 fails instantly.
  MicroTime down_failure_delay_micros = 0;
  // Seed for the deterministic decision stream (common/rng.h): identical
  // seeds replay the identical fault sequence.
  uint64_t seed = 1;
};

struct FaultInjectionStats {
  uint64_t passed = 0;  // Reached the inner transport unharmed (or delayed).
  uint64_t injected_errors = 0;
  uint64_t injected_black_holes = 0;
  uint64_t injected_garbage = 0;
  uint64_t injected_delays = 0;
  uint64_t down_failures = 0;  // Attempts that hit the down switch.
};

// Transport decorator that injects origin failures for tests and benches:
// probabilistic faults plus a hard down switch that black-holes every
// round trip (a dead or partitioned origin). Deterministic given the seed
// and a single caller thread; under concurrency the decision stream is
// still drawn from one Rng (mutex-guarded) but interleaving is scheduler-
// dependent. Sleeps happen outside the lock.
class FaultInjectingTransport : public Transport {
 public:
  // `inner` must outlive the decorator.
  FaultInjectingTransport(Transport* inner,
                          FaultInjectionOptions options = {});

  // Draws one fault, then fails, answers garbage, or forwards the inner
  // stream (after a sleep for a delay), so the inner transport keeps its
  // chunk timing.
  Result<StreamingResponse> RoundTripStreaming(
      const http::Request& request) override;

  // Hard outage switch: while down, every round trip fails with IoError
  // after down_failure_delay_micros, without reaching the inner transport.
  void set_down(bool down) { down_.store(down, std::memory_order_relaxed); }
  bool down() const { return down_.load(std::memory_order_relaxed); }

  FaultInjectionStats stats() const;

 private:
  enum class Fault { kNone, kError, kBlackHole, kGarbage, kDelay };

  Fault Draw();
  Fault DrawAndCount();

  Transport* inner_;
  FaultInjectionOptions options_;
  std::atomic<bool> down_{false};
  mutable std::mutex mu_;  // Guards rng_ and stats_.
  Rng rng_;
  FaultInjectionStats stats_;
};

}  // namespace dynaprox::net

#endif  // DYNAPROX_NET_FAULT_INJECTION_H_
