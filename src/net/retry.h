#ifndef DYNAPROX_NET_RETRY_H_
#define DYNAPROX_NET_RETRY_H_

#include "common/clock.h"

namespace dynaprox::net {

// Attempt-and-backoff parameters shared by the connection pool's dial
// retries and the circuit breaker's cooldown.
struct RetryOptions {
  // Total attempts (first try included). Must be >= 1.
  int max_attempts = 3;
  // Sleep between attempts; doubled each retry (0 disables sleeping).
  MicroTime initial_backoff_micros = 0;
};

}  // namespace dynaprox::net

#endif  // DYNAPROX_NET_RETRY_H_
