#ifndef DYNAPROX_NET_CONNECTION_POOL_H_
#define DYNAPROX_NET_CONNECTION_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/result.h"
#include "net/retry.h"
#include "net/transport.h"

namespace dynaprox::net {

struct ConnectionPoolOptions {
  // Upper bound on simultaneously open upstream connections.
  int max_connections = 8;
  // Per-operation socket send/receive timeout on pooled connections;
  // 0 blocks indefinitely.
  MicroTime io_timeout_micros = 0;
  // How long Checkout() may block waiting for a connection to free up
  // before failing with IoError; 0 fails as soon as the pool is saturated.
  MicroTime checkout_timeout_micros = 5 * kMicrosPerSecond;
  // Checkouts already waiting beyond which new ones are rejected
  // immediately (bounded waiter queue).
  int max_waiters = 64;
  // Idle connections unused for longer than this are closed at the next
  // pool scan (every checkout, or an explicit ReapIdle); 0 keeps them
  // forever.
  MicroTime idle_timeout_micros = 30 * kMicrosPerSecond;
  // Dial retry/backoff, reusing the net/retry.h policy parameters:
  // max_attempts total connect attempts, backoff doubling between them.
  RetryOptions connect_retry{/*max_attempts=*/2,
                             /*initial_backoff_micros=*/5 * kMicrosPerMilli};
  // Time source for idle deadlines and wait measurement; null uses
  // SystemClock::Default().
  const Clock* clock = nullptr;
};

// Pool behaviour counters plus point-in-time gauges (filled at stats()).
struct PoolStats {
  int open_connections = 0;  // Checked out + idle (gauge).
  int idle_connections = 0;  // Parked in the free list (gauge).
  int wait_queue_depth = 0;  // Checkouts currently blocked (gauge).
  uint64_t checkouts = 0;    // Successful checkouts.
  uint64_t connects = 0;     // Successful dials (first connects included).
  uint64_t reconnects = 0;   // Dials replacing a dead keep-alive conn.
  uint64_t stale_closed = 0;  // Idle connections found dead at checkout.
  uint64_t idle_reaped = 0;   // Idle connections closed past the deadline.
  uint64_t waiter_timeouts = 0;    // Checkouts that gave up waiting.
  uint64_t waiter_rejections = 0;  // Rejected by the waiter bound.
  uint64_t connect_failures = 0;   // Dials that exhausted their retries.
  // Wait of the checkouts that blocked, in microseconds, in fixed buckets
  // (the default seconds layout x 10^6): bounded however long the pool
  // runs saturated.
  metrics::LatencyHistogram::Snapshot wait_micros;
};

// Keep-alive connection pool to one upstream host:port. Checkout() hands
// out a live connection — reusing an idle one (dead idle connections are
// detected with a zero-byte peek and replaced), dialing a new one while
// under max_connections, or waiting (bounded queue, deadline) for a
// checkin. All members are thread-safe; the returned fd is owned by the
// caller until Checkin().
class ConnectionPool {
 public:
  struct Connection {
    int fd = -1;
    // True when the connection was dialed for this checkout and has never
    // carried a request: a failure on it is a hard error, not the usual
    // stale-keep-alive signal that justifies a retry.
    bool fresh = true;
  };

  ConnectionPool(std::string host, uint16_t port,
                 ConnectionPoolOptions options = {});
  // Closes idle connections. Connections still checked out must be
  // returned (or closed by their holder) before destruction.
  ~ConnectionPool();

  ConnectionPool(const ConnectionPool&) = delete;
  ConnectionPool& operator=(const ConnectionPool&) = delete;

  Result<Connection> Checkout();

  // Returns a connection to the pool. `reusable` false closes it — use
  // after any failure that leaves the HTTP framing state unknown.
  void Checkin(Connection conn, bool reusable);

  // Closes idle connections past the idle deadline; returns the count.
  // Checkout() does this opportunistically; exposed for tests and
  // periodic maintenance.
  int ReapIdle();

  PoolStats stats() const;

 private:
  struct IdleConn {
    int fd;
    MicroTime idle_since;
  };

  // Dials with the connect_retry backoff policy. Called without mu_ held.
  Result<int> Dial();
  int ReapIdleLocked(MicroTime now);

  const std::string host_;
  const uint16_t port_;
  const ConnectionPoolOptions options_;
  const Clock* clock_;

  mutable std::mutex mu_;
  std::condition_variable available_;
  // LIFO free list: back is most recently used (kept warm), front goes
  // cold and is reaped first.
  std::vector<IdleConn> idle_;
  int open_ = 0;     // Checked out + idle + mid-dial slots.
  int waiters_ = 0;  // Checkouts blocked in the wait queue.
  PoolStats counters_;  // Gauge fields and wait_micros unused; see stats().
  metrics::LatencyHistogram wait_micros_;
};

struct PooledTransportOptions {
  ConnectionPoolOptions pool;
  // Request headers whose presence marks a request non-idempotent for
  // retry purposes (e.g. bem::kRefreshHeader, which triggers
  // invalidations at the origin). See net/idempotency.h.
  std::vector<std::string> non_idempotent_headers;
};

// The HTTP client: each round trip runs on a pooled keep-alive
// connection, so concurrent round trips proceed in parallel up to the pool
// bound (max_connections = 1 serializes them on one socket).
//
// RoundTripStreaming is the one send/retry/head-read loop; RoundTrip pulls
// its body to the end (DrainWhole). One reuse rule therefore holds on
// both: a connection goes back to the pool only after a whole response
// that neither announced "Connection: close" nor arrived with bytes past
// its end, and an idle connection that shows EOF or unsolicited bytes at
// checkout is replaced. A failure before the response head on a reused
// keep-alive connection is retried once on a fresh connection when
// SafeToRetry allows it; a failure on a freshly dialed connection is
// never retried.
//
// RoundTripStreaming keeps its pooled connection checked out until the
// BodyStream is drained (checked back in per the rule above) or destroyed
// early (closed — the framing state is unknown). Other round trips proceed
// on other pool slots meanwhile, so a streaming consumer may issue nested
// round trips (e.g. DpcProxy miss recovery) on the same transport.
class PooledClientTransport : public Transport {
 public:
  PooledClientTransport(std::string host, uint16_t port,
                        PooledTransportOptions options = {});

  Result<StreamingResponse> RoundTripStreaming(
      const http::Request& request) override;

  ConnectionPool& pool() { return pool_; }
  const ConnectionPool& pool() const { return pool_; }

 private:
  class StreamingBody;

  PooledTransportOptions options_;
  ConnectionPool pool_;
};

}  // namespace dynaprox::net

#endif  // DYNAPROX_NET_CONNECTION_POOL_H_
