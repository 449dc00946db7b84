#ifndef DYNAPROX_NET_TCP_H_
#define DYNAPROX_NET_TCP_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "net/connection_core.h"
#include "net/server_limits.h"
#include "net/transport.h"

namespace dynaprox::net {

// Blocking TCP server with one thread per connection and HTTP/1.1
// keep-alive. Suitable for the examples and integration tests; the
// deterministic simulation uses DirectTransport instead. Its client half
// is net::PooledClientTransport (net/connection_pool.h).
//
// The connection lifecycle (parsing, limits, dispatch, flush, drain
// transitions) lives in net::ConnectionCore, shared with EpollServer;
// this class is the blocking shell — sockets, one thread per
// connection, poll ticks for deadline checks.
//
// Ingress protection (net/server_limits.h): an optional connection cap
// enforced at accept, in-flight request admission (503 + Retry-After
// shedding), header-read/idle/write-stall deadlines, and request byte
// caps (431/413) — all off by default. Stop(drain) drains gracefully:
// accepting stops, in-flight requests finish (answered with
// "Connection: close"), and only connections still busy at the deadline
// are cut.
class TcpServer {
 public:
  // `port` 0 picks an ephemeral port (see port() after Start()).
  TcpServer(Handler handler, uint16_t port = 0, ServerLimits limits = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Binds, listens on 127.0.0.1, and spawns the accept thread.
  Status Start();

  // Stops accepting, closes all connections, joins all threads. Aborts
  // in-flight requests. Idempotent.
  void Stop();

  // Graceful drain: stops accepting, lets in-flight requests and
  // already-buffered pipelined requests finish (responses carry
  // "Connection: close"), then closes. Connections still busy after
  // `drain_timeout_micros` are shut down hard. Stop(0) == Stop().
  void Stop(MicroTime drain_timeout_micros);

  // Bound port; valid after a successful Start().
  uint16_t port() const { return port_; }

  // Ingress accounting: the ServerLimits::counters the caller supplied,
  // else an internal instance.
  const IngressCounters& ingress() const { return *counters_; }

  // Connection-thread handles currently held (live + finished-awaiting-
  // join). Regression hook: finished handles are reaped eagerly on the
  // accept path, so this tracks concurrent connections, not the total ever
  // accepted.
  size_t connection_thread_handles() const;

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  // Joins connection threads that have already deregistered themselves.
  void ReapFinishedThreads();

  Handler handler_;
  uint16_t port_;
  ServerLimits limits_;
  IngressCounters own_counters_;
  IngressCounters* counters_;
  // Shared accept admission (cap, net.accept fault point, gauges).
  AcceptGate gate_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  // This server's open connections. max_connections is enforced against
  // this, never against the (possibly shared) IngressCounters gauge.
  std::atomic<int64_t> live_connections_{0};
  std::thread accept_thread_;
  mutable std::mutex mu_;
  // Live connection threads by id. A thread moves its own handle to
  // finished_threads_ as it exits; the accept loop joins those eagerly,
  // so handles no longer accumulate for the lifetime of the server.
  std::map<std::thread::id, std::thread> connection_threads_;  // By mu_.
  std::vector<std::thread> finished_threads_;                  // By mu_.
  std::vector<int> active_fds_;  // Guarded by mu_; shut down in Stop().
  // EMFILE/ENFILE episode latch for the shared AcceptGate triage.
  std::atomic<bool> fd_exhausted_{false};
};

}  // namespace dynaprox::net

#endif  // DYNAPROX_NET_TCP_H_
