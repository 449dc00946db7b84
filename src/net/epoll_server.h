#ifndef DYNAPROX_NET_EPOLL_SERVER_H_
#define DYNAPROX_NET_EPOLL_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "net/connection_core.h"
#include "net/server_limits.h"
#include "net/transport.h"

namespace dynaprox::net {

// Event-driven (epoll, non-blocking) HTTP server: the nginx-style
// alternative to TcpServer's thread-per-connection model. `num_workers`
// event loops each own an epoll instance and their connections outright,
// so no per-connection locking is needed. When the kernel supports
// SO_REUSEPORT (probed at Start), every worker also gets its *own*
// listening socket bound to the same port, so the kernel shards accepts
// across workers with no shared accept queue; otherwise the workers fall
// back to one shared listener armed with EPOLLEXCLUSIVE (logged once).
//
// The connection lifecycle (parsing, limits, dispatch, flush, drain
// transitions) lives in net::ConnectionCore, shared with TcpServer; the
// worker loop is the non-blocking shell mapping core verdicts onto epoll
// interest sets.
//
// Handlers run inline on the loop's threads. A loop starts with one
// thread and grows only when a handler blocks: connections are registered
// one-shot, so each event hands its connection to exactly one thread
// (which claims every connection of its epoll batch at once, so the
// deadline sweeps and drain of the loop's other threads never close a
// connection whose event it still holds), and
// when every thread of the loop is inside a net::BlockingScope (a pooled
// upstream read, a wait for a pool connection or for a SET in flight)
// the loop adds a thread, up to kMaxThreadsPerLoop. A thread entering a
// scope also hands the unhandled rest of its epoll batch back to the
// loop. So a DpcProxy loop overlaps its upstream waits, while a loop
// whose handlers never block — the origin's page scripts are CPU work —
// keeps exactly one thread: CPU-bound handlers stay serial per loop,
// because running them in parallel on one loop's cores would only make
// them contend (for the BEM directory, for the allocator) and cost more
// CPU per request. Threads are never retired before Stop, so a loop runs
// at most one thread per handler ever blocked at once, plus one, and
// never more than kMaxThreadsPerLoop.
//
// A handler may return a streamed response (Response::body_stream): the
// head goes out chunked immediately and body chunks are pulled and
// flushed as the socket accepts them, with a 256 KiB per-connection
// high-water mark pausing the pull until EPOLLOUT drains the backlog.
// The pull itself runs on the loop's thread, inside a BlockingScope
// whenever it waits on a pooled upstream. A mid-body stream error aborts the
// connection (truncated chunked body), never a complete-looking response.
// Ingress protection (net/server_limits.h) mirrors TcpServer: connection
// cap at accept, in-flight shedding, header/idle/write-stall deadlines,
// request byte caps — all off by default — plus Stop(drain) for a
// graceful shutdown that finishes in-flight work first.
//
// Per-worker accounting: worker i mirrors every IngressCounters bump it
// makes into slot i of ServerLimits::worker_counters (or an internal
// array when unset — see worker_ingress()), so the per-worker slots
// always sum to the shared totals.
class EpollServer {
 public:
  // Most threads one event loop runs (see the class comment): the
  // default upstream pool size (ConnectionPoolOptions::max_connections),
  // so a DPC loop overlaps as many upstream waits as its pool carries.
  // Each added thread gets its own malloc arena, which stays resident;
  // the measured trade against throughput and memory is in
  // docs/threading-model.md.
  static constexpr int kMaxThreadsPerLoop = 8;

  // `port` 0 picks an ephemeral port (see port() after Start()).
  EpollServer(Handler handler, uint16_t port = 0, int num_workers = 1,
              ServerLimits limits = {});
  ~EpollServer();

  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  // Binds, listens on 127.0.0.1, and spawns the worker loops.
  Status Start();

  // Stops all loops, closes all connections, joins every loop thread,
  // added ones included (a thread still inside a handler is joined when
  // its handler returns). Aborts in-flight work. Idempotent.
  void Stop();

  // Graceful drain across all workers: every worker stops accepting
  // (closing its own SO_REUSEPORT listener, or deregistering the shared
  // one), closes idle keep-alive connections, and finishes busy ones
  // (responses carry "Connection: close"). Connections still busy after
  // `drain_timeout_micros` are cut by the final Stop(). Stop(0) == Stop().
  void Stop(MicroTime drain_timeout_micros);

  uint16_t port() const { return port_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Threads the loops run now, all workers together: one per worker plus
  // those added while handlers blocked.
  int thread_count() const;

  // Number of per-worker ingress slots (== the worker count requested at
  // construction; fixed for the server's life).
  int worker_count() const { return requested_workers_; }

  // Worker i's ingress mirror. Slots sum to ingress() for every field.
  const IngressCounters& worker_ingress(int i) const {
    return worker_counters_[i];
  }

  // True after Start() when each worker accepts on its own SO_REUSEPORT
  // listener; false in the single shared-listener fallback.
  bool reuseport_sharded() const { return reuseport_; }

  // Connections accepted over the server's lifetime (all workers).
  uint64_t connections_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

  // Ingress accounting: the ServerLimits::counters the caller supplied,
  // else an internal instance.
  const IngressCounters& ingress() const { return *counters_; }

 private:
  class Worker;

  Handler handler_;
  uint16_t port_;
  int requested_workers_;
  ServerLimits limits_;
  IngressCounters own_counters_;
  IngressCounters* counters_;
  // Per-worker mirrors: ServerLimits::worker_counters when supplied (and
  // large enough), else own_worker_counters_.
  std::unique_ptr<IngressCounters[]> own_worker_counters_;
  IngressCounters* worker_counters_ = nullptr;
  int listen_fd_ = -1;  // Shared fallback listener; -1 when sharded.
  bool reuseport_ = false;
  std::atomic<bool> running_{false};
  // Set by Stop(drain) *before* the per-worker drain events are posted,
  // and read by every ConnectionCore after each handler return — so a
  // drain that begins while a handler runs still closes that connection
  // with its response (and counts it drained), even though the worker
  // loop itself only learns of the drain at its next epoll_wait.
  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> accepted_{0};
  // This server's open connections, distinct from the (possibly shared)
  // IngressCounters gauge; Stop(drain) polls it to detect completion.
  std::atomic<int64_t> live_connections_{0};
  // Set by the first worker that hits EMFILE/ENFILE so one sustained
  // exhaustion is logged (and counted as an episode) once, not once per
  // accept round — and cleared again when any worker accepts
  // successfully, so the *next* outage is reported too.
  std::atomic<bool> accept_fd_exhausted_{false};
  // Shared accept admission (cap, net.accept fault point, gauges); all
  // workers drive the one gate.
  AcceptGate gate_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace dynaprox::net

#endif  // DYNAPROX_NET_EPOLL_SERVER_H_
