#ifndef DYNAPROX_NET_SERVER_LIMITS_H_
#define DYNAPROX_NET_SERVER_LIMITS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/clock.h"
#include "http/parser.h"
#include "net/transport.h"

namespace dynaprox::metrics {
class Registry;
}

namespace dynaprox::net {

// Ingress accounting shared by TcpServer and EpollServer: connection and
// in-flight gauges plus one counter per limit-violation reason. All fields
// are relaxed atomics — servers bump them on the serving path with no
// lock, the same pattern as the DPC's serving counters. The struct is
// caller-ownable (see ServerLimits::counters) so a tool can create it
// before both the server and the proxy/origin that exports it.
struct IngressCounters {
  // Gauges.
  std::atomic<int64_t> open_connections{0};
  std::atomic<int64_t> inflight_requests{0};
  // Counters, one per admission decision / limit violation.
  std::atomic<uint64_t> accepted_total{0};
  std::atomic<uint64_t> connection_limit_rejections{0};  // Closed at accept.
  std::atomic<uint64_t> shed_503s{0};          // Over max_inflight: 503 sent.
  std::atomic<uint64_t> header_timeouts{0};    // Slowloris disconnects.
  std::atomic<uint64_t> idle_timeouts{0};      // Keep-alive idle reaps.
  std::atomic<uint64_t> write_stall_closes{0};  // Client stopped reading.
  std::atomic<uint64_t> oversize_headers{0};   // 431 sent.
  std::atomic<uint64_t> oversize_bodies{0};    // 413 sent.
  std::atomic<uint64_t> drained_connections{0};  // Finished during drain.
  // Accept hit EMFILE/ENFILE. Counts *episodes* (entries into the
  // exhausted state), not failed accept() calls: during one sustained
  // exhaustion the servers log once and count once, and both re-arm when
  // an accept succeeds again.
  std::atomic<uint64_t> accept_fd_exhaustion_episodes{0};
};

// Ingress-protection configuration shared by both server implementations.
// Every limit defaults to 0 = off, so a default-constructed server
// behaves exactly as before the limits existed.
struct ServerLimits {
  // Concurrent client connections admitted; excess accepts are closed
  // immediately (counted, never served).
  int max_connections = 0;
  // Concurrent requests inside handlers; excess requests are shed with
  // 503 + Retry-After without invoking the handler.
  int max_inflight = 0;
  // Byte caps enforced by the per-connection http::RequestReader: an
  // over-cap header section answers 431, a declared Content-Length over
  // the body cap answers 413 — both before the bytes are buffered.
  size_t max_header_bytes = 0;
  size_t max_body_bytes = 0;
  // Slowloris defense: a connection that has started a request (first
  // byte seen) must deliver the complete request within this budget.
  MicroTime header_timeout_micros = 0;
  // Keep-alive connections idle longer than this are closed.
  MicroTime idle_timeout_micros = 0;
  // A connection whose pending response bytes make no progress for this
  // long (client stopped reading) is closed.
  MicroTime write_stall_micros = 0;
  // Retry-After value on shed 503 responses.
  int64_t retry_after_seconds = 1;
  // Where to account admissions/violations. Not owned; may be null (the
  // server then uses an internal instance, see TcpServer/EpollServer
  // ::ingress()). Must outlive the server when set.
  IngressCounters* counters = nullptr;
  // Optional per-worker mirrors for a multi-worker server: an array of
  // `worker_counter_count` slots, worker i mirroring every bump it makes
  // on `counters` into slot i. Lets a tool allocate the slots before the
  // server exists (metric registration happens at proxy/origin
  // construction) and makes the labeled {worker=...} series sum to the
  // shared totals by construction. Not owned; must outlive the server.
  // EpollServer uses its own slots when unset (see worker_ingress()).
  IngressCounters* worker_counters = nullptr;
  int worker_counter_count = 0;
};

// The one way dynaprox says "try again later": a 503 whose body carries
// `reason` and which always sets Retry-After so clients can back off.
// Every unavailability path funnels here — ingress shed (max_inflight),
// DPC degraded/breaker-open 503s, and the edge tier's all-nodes-down
// 503 — so no caller can forget the header; the call sites stay
// distinguishable via their own counters and access-log outcomes.
http::Response MakeUnavailableResponse(const std::string& reason,
                                       int64_t retry_after_seconds);

// The 503 sent when in-flight admission sheds a request.
http::Response MakeShedResponse(int64_t retry_after_seconds);

// Maps a failed RequestReader to the response that closes the
// conversation: 431 for a header-cap violation, 413 for a body-cap
// violation, 400 otherwise — and bumps the matching counter (mirrored
// into `worker` when set).
http::Response ResponseForReaderError(
    http::RequestReader::LimitViolation violation, const Status& error,
    IngressCounters& counters, IngressCounters* worker = nullptr);

// Runs `handler` under the in-flight admission gate: over
// `limits.max_inflight` concurrent requests, the handler is skipped and a
// shed 503 returned instead. Maintains the inflight_requests gauge; the
// admission decision always reads the shared gauge (the cap is global
// across workers), with `worker` mirroring the bumps when set.
http::Response DispatchAdmitted(const Handler& handler,
                                const http::Request& request,
                                const ServerLimits& limits,
                                IngressCounters& counters,
                                IngressCounters* worker = nullptr);

// Registers the ingress gauges/counters as callback metrics under
// "<prefix>ingress_*" (prefix "dynaprox_" on the DPC, "dynaprox_origin_"
// on the origin). `counters` is sampled at scrape time; not owned.
void RegisterIngressMetrics(metrics::Registry& registry,
                            const std::string& prefix,
                            const IngressCounters* counters);

// Registers per-worker mirrors (see ServerLimits::worker_counters) as
// labeled series "<prefix>ingress_worker_*{worker=\"i\"}" — one series
// per slot under each family, sampled at scrape time. The slot values
// sum to the unlabeled "<prefix>ingress_*" totals. `workers` is an array
// of `count` slots; not owned.
void RegisterWorkerIngressMetrics(metrics::Registry& registry,
                                  const std::string& prefix,
                                  const IngressCounters* workers, int count);

}  // namespace dynaprox::net

#endif  // DYNAPROX_NET_SERVER_LIMITS_H_
