#ifndef DYNAPROX_DPC_PROXY_H_
#define DYNAPROX_DPC_PROXY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "bem/protocol.h"
#include "common/access_log.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/result.h"
#include "dpc/assembler.h"
#include "dpc/fragment_store.h"
#include "dpc/stale_cache.h"
#include "dpc/static_cache.h"
#include "net/transport.h"

namespace dynaprox::net {
class ConnectionPool;
class CircuitBreaker;
struct IngressCounters;
}

namespace dynaprox::dpc {

// Optional debug header summarizing assembly on each response. The
// protocol headers shared with the BEM live in bem/protocol.h.
inline constexpr char kDebugHeader[] = "X-DPC";

// Warning header value on degraded (last-known-good) responses, per
// RFC 7234 §5.5.1.
inline constexpr char kStaleWarning[] = "110 dynaprox \"Response is Stale\"";

struct ProxyOptions {
  // Slot count; must equal the BEM's capacity.
  bem::DpcKey capacity = 4096;
  // Retries after a cold-cache GET miss before giving up with 502. With a
  // pooled upstream, a refresh round trip can race a concurrent request
  // whose SET is still in flight and miss again, so allow more than one.
  int max_recovery_attempts = 3;
  // Reject templates larger than this (bytes); 0 = unlimited. A resource
  // guard against a misbehaving origin: each template read — the page's
  // own and every cold-cache refresh's — is counted as its bytes arrive,
  // so the cap answers 502 before the response is committed and aborts
  // the stream after.
  size_t max_template_bytes = 0;
  bool add_debug_header = false;
  // Every response runs one pipeline: the upstream template is pulled
  // chunk by chunk (net::Transport::RoundTripStreaming) through a
  // StreamingAssembler. A response whose declared body length has fully
  // arrived is served whole, with Content-Length; one whose template
  // bytes are still in flight is committed as a chunked
  // Response::body_stream, so assembled head bytes reach the client while
  // the tail arrives. An upstream or template failure before commit still
  // yields a clean 502/degraded response; after commit the connection is
  // aborted (truncated chunked body) instead of sending a
  // complete-looking page.
  //
  // The upstream is net::PooledClientTransport over TCP or
  // net::DirectTransport in process. A body still in flight holds its
  // upstream connection until the rest of it has been read into memory:
  // before a cold-cache X-DPC-Refresh goes out, or at the committed
  // stream's first pull after the bytes sent at commit — so neither a
  // nested round trip nor a slow client waits on it, even in a pool of
  // one.

  // Also cache untagged (static) responses per their Cache-Control, the
  // way ISA Server's ordinary proxy cache did in the paper's testbed.
  bool enable_static_cache = false;
  StaticCacheOptions static_cache;
  // Degrade to last-known-good content when the origin is unavailable
  // (docs/failure-modes.md): keep a bounded cache of the last page served
  // per URL and reply with it (plus "Warning: 110" and "Age") when the
  // upstream fails or the circuit breaker is open; fall back to 503 +
  // Retry-After only when nothing stale exists.
  bool serve_stale = false;
  StalePageCacheOptions stale_cache;
  // Oldest page age servable in degraded mode, from the stale page cache
  // and the static cache alike; 0 = any age.
  MicroTime max_stale_micros = 0;
  // Retry-After seconds on degraded 503 responses.
  int64_t retry_after_seconds = 5;
  // End-to-end deadline budget per client request (common::Deadline),
  // covering the upstream fetch, peer fetches, and every X-DPC-Refresh
  // recovery retry together — stacked per-layer timeouts can no longer
  // add up past it. Checked before each retry; an exhausted budget
  // degrades (stale copy or 503) instead of starting another attempt.
  // When a caller higher in the stack already established a deadline
  // (edge tier, nested proxy hop), the earlier of the two applies.
  // 0 = unlimited.
  MicroTime request_budget_micros = 0;
  // Serve the metrics registry as a JSON status document
  // (docs/observability.md) at status_path instead of forwarding it
  // upstream.
  bool enable_status = false;
  std::string status_path = "/_dynaprox/status";
  // Serve the Prometheus text exposition (docs/observability.md) at
  // metrics_path instead of forwarding it upstream.
  bool enable_metrics = false;
  std::string metrics_path = "/_dynaprox/metrics";
  // Structured JSON access log, one line per proxied request. Not owned;
  // may be null; must outlive the proxy when set.
  AccessLogger* access_log = nullptr;
  // Time source for latency histograms and log timestamps; defaults to
  // SystemClock. Not owned; must outlive the proxy when set.
  const Clock* clock = nullptr;
  // When the upstream transport is pooled, exposes the pool's metrics
  // (docs/upstream-pooling.md)
  // Not owned; may be null; must outlive the proxy when set.
  const net::ConnectionPool* upstream_pool = nullptr;
  // When the origin link is guarded by a net::CircuitBreakerTransport,
  // exposes the breaker's state and counters as metrics. Not owned; may
  // be null; must outlive the proxy when set.
  const net::CircuitBreaker* upstream_breaker = nullptr;
  // When the hosting server enforces net::ServerLimits, exposes its
  // ingress gauges/violation counters as metrics. Not owned; may be null;
  // must outlive the proxy when set.
  const net::IngressCounters* ingress = nullptr;
  // Per-worker ingress mirrors of a multi-worker server (EpollServer with
  // workers > 1): exposes the labeled dynaprox_ingress_worker_*{worker=N}
  // series. The slots sum to the `ingress` totals by construction. Not
  // owned; may be null; must outlive the proxy when set.
  const net::IngressCounters* worker_ingress = nullptr;
  int worker_ingress_count = 0;
  // Standard intermediary behaviour: strip hop-by-hop request headers
  // before forwarding and append Via on both legs. Off by default so the
  // byte-accounting experiments measure exactly the modeled payloads.
  bool proxy_headers = false;
  std::string via_token = "1.1 dynaprox-dpc";
  // Edge-cluster hooks (docs/edge-tier.md). miss_resolver is consulted for
  // each cold-cache GET miss before the refresh round trip to the origin —
  // the cluster wires a peer fetch from the key's ring owner here. The
  // resolver is expected to store what it finds (the assembler re-reads
  // the store); a failure falls back to the refresh.
  std::function<Status(bem::DpcKey)> miss_resolver = nullptr;
  // Fired once a page has been delivered in full, whole or streamed, with
  // the dpcKeys its SETs stored, in template order; the cluster
  // replicates those fragments to their ring owners. Runs on the thread
  // that completes the response — keep it cheap or in-process.
  std::function<void(const std::vector<bem::DpcKey>&)> on_sets = nullptr;
  // Control-channel endpoints (docs/edge-tier.md): accept pushed fragment
  // bodies at push_path (X-DPC-Push-Key/X-DPC-Push-Age headers) and serve
  // owned fragments to ring peers at fragment_path (?key=hex).
  bool enable_push = false;
  std::string push_path = "/_dynaprox/push";
  std::string fragment_path = "/_dynaprox/fragment";
};

struct ProxyStats {
  uint64_t requests = 0;
  uint64_t passthrough = 0;   // Non-template upstream responses.
  uint64_t assembled = 0;     // Successfully assembled pages.
  uint64_t recoveries = 0;    // Cold-cache refresh round-trips.
  uint64_t upstream_errors = 0;
  uint64_t template_errors = 0;
  uint64_t static_hits = 0;           // Served from the static cache.
  uint64_t static_revalidations = 0;  // Served after an upstream 304.
  uint64_t stale_served = 0;       // Degraded: last-known-good page served.
  uint64_t breaker_rejections = 0;  // Fast-failed by the open breaker.
  uint64_t degraded_503s = 0;       // Origin down and nothing stale: 503.
  uint64_t bytes_from_upstream = 0;  // Template/page bytes received.
  uint64_t bytes_to_clients = 0;     // Assembled body bytes sent.
  uint64_t streamed = 0;       // Responses committed to streaming.
  uint64_t stream_aborts = 0;  // Streams aborted after commit.
  uint64_t deadline_exceeded = 0;  // Requests degraded on budget expiry.
  uint64_t peer_fills = 0;      // GET misses filled from a ring peer.
  uint64_t pushes_applied = 0;  // Control-channel pushes stored.
  uint64_t peer_serves = 0;     // Fragment-endpoint serves to ring peers.
};

// The Dynamic Proxy Cache (paper 4.3.3) in reverse-proxy mode: stores
// fragments, scans templates, assembles pages. All cache-management
// decisions are made by the BEM at the origin; the DPC only executes
// SET/GET instructions embedded in responses.
//
// Thread-safe: requests may be served from many connection threads. The
// upstream transport must be safe for concurrent RoundTrip calls (or each
// thread must use its own proxy-to-origin connection). Serving counters
// and latency histograms live in a metrics::Registry of relaxed atomics —
// the hot path takes no stats lock. Every request is tagged with an
// X-DPC-Request-Id (minted here unless the client sent one) that is
// forwarded upstream and echoed to the client, so the DPC's and origin's
// access-log lines join on it (docs/observability.md).
class DpcProxy {
 public:
  // `upstream` carries requests to the origin site and must outlive the
  // proxy.
  DpcProxy(net::Transport* upstream, ProxyOptions options);

  // Serves one client request.
  http::Response Handle(const http::Request& request);

  // Adapter so the proxy can sit behind net::TcpServer / DirectTransport.
  net::Handler AsHandler();

  // Models a DPC crash/restart: all slots empty, directory at the BEM
  // unaware — exercises the miss-recovery path. Also empties the static
  // and stale-page caches.
  void ClearCache() {
    store_.Clear();
    if (static_cache_ != nullptr) static_cache_->Clear();
    if (stale_cache_ != nullptr) stale_cache_->Clear();
  }

  // Stores `body` as a control-channel push (age-accounted; see
  // FragmentStore::SetPushed) and accounts the push metrics. The HTTP push
  // endpoint routes here; in-process clusters may call it directly.
  Status ApplyPush(bem::DpcKey key, FragmentRef body, MicroTime age_micros);

  const FragmentStore& store() const { return store_; }
  // Mutable store access for in-process cluster wiring (peer fills write
  // fetched fragments here); not part of the serving API.
  FragmentStore& mutable_store() { return store_; }
  // Null unless enable_static_cache was set.
  const StaticCache* static_cache() const { return static_cache_.get(); }
  // Null unless serve_stale was set.
  const StalePageCache* stale_cache() const { return stale_cache_.get(); }
  // Snapshot of the serving counters.
  ProxyStats stats() const;
  // Every proxy metric (counters + per-stage latency histograms); what
  // the metrics endpoint renders.
  const metrics::Registry& metrics_registry() const { return registry_; }

 private:
  // Registry-backed handles, resolved once at construction; increments
  // are relaxed-atomic (no lock on the serving path).
  struct Instruments {
    metrics::Counter* requests;
    metrics::Counter* passthrough;
    metrics::Counter* assembled;
    metrics::Counter* recoveries;
    metrics::Counter* upstream_errors;
    metrics::Counter* template_errors;
    metrics::Counter* static_hits;
    metrics::Counter* static_revalidations;
    metrics::Counter* stale_served;
    metrics::Counter* breaker_rejections;
    metrics::Counter* degraded_503s;
    metrics::Counter* bytes_from_upstream;
    metrics::Counter* bytes_to_clients;
    metrics::Counter* body_bytes_copied;
    metrics::Counter* body_bytes_referenced;
    metrics::Counter* streamed;
    metrics::Counter* stream_aborts;
    metrics::Counter* deadline_exceeded;
    // Edge-cluster instruments; registered only when the matching option
    // is set, null otherwise (guard before incrementing).
    metrics::Counter* peer_fills = nullptr;
    metrics::Counter* pushes_applied = nullptr;
    metrics::Counter* push_bytes = nullptr;
    metrics::Counter* peer_serves = nullptr;
    metrics::LatencyHistogram* request_duration;
    metrics::LatencyHistogram* upstream_fetch_duration;
    metrics::LatencyHistogram* scan_duration;
    metrics::LatencyHistogram* splice_duration;
    metrics::LatencyHistogram* ttfb;
  };

  void RegisterMetrics();

  // One proxied request, from arrival to its last body byte. Heap-held so
  // a committed stream can take it over (proxy.cc).
  struct Exchange;
  // What ended an exchange early; decides the clean answer before commit.
  enum class Failure { kNone, kUpstream, kBreaker, kDeadline, kTemplate,
                       kRecovery };
  // A committed response body: pulls the rest of the template through
  // Pump and runs Complete at its end.
  class ServingStream;

  // The pipeline: everything but the local endpoints. Serves early
  // answers (static cache, 304 revalidation, stale), pulls the template
  // until the response is whole or must commit, and at commit moves `x`
  // into the returned response's body stream.
  http::Response Proxy(std::unique_ptr<Exchange>& x,
                       const http::Request& request);
  // One upstream round trip behind the "dpc.upstream" seam, after the
  // deadline check; failures are counted and classified into `x`.
  Result<net::StreamingResponse> Fetch(Exchange& x,
                                       const http::Request& request);
  // Takes the next body chunk (read-ahead bytes first, else Pull) and
  // feeds it to the assembler (a passthrough chunk goes to `out` as is);
  // sets `*done` at end of body. After commit it first Drains.
  Status Pump(Exchange& x, common::BufferChain& out, bool* done);
  // Reads one chunk off the upstream body behind the "dpc.stream.chunk"
  // seam and accounts it (upstream bytes, the template cap); at end of
  // body releases the body, and with it a pooled connection.
  Result<common::BufferChain> Pull(Exchange& x);
  // Reads the rest of the upstream body into memory (`x.rest`).
  Status Drain(Exchange& x);
  // Fails `x` as a template error once `bytes` exceed max_template_bytes.
  Status CapTemplate(Exchange& x, size_t bytes);
  // Inline cold-cache recovery for the GET misses of one assembler call:
  // peer fills first, then X-DPC-Refresh round trips for the keys still
  // missing, executing each refreshed template's SETs into the store.
  Status Recover(Exchange& x, std::vector<bem::DpcKey> missing);
  // Records why `x` failed and counts it; returns `status`.
  Status Fail(Exchange& x, Failure failure, Status status);
  // The clean answer to a failure before commit.
  http::Response Refuse(Exchange& x, const http::Request& request,
                        const Status& failure);
  // The completion step, once per proxied request: for a page delivered
  // in full (`page` non-null) the cache fills, on_sets and serving
  // counters; for every request the TTFB and duration histograms and the
  // access-log line.
  void Complete(Exchange& x, const http::Response* page);
  // The request forwarded upstream: hop-by-hop headers stripped, Via
  // appended (when proxy_headers is on), correlation id set.
  http::Request PrepareUpstream(const http::Request& base,
                                const std::string& request_id) const;
  // Degraded path: last-known-good page (Warning: 110 + Age) if one
  // exists, else 503 + Retry-After (or the legacy 502 when serve-stale is
  // off and the failure wasn't a breaker rejection).
  http::Response ServeDegraded(const http::Request& request,
                               const Status& failure, bool breaker_rejected,
                               const char** outcome);
  // Stale copy of `url` from the page cache or the static cache, marked
  // with Warning/Age; accounts stale_served and client bytes.
  std::optional<http::Response> LookupAnyStale(const std::string& url);
  // Control-channel endpoints (ProxyOptions::enable_push).
  http::Response HandlePush(const http::Request& request);
  http::Response HandleFragment(const http::Request& request);

  net::Transport* upstream_;
  ProxyOptions options_;
  const Clock* clock_;
  FragmentStore store_;
  std::unique_ptr<StaticCache> static_cache_;     // Null when disabled.
  std::unique_ptr<StalePageCache> stale_cache_;   // Null when disabled.
  metrics::Registry registry_;
  Instruments instruments_;
  RequestIdGenerator request_ids_;
};

}  // namespace dynaprox::dpc

#endif  // DYNAPROX_DPC_PROXY_H_
