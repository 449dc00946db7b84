#ifndef DYNAPROX_APPSERVER_ORIGIN_SERVER_H_
#define DYNAPROX_APPSERVER_ORIGIN_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "appserver/script_context.h"
#include "appserver/script_registry.h"
#include "bem/monitor.h"
#include "common/access_log.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/result.h"
#include "http/message.h"
#include "net/transport.h"
#include "storage/table.h"

namespace dynaprox::net {
struct IngressCounters;
}

namespace dynaprox::appserver {

class PushEngine;

struct OriginOptions {
  // Pads response headers (with an "X-Pad" field) up to this serialized
  // head size in bytes; 0 disables. Used by the sim to realize the paper's
  // header-size parameter f (Table 2: f = 500).
  size_t pad_headers_to_bytes = 0;
  // Serve the metrics registry as a JSON status document
  // (docs/observability.md) at status_path.
  bool enable_status = false;
  std::string status_path = "/_dynaprox/status";
  // Serve the Prometheus text exposition (docs/observability.md) at
  // metrics_path.
  bool enable_metrics = false;
  std::string metrics_path = "/_dynaprox/metrics";
  // Structured JSON access log, one line per request. Not owned; may be
  // null; must outlive the server when set.
  AccessLogger* access_log = nullptr;
  // Time source for latency histograms and log timestamps; defaults to
  // SystemClock. Not owned; must outlive the server when set.
  const Clock* clock = nullptr;
  // When the hosting server enforces net::ServerLimits, exposes its
  // ingress gauges/violation counters as metrics. Not owned; may be null;
  // must outlive the server when set.
  const net::IngressCounters* ingress = nullptr;
  // Per-worker ingress mirrors of a multi-worker server (EpollServer with
  // workers > 1): exposes the labeled
  // dynaprox_origin_ingress_worker_*{worker=N} series. The slots sum to
  // the `ingress` totals by construction. Not owned; may be null; must
  // outlive the server when set.
  const net::IngressCounters* worker_ingress = nullptr;
  int worker_ingress_count = 0;
  // Block-execution pool: > 0 runs independent cacheable-block miss
  // generators of one page concurrently on this many workers (requires a
  // BEM; ignored in baseline mode). 0 keeps the sequential path.
  // docs/threading-model.md describes the execution model.
  int block_workers = 0;
  // Bounded depth of the block pool's task queue; overflow degrades to
  // caller-runs (sequential) execution, never blocking or dropping.
  size_t block_queue_capacity = 256;
  // Push-based refresh engine for the edge control channel
  // (docs/edge-tier.md). Not owned; may be null (pull-only operation);
  // must outlive the server when set. The caller attaches it to the BEM
  // observer and calls engine->AttachOrigin(server) after construction.
  // Every render records its fragment→request mapping here, and the
  // push metrics appear when set. Requires a BEM.
  PushEngine* push_engine = nullptr;
};

struct OriginStats {
  uint64_t requests = 0;
  uint64_t not_found = 0;
  uint64_t script_errors = 0;
  uint64_t refresh_invalidations = 0;  // DPC cold-cache recovery keys.
  uint64_t fragment_hits = 0;
  uint64_t fragment_misses = 0;
  uint64_t fragment_uncacheable = 0;
  uint64_t parallel_blocks = 0;  // Miss generators dispatched to the pool.
  uint64_t body_bytes_sent = 0;
};

// The origin web/application server: dispatches requests to dynamic
// scripts and, when a BEM is attached, serves templates for the DPC to
// assemble. Without a BEM it serves complete pages — the no-cache baseline.
//
// Thread-safe given its collaborators' guarantees: the registry must not
// be mutated while serving; repository and monitor are internally
// synchronized; scripts must only touch request-local state or
// thread-safe services. Serving counters and the BEM-stage latency
// histograms live in a metrics::Registry of relaxed atomics — the serving
// path takes no stats lock. When a request arrives with an
// X-DPC-Request-Id header (set by the DPC), the access-log line carries
// that id so it joins the proxy's line (docs/observability.md).
class OriginServer {
 public:
  // `registry` and `repository` must outlive the server; `monitor` may be
  // null (baseline mode).
  OriginServer(const ScriptRegistry* registry,
               storage::ContentRepository* repository,
               bem::BackEndMonitor* monitor, OriginOptions options = {});

  http::Response Handle(const http::Request& request);

  // Push-engine re-render: dispatches `request` with a fragment capture
  // attached so `captured` receives every (canonical, key, body) the
  // render registered, and discards the response. Bypasses the local
  // status/metrics endpoints and the request counter — control-channel
  // work is not client traffic.
  void HandleCapture(const http::Request& request,
                     std::vector<CapturedFragment>* captured);

  // Adapter for net::TcpServer / net::DirectTransport.
  net::Handler AsHandler();

  // Snapshot of the serving counters.
  OriginStats stats() const;
  bool caching_enabled() const { return monitor_ != nullptr; }
  // The block-execution pool, or null when block_workers == 0 / no BEM.
  common::ThreadPool* block_pool() { return block_pool_.get(); }
  // Every origin metric (counters + BEM-stage latency histograms); what
  // the metrics endpoint renders.
  const metrics::Registry& metrics_registry() const { return registry_mx_; }

 private:
  // Registry-backed handles, resolved once at construction.
  struct Instruments {
    metrics::Counter* requests;
    metrics::Counter* not_found;
    metrics::Counter* script_errors;
    metrics::Counter* refresh_invalidations;
    metrics::Counter* fragment_hits;
    metrics::Counter* fragment_misses;
    metrics::Counter* fragment_uncacheable;
    metrics::Counter* parallel_blocks;
    metrics::Counter* body_bytes_sent;
    metrics::LatencyHistogram* request_duration;
  };

  void RegisterMetrics();
  // The dispatch path proper (everything except the local status/metrics
  // endpoints); `outcome` receives the serving decision for the access
  // log.
  http::Response HandleDispatch(const http::Request& request,
                                const char** outcome,
                                std::vector<CapturedFragment>* capture =
                                    nullptr);
  void ApplyHeaderPadding(http::Response& response) const;
  // Applies X-DPC-Refresh invalidations and returns the canonical ids of
  // the fragments refreshed, to be force-missed in the re-render.
  std::vector<std::string> HandleRefreshHeader(const http::Request& request);
  // The registry as JSON, plus a sample of directory entries.
  http::Response RenderStatus() const;

  const ScriptRegistry* registry_;
  storage::ContentRepository* repository_;
  bem::BackEndMonitor* monitor_;
  OriginOptions options_;
  const Clock* clock_;
  std::unique_ptr<common::ThreadPool> block_pool_;  // Null: sequential.
  metrics::Registry registry_mx_;
  Instruments instruments_;
  ScriptMetrics script_metrics_;  // Shared by every request's context.
};

}  // namespace dynaprox::appserver

#endif  // DYNAPROX_APPSERVER_ORIGIN_SERVER_H_
