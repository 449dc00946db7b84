#include "dpc/proxy.h"

#include "common/deadline.h"
#include "common/fault_point.h"
#include "common/logging.h"
#include "common/strings.h"
#include "net/circuit_breaker.h"
#include "net/connection_pool.h"
#include "net/server_limits.h"

namespace dynaprox::dpc {
namespace {

// Hop-by-hop fields (RFC 7230 §6.1) must not travel past an intermediary.
constexpr const char* kHopByHopHeaders[] = {
    "Connection", "Keep-Alive", "Proxy-Connection", "TE",
    "Trailer",    "Upgrade",
};

void StripHopByHop(http::HeaderMap& headers) {
  // The Connection field also nominates additional hop-by-hop headers
  // (RFC 7230 §6.1): strip those before the standard set (which removes
  // Connection itself). Without this a "Connection: X-Internal-Secret"
  // hop could leak X-Internal-Secret past the proxy.
  if (auto connection = headers.Get("Connection"); connection.has_value()) {
    const std::string nominated(*connection);  // Outlive the removals.
    for (std::string_view token : StrSplit(nominated, ',')) {
      token = StripWhitespace(token);
      if (!token.empty()) headers.Remove(token);
    }
  }
  for (const char* name : kHopByHopHeaders) headers.Remove(name);
}

void AppendVia(http::HeaderMap& headers, const std::string& token) {
  if (auto existing = headers.Get("Via"); existing.has_value()) {
    headers.Set("Via", std::string(*existing) + ", " + token);
  } else {
    headers.Add("Via", token);
  }
}

double MicrosToSeconds(MicroTime micros) {
  return static_cast<double>(micros) / kMicrosPerSecond;
}

// Upstream round trip behind the "dpc.upstream" fault point. Error-class
// actions fail the fetch before it leaves the proxy; garbage delivers an
// unparseable template body (the same detectable shape
// net::FaultInjectingTransport produces), which must surface as a clean
// 502 — never as client bytes.
Result<net::StreamingResponse> ChaosRoundTrip(net::Transport* upstream,
                                              const http::Request& request) {
  chaos::FaultDecision fault = chaos::ApplyDelay(
      DYNAPROX_FAULT_POINT("dpc.upstream")->Evaluate());
  switch (fault.action) {
    case chaos::FaultAction::kNone:
    case chaos::FaultAction::kDelayMs:
      return upstream->RoundTripStreaming(request);
    case chaos::FaultAction::kGarbage: {
      http::Response garbage =
          http::Response::MakeOk("\x02\x7f chaos garbage \x03");
      garbage.headers.Set(bem::kTemplateHeader, "1");
      return net::StreamWhole(std::move(garbage));
    }
    default:
      return Status::Unavailable(
          std::string("chaos:dpc.upstream injected ") +
          chaos::FaultActionName(fault.action));
  }
}

// The body length a response head declares, if any.
std::optional<size_t> DeclaredLength(const http::Response& head) {
  std::optional<std::string_view> length = head.headers.Get("Content-Length");
  if (!length.has_value()) return std::nullopt;
  Result<uint64_t> parsed = ParseUint64(*length);
  if (!parsed.ok()) return std::nullopt;
  return static_cast<size_t>(*parsed);
}

std::string HexList(const std::vector<bem::DpcKey>& keys) {
  std::string list;
  for (bem::DpcKey key : keys) {
    if (!list.empty()) list += ',';
    list += ToHex(key);
  }
  return list;
}

}  // namespace

struct DpcProxy::Exchange {
  Exchange() = default;
  // The assembler's miss resolver holds this object's address.
  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  std::string request_id;
  MicroTime start = 0;
  // The request as forwarded upstream; refresh round trips derive from it.
  http::Request upstream_request;
  const char* outcome = "error";  // The access-log outcome.
  Failure failure = Failure::kNone;
  // The upstream body while it is still being read (null once read to its
  // end), the length its head declared, how much of it has arrived, and
  // what Drain read ahead into memory but the pipeline has not yet fed.
  std::unique_ptr<http::BodyStream> body;
  std::optional<size_t> declared;
  size_t received = 0;
  common::BufferChain rest;
  std::optional<StreamingAssembler> assembler;  // Templates only.
  // A cache wants the delivered page (GET: a static-cacheable passthrough,
  // or a 200 with serve-stale on).
  bool keep = false;
  // The pipeline delivered a page in full (not an early answer or error).
  bool delivered = false;
  // Committed streams: when the head went out, and the client-bound head
  // whose body_chain collects the delivered bytes when `keep` is set.
  std::optional<MicroTime> committed_at;
  http::Response head;
  int status = 0;   // Client response status.
  size_t sent = 0;  // Body bytes handed to the client.

  bool BodyArrived() const {
    return body == nullptr || (declared.has_value() && received >= *declared);
  }
};

// Yields the output prefetched before commit, then pulls the rest of the
// template through Pump, runs the completion step at end of body, and
// truncates on any failure (the hosting server cuts the chunked body).
// Destruction before end of body (client went away) completes the
// request as abandoned.
class DpcProxy::ServingStream : public http::BodyStream {
 public:
  ServingStream(DpcProxy* proxy, std::unique_ptr<Exchange> x,
                common::BufferChain pending)
      : proxy_(proxy), x_(std::move(x)), pending_(std::move(pending)) {}

  ~ServingStream() override {
    if (completed_) return;
    x_->outcome = "stream_abandoned";
    Finish(nullptr);
  }

  Result<common::BufferChain> Next() override {
    if (!failure_.ok()) return failure_;
    if (completed_) return common::BufferChain();
    common::BufferChain out = std::move(pending_);
    pending_.Clear();
    bool done = false;
    while (out.empty() && !done) {
      Status pumped = proxy_->Pump(*x_, out, &done);
      if (!pumped.ok()) return Abort(std::move(pumped));
    }
    proxy_->instruments_.bytes_to_clients->Increment(out.size());
    x_->sent += out.size();
    if (x_->keep) x_->head.body_chain.Append(out);
    // A non-empty tail goes out now and the next pull ends the body.
    if (done) Finish(&x_->head);
    return out;
  }

 private:
  Status Abort(Status status) {
    proxy_->instruments_.stream_aborts->Increment();
    DYNAPROX_LOG(kWarning, "dpc")
        << "stream abort (" << x_->request_id
        << "): " << status.ToString();
    x_->outcome = "stream_abort";
    failure_ = status;
    Finish(nullptr);
    return status;
  }

  void Finish(const http::Response* page) {
    completed_ = true;
    proxy_->Complete(*x_, page);
  }

  DpcProxy* proxy_;
  std::unique_ptr<Exchange> x_;
  common::BufferChain pending_;
  Status failure_ = Status::Ok();
  bool completed_ = false;
};

DpcProxy::DpcProxy(net::Transport* upstream, ProxyOptions options)
    : upstream_(upstream),
      options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : SystemClock::Default()),
      store_(options.capacity) {
  if (options_.enable_static_cache) {
    static_cache_ = std::make_unique<StaticCache>(options_.static_cache);
  }
  if (options_.serve_stale) {
    stale_cache_ = std::make_unique<StalePageCache>(options_.stale_cache);
  }
  RegisterMetrics();
}

void DpcProxy::RegisterMetrics() {
  // Serving counters. Registration order here is the exposition order;
  // docs/observability.md lists them in the same order.
  instruments_.requests = registry_.GetCounter(
      "dynaprox_requests_total",
      "Client requests proxied (status/metrics endpoint hits excluded).");
  instruments_.passthrough = registry_.GetCounter(
      "dynaprox_passthrough_total",
      "Upstream responses without a template header, forwarded verbatim.");
  instruments_.assembled = registry_.GetCounter(
      "dynaprox_assembled_total", "Pages assembled from SET/GET templates.");
  instruments_.recoveries = registry_.GetCounter(
      "dynaprox_recoveries_total",
      "Cold-cache refresh round trips (X-DPC-Refresh sent upstream).");
  instruments_.upstream_errors = registry_.GetCounter(
      "dynaprox_upstream_errors_total",
      "Upstream round trips that failed at the transport layer.");
  instruments_.template_errors = registry_.GetCounter(
      "dynaprox_template_errors_total",
      "Corrupt/oversized templates and unrecoverable fragment misses.");
  instruments_.static_hits = registry_.GetCounter(
      "dynaprox_static_hits_total", "Requests served from the static cache.");
  instruments_.static_revalidations = registry_.GetCounter(
      "dynaprox_static_revalidations_total",
      "Stale static entries refreshed by an upstream 304.");
  instruments_.stale_served = registry_.GetCounter(
      "dynaprox_stale_served_total",
      "Degraded responses served from a last-known-good page.");
  instruments_.breaker_rejections = registry_.GetCounter(
      "dynaprox_breaker_rejections_total",
      "Requests fast-failed because the upstream circuit breaker was open.");
  instruments_.degraded_503s = registry_.GetCounter(
      "dynaprox_degraded_503s_total",
      "Degraded requests with no stale copy available (503 sent).");
  instruments_.bytes_from_upstream = registry_.GetCounter(
      "dynaprox_bytes_from_upstream_total",
      "Template/page body bytes received from the origin.");
  instruments_.bytes_to_clients = registry_.GetCounter(
      "dynaprox_bytes_to_clients_total",
      "Response body bytes sent to clients.");
  instruments_.body_bytes_copied = registry_.GetCounter(
      "dynaprox_dpc_body_bytes_copied_total",
      "Assembled-page body bytes memcpy'd (SET materialization only).");
  instruments_.body_bytes_referenced = registry_.GetCounter(
      "dynaprox_dpc_body_bytes_referenced_total",
      "Assembled-page body bytes spliced by reference (literals and GET "
      "fragments), never copied.");
  instruments_.streamed = registry_.GetCounter(
      "dynaprox_streamed_total",
      "Responses committed to streaming delivery (head sent while the "
      "template tail was still arriving).");
  instruments_.stream_aborts = registry_.GetCounter(
      "dynaprox_stream_aborts_total",
      "Streams aborted after commit (upstream or template failure "
      "mid-body; the client connection is cut, truncating the chunked "
      "body).");
  instruments_.deadline_exceeded = registry_.GetCounter(
      "dynaprox_deadline_exceeded_total",
      "Requests degraded because the end-to-end deadline budget expired "
      "before upstream/recovery retries completed.");
  // Chaos layer: per-fault-point injection counts, sampled at scrape
  // time from the process-wide registry (docs/failure-modes.md).
  chaos::FaultRegistry::Instance().RegisterMetrics(&registry_);

  // Per-stage latency histograms (seconds).
  instruments_.request_duration = registry_.GetHistogram(
      "dynaprox_request_duration_seconds",
      "Total DPC handling time per proxied request.");
  instruments_.upstream_fetch_duration = registry_.GetHistogram(
      "dynaprox_upstream_fetch_duration_seconds",
      "Origin round-trip time, one observation per upstream fetch.");
  instruments_.scan_duration = registry_.GetHistogram(
      "dynaprox_scan_duration_seconds",
      "Template scan (tag parse) time per assembled page.");
  instruments_.splice_duration = registry_.GetHistogram(
      "dynaprox_splice_duration_seconds",
      "Fragment store/splice time per assembled page.");
  instruments_.ttfb = registry_.GetHistogram(
      "dynaprox_ttfb_seconds",
      "Time from request arrival to the first response body bytes being "
      "ready to send (committed streams: at commit; whole responses: the "
      "whole handling time).");

  // Fragment store, sampled at scrape time.
  registry_.RegisterCallbackGauge(
      "dynaprox_store_capacity", "Fragment slots configured.",
      [this] { return static_cast<double>(store_.capacity()); });
  registry_.RegisterCallbackGauge(
      "dynaprox_store_occupied_slots", "Fragment slots holding content.",
      [this] { return static_cast<double>(store_.occupied_slots()); });
  registry_.RegisterCallbackGauge(
      "dynaprox_store_content_bytes", "Bytes of fragment content stored.",
      [this] { return static_cast<double>(store_.content_bytes()); });
  registry_.RegisterCallbackGaugeVec(
      "dynaprox_dpc_fragment_bytes",
      "Resident fragment bytes per store shard.", "shard",
      FragmentStore::kShards, [this](size_t shard) {
        return static_cast<double>(store_.shard_content_bytes(shard));
      });
  registry_.RegisterCallbackCounter(
      "dynaprox_store_sets_total", "SET instructions executed.",
      [this] { return store_.stats().sets; });
  registry_.RegisterCallbackCounter(
      "dynaprox_store_gets_total", "GET instructions executed.",
      [this] { return store_.stats().gets; });
  registry_.RegisterCallbackCounter(
      "dynaprox_store_get_misses_total",
      "GET instructions that found an empty slot.",
      [this] { return store_.stats().get_misses; });
  registry_.RegisterCallbackCounter(
      "dynaprox_store_pushes_total",
      "Slots populated via the control channel (SetPushed).",
      [this] { return store_.stats().pushes; });
  registry_.RegisterCallbackGauge(
      "dynaprox_store_pushed_slots",
      "Slots whose current content arrived via a push.",
      [this] { return static_cast<double>(store_.pushed_slots()); });

  if (options_.miss_resolver != nullptr) {
    instruments_.peer_fills = registry_.GetCounter(
        "dynaprox_edge_peer_fills_total",
        "Cold-cache GET misses filled from the fragment's ring owner "
        "instead of an origin refresh round trip.");
  }
  if (options_.enable_push) {
    instruments_.pushes_applied = registry_.GetCounter(
        "dynaprox_edge_pushes_applied_total",
        "Control-channel pushes accepted and stored.");
    instruments_.push_bytes = registry_.GetCounter(
        "dynaprox_edge_push_bytes_total",
        "Fragment body bytes received over the control channel.");
    instruments_.peer_serves = registry_.GetCounter(
        "dynaprox_edge_peer_serves_total",
        "Owned fragments served to ring peers from the fragment "
        "endpoint.");
  }

  if (options_.upstream_breaker != nullptr) {
    const net::CircuitBreaker* breaker = options_.upstream_breaker;
    registry_.RegisterCallbackGauge(
        "dynaprox_upstream_breaker_state",
        "Circuit breaker state: 0=closed, 1=open, 2=half-open.",
        [breaker] {
          return static_cast<double>(breaker->stats().state);
        });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_breaker_rejections_total",
        "Requests the breaker fast-failed.",
        [breaker] { return breaker->stats().rejections; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_breaker_opens_total",
        "Transitions into the open state.",
        [breaker] { return breaker->stats().opens; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_breaker_closes_total",
        "Half-open windows that ended in recovery.",
        [breaker] { return breaker->stats().closes; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_breaker_probes_total",
        "Trial requests admitted while half-open.",
        [breaker] { return breaker->stats().probes; });
    registry_.RegisterCallbackGauge(
        "dynaprox_upstream_breaker_window_error_rate",
        "Error rate over the current rolling window.",
        [breaker] { return breaker->stats().window_error_rate; });
    registry_.RegisterCallbackGauge(
        "dynaprox_upstream_breaker_window_samples",
        "Outcomes recorded in the current rolling window.",
        [breaker] {
          return static_cast<double>(breaker->stats().window_samples);
        });
  }

  if (options_.ingress != nullptr) {
    net::RegisterIngressMetrics(registry_, "dynaprox_", options_.ingress);
  }
  if (options_.worker_ingress != nullptr &&
      options_.worker_ingress_count > 0) {
    net::RegisterWorkerIngressMetrics(registry_, "dynaprox_",
                                      options_.worker_ingress,
                                      options_.worker_ingress_count);
  }

  if (stale_cache_ != nullptr) {
    StalePageCache* stale = stale_cache_.get();
    registry_.RegisterCallbackGauge(
        "dynaprox_stale_pages_entries", "Last-known-good pages retained.",
        [stale] { return static_cast<double>(stale->size()); });
    registry_.RegisterCallbackCounter(
        "dynaprox_stale_pages_remembers_total",
        "Pages recorded into the stale-page cache.",
        [stale] { return stale->stats().remembers; });
    registry_.RegisterCallbackCounter(
        "dynaprox_stale_pages_hits_total",
        "Degraded lookups that found a usable page.",
        [stale] { return stale->stats().hits; });
    registry_.RegisterCallbackCounter(
        "dynaprox_stale_pages_misses_total",
        "Degraded lookups that found nothing usable.",
        [stale] { return stale->stats().misses; });
    registry_.RegisterCallbackCounter(
        "dynaprox_stale_pages_evictions_total",
        "Pages evicted by the LRU bound.",
        [stale] { return stale->stats().evictions; });
  }

  if (options_.upstream_pool != nullptr) {
    const net::ConnectionPool* pool = options_.upstream_pool;
    registry_.RegisterCallbackGauge(
        "dynaprox_upstream_pool_open_connections",
        "Pool connections open (checked out + idle).",
        [pool] { return static_cast<double>(pool->stats().open_connections); });
    registry_.RegisterCallbackGauge(
        "dynaprox_upstream_pool_idle_connections",
        "Pool connections parked in the free list.",
        [pool] { return static_cast<double>(pool->stats().idle_connections); });
    registry_.RegisterCallbackGauge(
        "dynaprox_upstream_pool_wait_queue_depth",
        "Checkouts currently blocked waiting for a connection.",
        [pool] { return static_cast<double>(pool->stats().wait_queue_depth); });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_pool_checkouts_total", "Successful checkouts.",
        [pool] { return pool->stats().checkouts; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_pool_connects_total", "Successful dials.",
        [pool] { return pool->stats().connects; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_pool_reconnects_total",
        "Dials that replaced a dead keep-alive connection.",
        [pool] { return pool->stats().reconnects; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_pool_stale_closed_total",
        "Idle connections found dead at checkout.",
        [pool] { return pool->stats().stale_closed; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_pool_idle_reaped_total",
        "Idle connections closed past the idle deadline.",
        [pool] { return pool->stats().idle_reaped; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_pool_waiter_timeouts_total",
        "Checkouts that gave up waiting.",
        [pool] { return pool->stats().waiter_timeouts; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_pool_waiter_rejections_total",
        "Checkouts rejected by the waiter bound.",
        [pool] { return pool->stats().waiter_rejections; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_pool_connect_failures_total",
        "Dials that exhausted their retries.",
        [pool] { return pool->stats().connect_failures; });
    registry_.RegisterCallbackHistogram(
        "dynaprox_upstream_pool_wait_seconds",
        "Time blocked waiting for a pool connection, one observation per "
        "checkout that found the pool saturated.",
        [pool] {
          metrics::LatencyHistogram::Snapshot wait =
              pool->stats().wait_micros;
          for (double& bound : wait.bounds) bound /= kMicrosPerSecond;
          wait.sum /= kMicrosPerSecond;
          return wait;
        });
  }

  if (static_cache_ != nullptr) {
    StaticCache* cache = static_cache_.get();
    registry_.RegisterCallbackGauge(
        "dynaprox_static_cache_entries", "Static cache entries retained.",
        [cache] { return static_cast<double>(cache->size()); });
    registry_.RegisterCallbackCounter(
        "dynaprox_static_cache_hits_total", "Fresh static cache hits.",
        [cache] { return cache->stats().hits; });
    registry_.RegisterCallbackCounter(
        "dynaprox_static_cache_misses_total", "Static cache misses.",
        [cache] { return cache->stats().misses; });
    registry_.RegisterCallbackCounter(
        "dynaprox_static_cache_stores_total", "Responses stored.",
        [cache] { return cache->stats().stores; });
    registry_.RegisterCallbackCounter(
        "dynaprox_static_cache_revalidations_total",
        "304-driven freshness extensions.",
        [cache] { return cache->stats().revalidations; });
    registry_.RegisterCallbackCounter(
        "dynaprox_static_cache_stale_served_total",
        "Stale static entries served on upstream error.",
        [cache] { return cache->stats().stale_served; });
    registry_.RegisterCallbackCounter(
        "dynaprox_static_cache_evictions_total", "Entries evicted.",
        [cache] { return cache->stats().evictions; });
  }
}

net::Handler DpcProxy::AsHandler() {
  return [this](const http::Request& request) { return Handle(request); };
}

ProxyStats DpcProxy::stats() const {
  ProxyStats snapshot;
  snapshot.requests = instruments_.requests->value();
  snapshot.passthrough = instruments_.passthrough->value();
  snapshot.assembled = instruments_.assembled->value();
  snapshot.recoveries = instruments_.recoveries->value();
  snapshot.upstream_errors = instruments_.upstream_errors->value();
  snapshot.template_errors = instruments_.template_errors->value();
  snapshot.static_hits = instruments_.static_hits->value();
  snapshot.static_revalidations = instruments_.static_revalidations->value();
  snapshot.stale_served = instruments_.stale_served->value();
  snapshot.breaker_rejections = instruments_.breaker_rejections->value();
  snapshot.degraded_503s = instruments_.degraded_503s->value();
  snapshot.bytes_from_upstream = instruments_.bytes_from_upstream->value();
  snapshot.bytes_to_clients = instruments_.bytes_to_clients->value();
  snapshot.streamed = instruments_.streamed->value();
  snapshot.stream_aborts = instruments_.stream_aborts->value();
  snapshot.deadline_exceeded = instruments_.deadline_exceeded->value();
  if (instruments_.peer_fills != nullptr) {
    snapshot.peer_fills = instruments_.peer_fills->value();
  }
  if (instruments_.pushes_applied != nullptr) {
    snapshot.pushes_applied = instruments_.pushes_applied->value();
  }
  if (instruments_.peer_serves != nullptr) {
    snapshot.peer_serves = instruments_.peer_serves->value();
  }
  return snapshot;
}

Status DpcProxy::ApplyPush(bem::DpcKey key, FragmentRef body,
                           MicroTime age_micros) {
  size_t bytes = body == nullptr ? 0 : body->size();
  DYNAPROX_RETURN_IF_ERROR(
      store_.SetPushed(key, std::move(body), age_micros,
                       clock_->NowMicros()));
  if (instruments_.pushes_applied != nullptr) {
    instruments_.pushes_applied->Increment();
  }
  if (instruments_.push_bytes != nullptr) {
    instruments_.push_bytes->Increment(bytes);
  }
  return Status::Ok();
}

http::Response DpcProxy::HandlePush(const http::Request& request) {
  auto key_header = request.headers.Get(bem::kPushKeyHeader);
  if (!key_header.has_value()) {
    return http::Response::MakeError(400, "Bad Request",
                                     "missing X-DPC-Push-Key header");
  }
  Result<uint64_t> key = ParseHex(*key_header);
  if (!key.ok() || *key > bem::kInvalidDpcKey) {
    return http::Response::MakeError(400, "Bad Request",
                                     "bad X-DPC-Push-Key header");
  }
  MicroTime age = 0;
  if (auto age_header = request.headers.Get(bem::kPushAgeHeader);
      age_header.has_value()) {
    Result<uint64_t> parsed = ParseUint64(*age_header);
    if (!parsed.ok()) {
      return http::Response::MakeError(400, "Bad Request",
                                       "bad X-DPC-Push-Age header");
    }
    age = static_cast<MicroTime>(*parsed);
  }
  Status applied = ApplyPush(
      static_cast<bem::DpcKey>(*key),
      std::make_shared<const std::string>(request.body), age);
  if (!applied.ok()) {
    return http::Response::MakeError(400, "Bad Request",
                                     applied.ToString());
  }
  http::Response response;
  response.status_code = 204;
  response.reason = "No Content";
  return response;
}

http::Response DpcProxy::HandleFragment(const http::Request& request) {
  std::map<std::string, std::string> params = request.QueryParams();
  auto it = params.find("key");
  if (it == params.end()) {
    return http::Response::MakeError(400, "Bad Request",
                                     "missing key query parameter");
  }
  Result<uint64_t> key = ParseHex(it->second);
  if (!key.ok() || *key > bem::kInvalidDpcKey) {
    return http::Response::MakeError(400, "Bad Request",
                                     "bad key query parameter");
  }
  bem::DpcKey dpc_key = static_cast<bem::DpcKey>(*key);
  Result<FragmentRef> fragment = store_.Get(dpc_key);
  if (!fragment.ok()) {
    return http::Response::MakeError(404, "Not Found",
                                     fragment.status().ToString());
  }
  if (instruments_.peer_serves != nullptr) {
    instruments_.peer_serves->Increment();
  }
  http::Response response =
      http::Response::MakeOk(std::string(**fragment), "text/html");
  // Report the body's current age so the fetching peer keeps aging it
  // from the right base instead of restarting at zero.
  Result<MicroTime> age = store_.AgeOf(dpc_key, clock_->NowMicros());
  response.headers.Set(bem::kPushAgeHeader,
                       std::to_string(age.ok() ? *age : 0));
  return response;
}

std::optional<http::Response> DpcProxy::LookupAnyStale(
    const std::string& url) {
  std::optional<http::Response> stale;
  if (stale_cache_ != nullptr) {
    if (std::optional<StalePage> page =
            stale_cache_->Lookup(url, options_.max_stale_micros)) {
      stale = std::move(page->response);
      stale->headers.Set(
          "Age", std::to_string(page->age_micros / kMicrosPerSecond));
    }
  }
  if (!stale.has_value() && static_cache_ != nullptr) {
    // LookupStale sets Age itself.
    stale = static_cache_->LookupStale(url, options_.max_stale_micros);
  }
  if (!stale.has_value()) return std::nullopt;
  // Cached as first sent: hop-by-hop fields stripped and Via appended.
  stale->headers.Set("Warning", kStaleWarning);
  instruments_.stale_served->Increment();
  instruments_.bytes_to_clients->Increment(stale->body_size());
  return stale;
}

http::Response DpcProxy::ServeDegraded(const http::Request& request,
                                       const Status& failure,
                                       bool breaker_rejected,
                                       const char** outcome) {
  if (request.method == "GET") {
    if (std::optional<http::Response> stale =
            LookupAnyStale(request.target)) {
      *outcome = "stale";
      return std::move(*stale);
    }
  }
  if (options_.serve_stale || breaker_rejected ||
      common::IsDeadlineExceeded(failure)) {
    instruments_.degraded_503s->Increment();
    *outcome = common::IsDeadlineExceeded(failure) ? "deadline_503"
                                                   : "degraded_503";
    return net::MakeUnavailableResponse(
        "origin unavailable: " + failure.ToString(),
        options_.retry_after_seconds);
  }
  // Legacy fail-closed behaviour when degradation is not configured.
  *outcome = "upstream_error";
  return http::Response::MakeError(
      502, "Bad Gateway", "upstream error: " + failure.ToString());
}

http::Response DpcProxy::Handle(const http::Request& request) {
  if (options_.enable_status && request.Path() == options_.status_path) {
    return http::Response::MakeOk(registry_.RenderJson("dpc"),
                                  "application/json");
  }
  if (options_.enable_metrics && request.Path() == options_.metrics_path) {
    return http::Response::MakeOk(registry_.RenderPrometheus(),
                                  "text/plain; version=0.0.4");
  }
  // Control-channel traffic (pushes in, peer fetches out) is cluster
  // plumbing, not client serving — excluded from the request counters
  // like the status/metrics endpoints above.
  if (options_.enable_push) {
    if (request.Path() == options_.push_path) return HandlePush(request);
    if (request.Path() == options_.fragment_path) {
      return HandleFragment(request);
    }
  }
  instruments_.requests->Increment();

  // Cross-tier correlation id: honour one the client (or an upstream DPC
  // tier) already minted, else mint our own. Forwarded to the origin and
  // echoed to the client.
  std::string request_id;
  if (auto provided = request.headers.Get(bem::kRequestIdHeader);
      provided.has_value() && !provided->empty()) {
    request_id = std::string(*provided);
  } else {
    request_id = request_ids_.Next();
  }

  // End-to-end budget: this request (and everything it triggers —
  // upstream fetch, peer fetches, recovery retries) shares one deadline.
  // A tier above may already have set one; the tighter deadline wins.
  common::DeadlineScope deadline_scope(common::Deadline::Earliest(
      common::CurrentDeadline(),
      common::Deadline::After(clock_, options_.request_budget_micros)));

  auto x = std::make_unique<Exchange>();
  x->request_id = request_id;
  x->start = clock_->NowMicros();
  http::Response response = Proxy(x, request);
  if (response.body_stream == nullptr) {
    // Served whole. Completed before the correlation id is set, so the
    // caches never keep it.
    x->status = response.status_code;
    x->sent = response.body_size();
    Complete(*x, x->delivered ? &response : nullptr);
  }
  response.headers.Set(bem::kRequestIdHeader, request_id);
  return response;
}

http::Response DpcProxy::Proxy(std::unique_ptr<Exchange>& x,
                               const http::Request& request) {
  const bool get = request.method == "GET";
  x->upstream_request = PrepareUpstream(request, x->request_id);
  bool revalidating = false;
  if (static_cache_ != nullptr && get) {
    if (std::optional<http::Response> cached =
            static_cache_->Lookup(request.target)) {
      instruments_.static_hits->Increment();
      instruments_.bytes_to_clients->Increment(cached->body_size());
      x->outcome = "static_hit";
      return std::move(*cached);
    }
    // Stale entry with an ETag: try a conditional request.
    if (std::optional<std::string> etag =
            static_cache_->StaleEtag(request.target)) {
      x->upstream_request.headers.Set("If-None-Match", *etag);
      revalidating = true;
    }
  }
  Result<net::StreamingResponse> upstream = Fetch(*x, x->upstream_request);
  if (revalidating && upstream.ok() && upstream->head.status_code == 304) {
    if (std::optional<http::Response> refreshed =
            static_cache_->Revalidate(request.target, upstream->head)) {
      instruments_.static_revalidations->Increment();
      instruments_.bytes_to_clients->Increment(refreshed->body_size());
      x->outcome = "static_revalidated";
      return std::move(*refreshed);
    }
    // Entry vanished (evicted between the stale check and the 304):
    // fetch again unconditionally.
    x->upstream_request.headers.Remove("If-None-Match");
    upstream = Fetch(*x, x->upstream_request);
  }
  if (!upstream.ok()) return Refuse(*x, request, upstream.status());

  http::Response head = std::move(upstream->head);
  // Serve-stale-on-error (RFC 9111 §4.2.4): a 5xx answer must not
  // displace a still-usable stale copy — serve the copy instead.
  if (head.status_code >= 500 && get) {
    if (std::optional<http::Response> stale =
            LookupAnyStale(request.target)) {
      x->outcome = "stale";
      return std::move(*stale);
    }
  }
  x->body = std::move(upstream->body);
  x->declared = DeclaredLength(head);
  const bool is_template = head.headers.Has(bem::kTemplateHeader);
  if (is_template) {
    head.headers.Remove(bem::kTemplateHeader);
    head.headers.Remove("Content-Length");  // The template's, not the page's.
    x->assembler.emplace(
        store_,
        [this, exchange = x.get()](const std::vector<bem::DpcKey>& keys) {
          return Recover(*exchange, keys);
        },
        clock_);
  }
  head.headers.Remove("Transfer-Encoding");
  if (options_.proxy_headers) {
    StripHopByHop(head.headers);
    AppendVia(head.headers, options_.via_token);
  }
  x->keep = get && ((static_cache_ != nullptr && !is_template) ||
                    (stale_cache_ != nullptr && head.status_code == 200));

  // Prefetch until there are bytes to commit, or the whole body is in. A
  // body whose declared length has arrived is read to its end; so is a
  // page for the debug header (it counts the whole page's tags) and a
  // non-200 passthrough (never re-framed as chunked).
  const bool read_whole =
      is_template ? options_.add_debug_header : head.status_code != 200;
  common::BufferChain out;
  bool done = false;
  while (!done && (out.empty() || read_whole || x->BodyArrived())) {
    Status pumped = Pump(*x, out, &done);
    if (!pumped.ok()) return Refuse(*x, request, pumped);
  }
  if (done) {
    if (!is_template) {
      head.body = out.Flatten();  // Passthrough bodies stay contiguous.
      x->outcome = "passthrough";
    } else {
      if (options_.add_debug_header) {
        const StreamProgress& progress = x->assembler->progress();
        head.headers.Set(kDebugHeader,
                         "sets=" + std::to_string(progress.set_count) +
                             ";gets=" + std::to_string(progress.get_count));
      }
      head.body_chain = std::move(out);  // Zero-copy handoff.
      x->outcome = "assembled";
    }
    instruments_.bytes_to_clients->Increment(head.body_size());
    x->delivered = true;
    return head;
  }

  // Commit: template bytes are still in flight, so the head and `out` go
  // to the client now, chunked, and the rest follows as it resolves.
  head.headers.Remove("Content-Length");
  instruments_.streamed->Increment();
  x->committed_at = clock_->NowMicros();
  x->status = head.status_code;
  x->outcome = is_template ? "streamed" : "passthrough";
  x->head = head;
  head.body_stream =
      std::make_shared<ServingStream>(this, std::move(x), std::move(out));
  return head;
}

Result<net::StreamingResponse> DpcProxy::Fetch(Exchange& x,
                                               const http::Request& request) {
  if (common::CurrentDeadline().expired()) {
    return Fail(x, Failure::kDeadline,
                common::DeadlineExceededError("upstream fetch for " +
                                              request.target));
  }
  MicroTime fetch_start = clock_->NowMicros();
  Result<net::StreamingResponse> response =
      ChaosRoundTrip(upstream_, request);
  // Head time only: the body is pulled chunk by chunk afterwards.
  instruments_.upstream_fetch_duration->Observe(
      MicrosToSeconds(clock_->NowMicros() - fetch_start));
  if (!response.ok()) {
    return Fail(x,
                net::IsBreakerRejection(response.status())
                    ? Failure::kBreaker
                    : Failure::kUpstream,
                response.status());
  }
  return response;
}

Status DpcProxy::Pump(Exchange& x, common::BufferChain& out, bool* done) {
  // A committed stream reads the rest of the body at its first pull, so a
  // pooled connection goes back when the body ends, not when the client
  // has read the page.
  if (x.committed_at.has_value()) DYNAPROX_RETURN_IF_ERROR(Drain(x));
  common::BufferChain chunk = std::move(x.rest);
  x.rest.Clear();
  if (chunk.empty() && x.body != nullptr) {
    Result<common::BufferChain> pulled = Pull(x);
    if (!pulled.ok()) return pulled.status();
    chunk = std::move(*pulled);
  }
  Status fed = Status::Ok();
  if (chunk.empty()) {
    *done = true;
    if (x.assembler.has_value()) fed = x.assembler->Finish(out);
  } else if (!x.assembler.has_value()) {
    out.Append(std::move(chunk));
    return Status::Ok();
  } else {
    fed = x.assembler->Feed(chunk, out);
  }
  // Recover classifies its own failures. A miss still open after it is
  // unrecoverable; any other assembler failure is the template's.
  if (fed.ok() || x.failure != Failure::kNone) return fed;
  return Fail(x, fed.IsNotFound() ? Failure::kRecovery : Failure::kTemplate,
              fed);
}

Result<common::BufferChain> DpcProxy::Pull(Exchange& x) {
  // Body-chunk seam: an injected fault is an upstream failure — a clean
  // answer before commit, an honest truncation after.
  if (Status injected =
          chaos::InjectStatus(DYNAPROX_FAULT_POINT("dpc.stream.chunk"));
      !injected.ok()) {
    return Fail(x, Failure::kUpstream, injected);
  }
  Result<common::BufferChain> chunk = x.body->Next();
  if (!chunk.ok()) return Fail(x, Failure::kUpstream, chunk.status());
  if (chunk->empty()) {
    x.body.reset();
    return chunk;
  }
  x.received += chunk->size();
  instruments_.bytes_from_upstream->Increment(chunk->size());
  if (x.assembler.has_value()) {
    DYNAPROX_RETURN_IF_ERROR(CapTemplate(x, x.received));
  }
  return chunk;
}

Status DpcProxy::Drain(Exchange& x) {
  while (x.body != nullptr) {
    Result<common::BufferChain> chunk = Pull(x);
    if (!chunk.ok()) return chunk.status();
    x.rest.Append(std::move(*chunk));
  }
  return Status::Ok();
}

Status DpcProxy::CapTemplate(Exchange& x, size_t bytes) {
  if (options_.max_template_bytes == 0 ||
      bytes <= options_.max_template_bytes) {
    return Status::Ok();
  }
  return Fail(x, Failure::kTemplate,
              Status::CapacityExceeded(
                  "template exceeds limit: " + std::to_string(bytes) + " > " +
                  std::to_string(options_.max_template_bytes)));
}

Status DpcProxy::Recover(Exchange& x, std::vector<bem::DpcKey> missing) {
  if (options_.miss_resolver != nullptr) {
    // Cluster peer fill first: ask each key's ring owner before paying a
    // refresh round trip to the origin.
    std::erase_if(missing, [this](bem::DpcKey key) {
      if (!options_.miss_resolver(key).ok()) return false;
      if (instruments_.peer_fills != nullptr) {
        instruments_.peer_fills->Increment();
      }
      return true;
    });
  }
  if (missing.empty()) return Status::Ok();
  // The refresh must not wait for a connection this exchange holds: read
  // the rest of the template first, which checks a pooled connection in.
  DYNAPROX_RETURN_IF_ERROR(Drain(x));
  // Ask the origin to invalidate the keys still missing, so the refreshed
  // template carries their SETs; its page is discarded. A key counts as
  // recovered once the store holds it, whether the refresh or a
  // concurrent response stored it. With a pooled upstream the refresh can
  // race a concurrent request whose SET is still in flight and miss again
  // — hence the retries.
  for (int attempt = 0; !missing.empty(); ++attempt) {
    const std::string keys = HexList(missing);
    if (attempt == options_.max_recovery_attempts) {
      return Fail(x, Failure::kRecovery,
                  Status::NotFound("fragments [" + keys +
                                   "] unrecoverable after refresh"));
    }
    http::Request refresh = x.upstream_request;
    refresh.headers.Remove("If-None-Match");
    refresh.headers.Set(bem::kRefreshHeader, keys);
    DYNAPROX_LOG(kInfo, "dpc") << "cold-cache recovery for keys [" << keys
                               << "]";
    Result<net::StreamingResponse> refreshed = Fetch(x, refresh);
    if (!refreshed.ok()) return refreshed.status();
    instruments_.recoveries->Increment();
    if (!refreshed->head.headers.Has(bem::kTemplateHeader)) {
      // The origin no longer answers this URL with a template; there are
      // no SETs to learn from, so retrying cannot help.
      return Fail(x, Failure::kRecovery,
                  Status::NotFound("refresh answered without a template"));
    }
    StreamingScanner scanner;
    std::vector<StreamSegment> segments;
    size_t bytes = 0;
    for (bool done = false; !done;) {
      Result<common::BufferChain> chunk = refreshed->body->Next();
      if (!chunk.ok()) return Fail(x, Failure::kUpstream, chunk.status());
      instruments_.bytes_from_upstream->Increment(chunk->size());
      bytes += chunk->size();
      DYNAPROX_RETURN_IF_ERROR(CapTemplate(x, bytes));
      done = chunk->empty();
      Status scanned =
          done ? scanner.Finish(segments) : scanner.Feed(*chunk, segments);
      if (!scanned.ok()) return Fail(x, Failure::kTemplate, scanned);
      for (const StreamSegment& segment : segments) {
        if (segment.kind != StreamSegment::Kind::kSet) continue;
        DYNAPROX_RETURN_IF_ERROR(store_.Set(
            segment.key, std::make_shared<const std::string>(segment.Text())));
      }
      segments.clear();
    }
    std::erase_if(missing,
                  [this](bem::DpcKey key) { return store_.Get(key).ok(); });
  }
  return Status::Ok();
}

Status DpcProxy::Fail(Exchange& x, Failure failure, Status status) {
  x.failure = failure;
  switch (failure) {
    case Failure::kUpstream:
      instruments_.upstream_errors->Increment();
      break;
    case Failure::kBreaker:
      instruments_.breaker_rejections->Increment();
      break;
    case Failure::kDeadline:
      instruments_.deadline_exceeded->Increment();
      break;
    case Failure::kTemplate:
    case Failure::kRecovery:
      instruments_.template_errors->Increment();
      break;
    case Failure::kNone:
      break;
  }
  return status;
}

http::Response DpcProxy::Refuse(Exchange& x, const http::Request& request,
                                const Status& failure) {
  switch (x.failure) {
    case Failure::kTemplate:
      x.outcome = "template_error";
      return http::Response::MakeError(
          502, "Bad Gateway", "template error: " + failure.ToString());
    case Failure::kRecovery:
      x.outcome = "recovery_failed";
      return http::Response::MakeError(
          502, "Bad Gateway",
          "unrecoverable missing fragments: " + failure.ToString());
    default:
      return ServeDegraded(request, failure,
                           x.failure == Failure::kBreaker, &x.outcome);
  }
}

void DpcProxy::Complete(Exchange& x, const http::Response* page) {
  if (page != nullptr) {
    if (x.assembler.has_value()) {
      const StreamProgress& progress = x.assembler->progress();
      instruments_.assembled->Increment();
      instruments_.body_bytes_copied->Increment(progress.bytes_copied);
      instruments_.body_bytes_referenced->Increment(
          progress.bytes_referenced);
      instruments_.scan_duration->Observe(
          MicrosToSeconds(progress.scan_micros));
      instruments_.splice_duration->Observe(
          MicrosToSeconds(progress.splice_micros));
      if (options_.on_sets != nullptr && !progress.set_keys.empty()) {
        options_.on_sets(progress.set_keys);
      }
    } else {
      instruments_.passthrough->Increment();
    }
    if (x.keep) {
      const std::string& url = x.upstream_request.target;
      if (static_cache_ != nullptr && !x.assembler.has_value()) {
        static_cache_->Store(url, *page);
      }
      if (stale_cache_ != nullptr && page->status_code == 200) {
        stale_cache_->Remember(url, *page);
      }
    }
  }
  // Measured to the moment the body is fully produced (or abandoned), not
  // to the last socket flush — the proxy cannot see the server's writes.
  MicroTime now = clock_->NowMicros();
  instruments_.request_duration->Observe(MicrosToSeconds(now - x.start));
  instruments_.ttfb->Observe(
      MicrosToSeconds(x.committed_at.value_or(now) - x.start));
  if (options_.access_log != nullptr) {
    AccessLogEntry entry;
    entry.timestamp_micros = x.start;
    entry.component = "dpc";
    entry.request_id = x.request_id;
    entry.method = x.upstream_request.method;
    entry.target = x.upstream_request.target;
    entry.status = x.status;
    entry.bytes_sent = x.sent;
    entry.duration_micros = now - x.start;
    entry.outcome = x.outcome;
    options_.access_log->Log(entry);
  }
}

http::Request DpcProxy::PrepareUpstream(const http::Request& base,
                                        const std::string& request_id) const {
  http::Request upstream_request = base;
  if (options_.proxy_headers) {
    StripHopByHop(upstream_request.headers);
    AppendVia(upstream_request.headers, options_.via_token);
  }
  upstream_request.headers.Set(bem::kRequestIdHeader, request_id);
  return upstream_request;
}

}  // namespace dynaprox::dpc
