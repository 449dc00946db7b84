#include "appserver/origin_server.h"

#include <vector>

#include "appserver/push_engine.h"
#include "bem/protocol.h"
#include "common/fault_point.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/strings.h"
#include "net/server_limits.h"

namespace dynaprox::appserver {

OriginServer::OriginServer(const ScriptRegistry* registry,
                           storage::ContentRepository* repository,
                           bem::BackEndMonitor* monitor,
                           OriginOptions options)
    : registry_(registry),
      repository_(repository),
      monitor_(monitor),
      options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : SystemClock::Default()) {
  if (monitor_ != nullptr && options_.block_workers > 0) {
    common::ThreadPoolOptions pool_options;
    pool_options.num_threads = options_.block_workers;
    pool_options.queue_capacity = options_.block_queue_capacity;
    block_pool_ = std::make_unique<common::ThreadPool>(pool_options);
  }
  RegisterMetrics();
}

void OriginServer::RegisterMetrics() {
  instruments_.requests = registry_mx_.GetCounter(
      "dynaprox_origin_requests_total",
      "Requests handled (status/metrics endpoint hits excluded).");
  instruments_.not_found = registry_mx_.GetCounter(
      "dynaprox_origin_not_found_total",
      "Requests whose path matched no registered script.");
  instruments_.script_errors = registry_mx_.GetCounter(
      "dynaprox_origin_script_errors_total",
      "Script executions that returned an error (500 sent).");
  instruments_.refresh_invalidations = registry_mx_.GetCounter(
      "dynaprox_origin_refresh_invalidations_total",
      "dpcKeys invalidated via X-DPC-Refresh (DPC cold-cache recovery).");
  instruments_.fragment_hits = registry_mx_.GetCounter(
      "dynaprox_origin_fragment_hits_total",
      "Cacheable blocks answered from the directory (GET tag emitted).");
  instruments_.fragment_misses = registry_mx_.GetCounter(
      "dynaprox_origin_fragment_misses_total",
      "Cacheable blocks that executed their generator (SET tag emitted).");
  instruments_.fragment_uncacheable = registry_mx_.GetCounter(
      "dynaprox_origin_fragment_uncacheable_total",
      "Cacheable blocks run without BEM involvement.");
  instruments_.parallel_blocks = registry_mx_.GetCounter(
      "dynaprox_origin_parallel_blocks_total",
      "Miss generators dispatched to the block-execution pool.");
  instruments_.body_bytes_sent = registry_mx_.GetCounter(
      "dynaprox_origin_body_bytes_sent_total",
      "Response body bytes sent (templates or full pages).");

  instruments_.request_duration = registry_mx_.GetHistogram(
      "dynaprox_origin_request_duration_seconds",
      "Total origin handling time per request.");
  script_metrics_.clock = clock_;
  script_metrics_.directory_lookup = registry_mx_.GetHistogram(
      "dynaprox_bem_directory_lookup_duration_seconds",
      "BEM directory LookupFragment time per cacheable block.");
  script_metrics_.block_execution = registry_mx_.GetHistogram(
      "dynaprox_bem_block_execution_duration_seconds",
      "Generator run time per executed cacheable block.");
  script_metrics_.tag_emission = registry_mx_.GetHistogram(
      "dynaprox_bem_tag_emission_duration_seconds",
      "SET/GET tag encode time per tag written into the template.");
  chaos::FaultRegistry::Instance().RegisterMetrics(&registry_mx_);

  if (monitor_ != nullptr) {
    const bem::BackEndMonitor* monitor = monitor_;
    registry_mx_.RegisterCallbackGauge(
        "dynaprox_bem_directory_capacity", "dpcKey slots configured.",
        [monitor] { return static_cast<double>(monitor->capacity()); });
    registry_mx_.RegisterCallbackGauge(
        "dynaprox_bem_directory_valid_entries",
        "Valid directory entries (fragments the DPC can serve by GET).",
        [monitor] {
          return static_cast<double>(monitor->directory().valid_count());
        });
    registry_mx_.RegisterCallbackGauge(
        "dynaprox_bem_dependency_fragments",
        "Fragments with registered data-source dependencies; at most the "
        "valid entries.",
        [monitor] {
          return static_cast<double>(
              monitor->dependencies().fragment_count());
        });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_bem_directory_hits_total", "Directory lookup hits.",
        [monitor] { return monitor->stats().hits; });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_bem_directory_misses_total", "Directory lookup misses.",
        [monitor] { return monitor->stats().misses; });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_bem_directory_inserts_total", "Fragments registered.",
        [monitor] { return monitor->stats().inserts; });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_bem_directory_ttl_invalidations_total",
        "Entries invalidated by TTL expiry.",
        [monitor] { return monitor->stats().ttl_invalidations; });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_bem_directory_explicit_invalidations_total",
        "Entries invalidated by trigger/refresh/API.",
        [monitor] { return monitor->stats().explicit_invalidations; });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_bem_directory_evictions_total",
        "Valid entries evicted for key reuse.",
        [monitor] { return monitor->stats().evictions; });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_bem_stripe_contentions_total",
        "Contended directory stripe-mutex acquisitions.",
        [monitor] { return monitor->concurrency_stats().stripe_contentions; });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_bem_policy_contentions_total",
        "Contended replacement-policy mutex acquisitions.",
        [monitor] { return monitor->concurrency_stats().policy_contentions; });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_bem_free_list_contentions_total",
        "Contended free-list mutex acquisitions.",
        [monitor] {
          return monitor->concurrency_stats().free_list_contentions;
        });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_bem_registry_contentions_total",
        "Contended dependency-registry mutex acquisitions.",
        [monitor] {
          return monitor->concurrency_stats().registry_contentions;
        });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_bem_insert_races_total",
        "Directory insert rounds retried under concurrency.",
        [monitor] { return monitor->concurrency_stats().insert_races; });
  }

  if (block_pool_ != nullptr) {
    const common::ThreadPool* pool = block_pool_.get();
    registry_mx_.RegisterCallbackGauge(
        "dynaprox_origin_block_pool_threads",
        "Block-execution pool worker threads.",
        [pool] { return static_cast<double>(pool->stats().threads); });
    registry_mx_.RegisterCallbackGauge(
        "dynaprox_origin_block_pool_queue_depth",
        "Tasks waiting in the block-execution pool queue.",
        [pool] { return static_cast<double>(pool->stats().queue_depth); });
    registry_mx_.RegisterCallbackGauge(
        "dynaprox_origin_block_pool_peak_queue_depth",
        "Most tasks ever waiting in the block-execution pool queue.",
        [pool] {
          return static_cast<double>(pool->stats().peak_queue_depth);
        });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_origin_block_pool_submitted_total",
        "Tasks submitted to the block-execution pool.",
        [pool] { return pool->stats().submitted; });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_origin_block_pool_executed_total",
        "Tasks completed by block-execution pool workers.",
        [pool] { return pool->stats().executed; });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_origin_block_pool_caller_runs_total",
        "Tasks run inline on the submitter (queue full / shutdown).",
        [pool] { return pool->stats().caller_runs; });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_origin_block_pool_queue_contentions_total",
        "Contended block-pool queue-mutex acquisitions.",
        [pool] { return pool->stats().queue_contentions; });
  }

  if (options_.push_engine != nullptr) {
    const PushEngine* engine = options_.push_engine;
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_bem_push_enqueued_total",
        "Invalidations admitted to the push queue (score >= min_score).",
        [engine] { return engine->scheduler().stats().enqueued; });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_bem_push_skipped_cold_total",
        "Invalidations below the push admission score (stay pull-on-miss).",
        [engine] { return engine->scheduler().stats().skipped_cold; });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_bem_push_dropped_total",
        "Admitted fragments dropped because the push queue was full.",
        [engine] { return engine->scheduler().stats().dropped; });
    registry_mx_.RegisterCallbackGauge(
        "dynaprox_bem_push_queue_depth",
        "Fragments waiting for a push re-render.",
        [engine] {
          return static_cast<double>(engine->scheduler().queue_depth());
        });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_bem_push_sent_total",
        "Fragment bodies delivered over the control channel.",
        [engine] { return engine->stats().pushed; });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_bem_push_failures_total",
        "Control-channel deliveries that failed.",
        [engine] { return engine->stats().push_failures; });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_bem_push_no_producer_total",
        "Admitted fragments with no known producing request.",
        [engine] { return engine->stats().no_producer; });
    registry_mx_.RegisterCallbackCounter(
        "dynaprox_bem_push_missing_capture_total",
        "Push re-renders that hit the directory (client refresh won).",
        [engine] { return engine->stats().missing_capture; });
    registry_mx_.RegisterCallbackGauge(
        "dynaprox_bem_push_staleness_p50_seconds",
        "Median invalidate-to-reinsert gap, all fragments (push or pull).",
        [engine] { return engine->staleness().snapshot().Percentile(0.5); });
    registry_mx_.RegisterCallbackGauge(
        "dynaprox_bem_push_staleness_p99_seconds",
        "p99 invalidate-to-reinsert gap, all fragments (push or pull).",
        [engine] { return engine->staleness().snapshot().Percentile(0.99); });
  }

  if (options_.ingress != nullptr) {
    net::RegisterIngressMetrics(registry_mx_, "dynaprox_origin_",
                                options_.ingress);
  }
  if (options_.worker_ingress != nullptr &&
      options_.worker_ingress_count > 0) {
    net::RegisterWorkerIngressMetrics(registry_mx_, "dynaprox_origin_",
                                      options_.worker_ingress,
                                      options_.worker_ingress_count);
  }
}

net::Handler OriginServer::AsHandler() {
  return [this](const http::Request& request) { return Handle(request); };
}

void OriginServer::HandleCapture(const http::Request& request,
                                 std::vector<CapturedFragment>* captured) {
  const char* outcome = "push_render";
  HandleDispatch(request, &outcome, captured);
}

std::vector<std::string> OriginServer::HandleRefreshHeader(
    const http::Request& request) {
  std::vector<std::string> refreshed;
  if (monitor_ == nullptr) return refreshed;
  auto refresh = request.headers.Get(bem::kRefreshHeader);
  if (!refresh.has_value()) return refreshed;
  std::vector<bem::DpcKey> keys;
  for (std::string_view key_hex : StrSplit(*refresh, ',')) {
    Result<uint64_t> key = ParseHex(StripWhitespace(key_hex));
    if (!key.ok() || *key == bem::kInvalidDpcKey) {
      DYNAPROX_LOG(kWarning, "origin")
          << "bad refresh key '" << std::string(key_hex) << "'";
      continue;
    }
    keys.push_back(*key);
  }
  // Pin in reverse so the free-list head ends up in listed (page) order:
  // the re-render's first cold block reclaims the first listed key's slot,
  // and so on — each refreshed fragment lands in the slot the DPC asked
  // about, under the slot's next key.
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    // NotFound is fine: the key's slot may have lost its valid occupant
    // between the DPC's miss and this request.
    Result<std::string> owner = monitor_->RefreshKey(*it);
    if (owner.ok()) {
      instruments_.refresh_invalidations->Increment();
      refreshed.push_back(std::move(*owner));
    }
  }
  return refreshed;
}

OriginStats OriginServer::stats() const {
  OriginStats snapshot;
  snapshot.requests = instruments_.requests->value();
  snapshot.not_found = instruments_.not_found->value();
  snapshot.script_errors = instruments_.script_errors->value();
  snapshot.refresh_invalidations =
      instruments_.refresh_invalidations->value();
  snapshot.fragment_hits = instruments_.fragment_hits->value();
  snapshot.fragment_misses = instruments_.fragment_misses->value();
  snapshot.fragment_uncacheable =
      instruments_.fragment_uncacheable->value();
  snapshot.parallel_blocks = instruments_.parallel_blocks->value();
  snapshot.body_bytes_sent = instruments_.body_bytes_sent->value();
  return snapshot;
}

void OriginServer::ApplyHeaderPadding(http::Response& response) const {
  if (options_.pad_headers_to_bytes == 0) return;
  // Head bytes as the response will serialize (incl. the implicit
  // Content-Length field).
  size_t head_size = response.SerializedSize() - response.body.size();
  // "X-Pad: " + value + CRLF costs 9 bytes of framing.
  constexpr size_t kPadFraming = 9;
  if (head_size + kPadFraming < options_.pad_headers_to_bytes) {
    size_t pad = options_.pad_headers_to_bytes - head_size - kPadFraming;
    response.headers.Add("X-Pad", std::string(pad, 'x'));
  }
}

http::Response OriginServer::RenderStatus() const {
  auto sample_entries = [this](JsonWriter& json) {
    if (monitor_ == nullptr) return;
    json.Key("sample_entries").BeginArray();
    for (const auto& entry : monitor_->SnapshotEntries(20)) {
      json.BeginObject();
      json.Key("fragment").String(entry.fragment_id);
      json.Key("key").Uint(entry.key);
      json.Key("valid").Bool(entry.is_valid);
      json.Key("age_s").Double(static_cast<double>(entry.age_micros) /
                               kMicrosPerSecond);
      json.EndObject();
    }
    json.EndArray();
  };
  return http::Response::MakeOk(
      registry_mx_.RenderJson("origin", sample_entries), "application/json");
}

http::Response OriginServer::Handle(const http::Request& request) {
  if (options_.enable_status && request.Path() == options_.status_path) {
    return RenderStatus();
  }
  if (options_.enable_metrics && request.Path() == options_.metrics_path) {
    return http::Response::MakeOk(registry_mx_.RenderPrometheus(),
                                  "text/plain; version=0.0.4");
  }
  instruments_.requests->Increment();

  MicroTime start = clock_->NowMicros();
  const char* outcome = "error";
  http::Response response = HandleDispatch(request, &outcome);
  MicroTime elapsed = clock_->NowMicros() - start;
  instruments_.request_duration->Observe(static_cast<double>(elapsed) /
                                         kMicrosPerSecond);

  if (options_.access_log != nullptr) {
    AccessLogEntry entry;
    entry.timestamp_micros = start;
    entry.component = "origin";
    // The id the DPC minted (or the client supplied); empty string when
    // the origin is hit directly without one.
    if (auto id = request.headers.Get(bem::kRequestIdHeader);
        id.has_value()) {
      entry.request_id = std::string(*id);
    }
    entry.method = request.method;
    entry.target = request.target;
    entry.status = response.status_code;
    entry.bytes_sent = response.body.size();
    entry.duration_micros = elapsed;
    entry.outcome = outcome;
    options_.access_log->Log(entry);
  }
  return response;
}

http::Response OriginServer::HandleDispatch(
    const http::Request& request, const char** outcome,
    std::vector<CapturedFragment>* capture) {
  std::vector<std::string> refreshed = HandleRefreshHeader(request);

  // Normalized dispatch: "/a/../hello" and "/hello//" reach the same
  // script, and dot-segments can never escape the root.
  Result<const ScriptFn*> script =
      registry_->Find(http::NormalizePath(request.Path()));
  if (!script.ok()) {
    instruments_.not_found->Increment();
    *outcome = "not_found";
    return http::Response::MakeError(404, "Not Found",
                                     script.status().ToString());
  }

  ScriptContext context(request, repository_, monitor_, &script_metrics_,
                        block_pool_.get());
  if (capture != nullptr) context.SetFragmentCapture(capture);
  // A refreshed fragment must re-render even if a concurrent request
  // re-inserted it after the invalidation above — the DPC is retrying
  // precisely because it does not have this content (see ForceMiss).
  for (std::string& canonical : refreshed) {
    context.ForceMiss(std::move(canonical));
  }
  Status run_status = (**script)(context);
  if (run_status.ok()) {
    // Parallel mode: generator failures surface here, in page order.
    run_status = context.FinishBlocks();
  }
  if (!run_status.ok()) {
    DYNAPROX_LOG(kError, "origin")
        << "script failure on " << request.target << ": "
        << run_status.ToString();
    instruments_.script_errors->Increment();
    *outcome = "script_error";
    return http::Response::MakeError(500, "Internal Server Error",
                                     run_status.ToString());
  }

  http::Response response = context.TakeResponse(bem::kTemplateHeader);
  ApplyHeaderPadding(response);

  if (options_.push_engine != nullptr) {
    // Remember which request produces each fragment, so the push engine
    // can re-render it when an invalidation is admitted for push.
    for (const auto& [canonical, key] : context.inserted()) {
      (void)key;
      options_.push_engine->RecordProducer(canonical, request.target);
    }
  }

  const RequestFragmentStats& frag = context.fragment_stats();
  instruments_.fragment_hits->Increment(frag.hits);
  instruments_.fragment_misses->Increment(frag.misses);
  instruments_.fragment_uncacheable->Increment(frag.uncacheable);
  instruments_.parallel_blocks->Increment(frag.parallel_blocks);
  instruments_.body_bytes_sent->Increment(response.body.size());
  *outcome = response.headers.Has(bem::kTemplateHeader) ? "template"
                                                        : "page";
  return response;
}

}  // namespace dynaprox::appserver
