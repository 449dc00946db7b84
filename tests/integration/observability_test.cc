// End-to-end observability: the Prometheus metrics endpoints, the status
// documents rendered from the same registries, the structured access
// logs, and the request id that joins one request's log lines across the
// DPC and the origin (docs/observability.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <regex>
#include <set>
#include <sstream>
#include <thread>

#include "appserver/origin_server.h"
#include "appserver/push_engine.h"
#include "appserver/script_registry.h"
#include "bem/monitor.h"
#include "bem/protocol.h"
#include "common/access_log.h"
#include "common/clock.h"
#include "dpc/proxy.h"
#include "net/circuit_breaker.h"
#include "net/connection_pool.h"
#include "net/server_limits.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "storage/table.h"

namespace dynaprox {
namespace {

// Extracts the string value of `key` from a one-line JSON object.
std::string JsonField(const std::string& line, const std::string& key) {
  std::smatch match;
  if (!std::regex_search(
          line, match,
          std::regex("\"" + key + "\":\"([^\"]*)\""))) {
    return "";
  }
  return match[1].str();
}

// Checks the Prometheus text exposition (version 0.0.4) shape: every
// non-comment line is `name[{labels}] value`, and every sample name was
// announced by a preceding # TYPE.
void ExpectValidExposition(const std::string& text) {
  std::regex type_line("# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) "
                       "(counter|gauge|histogram)");
  std::regex sample_line(
      "([a-zA-Z_:][a-zA-Z0-9_:]*)(\\{[^}]*\\})? "
      "(-?[0-9.]+(e[+-]?[0-9]+)?|\\+Inf|NaN)");
  std::set<std::string> announced;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0) continue;
    std::smatch match;
    if (line.rfind("# TYPE ", 0) == 0) {
      ASSERT_TRUE(std::regex_match(line, match, type_line)) << line;
      announced.insert(match[1].str());
      continue;
    }
    ASSERT_TRUE(std::regex_match(line, match, sample_line)) << line;
    std::string base = match[1].str();
    // Histogram series use the announced name plus a suffix.
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      std::string with_suffix = base;
      size_t pos = with_suffix.rfind(suffix);
      if (pos != std::string::npos &&
          pos + std::string(suffix).size() == with_suffix.size()) {
        with_suffix.resize(pos);
        if (announced.count(with_suffix) != 0) base = with_suffix;
      }
    }
    EXPECT_EQ(announced.count(base), 1u) << "unannounced sample: " << line;
  }
}

// Masks every JSON number so counter values don't affect comparison; the
// key set, nesting, and key order must stay byte-identical. Handles both
// object values (":123") and bare array elements ("[1,2]"). Fault points
// register lazily and process-wide, so the label set of
// dynaprox_fault_injections_total depends on which seams earlier tests
// in this binary evaluated: its keys are masked too.
std::string MaskNumbers(const std::string& json) {
  std::string masked = std::regex_replace(
      json, std::regex("([:\\[,])(-?[0-9][0-9.eE+-]*)"), "$1N");
  return std::regex_replace(
      masked, std::regex("(\"dynaprox_fault_injections_total\":)\\{[^}]*\\}"),
      "$1{...}");
}

// The text after `"key":` in `json` up to the next ',' or '}': one JSON
// number. Empty when the key is absent.
std::string NumberAt(const std::string& json, const std::string& key) {
  size_t pos = json.find("\"" + key + "\":");
  if (pos == std::string::npos) return "";
  pos += key.size() + 3;
  return json.substr(pos, json.find_first_of(",}", pos) - pos);
}

// The body of the object `"key":{...}` in `json` (no nested objects).
std::string ObjectAt(const std::string& json, const std::string& key) {
  size_t pos = json.find("\"" + key + "\":{");
  if (pos == std::string::npos) return "";
  pos += key.size() + 4;
  return json.substr(pos, json.find('}', pos) - pos);
}

std::string SixDigits(const std::string& number) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", std::stod(number));
  return buf;
}

// Every sample in `exposition` must equal the same key of `status`, the
// two being renderings of one registry: a counter or gauge is the
// metric's key, a labeled sample the label's key inside it, and a
// histogram's _count/_sum its "count"/"sum" (buckets are exposition-only).
// Whole numbers must match exactly, others to 6 significant digits.
// Returns the number of samples compared.
int ExpectStatusAgrees(const std::string& exposition,
                       const std::string& status) {
  std::regex type_line("# TYPE (\\S+) (\\S+)");
  std::regex sample_line(
      "([a-zA-Z_:][a-zA-Z0-9_:]*)(\\{[a-z]+=\"([^\"]*)\"\\})? (\\S+)");
  std::set<std::string> histograms;
  int compared = 0;
  std::istringstream lines(exposition);
  std::string line;
  while (std::getline(lines, line)) {
    std::smatch match;
    if (std::regex_match(line, match, type_line)) {
      if (match[2] == "histogram") histograms.insert(match[1]);
      EXPECT_NE(status.find("\"" + match[1].str() + "\":"),
                std::string::npos)
          << "status lacks " << match[1];
      continue;
    }
    if (line.rfind("# ", 0) == 0) continue;
    if (!std::regex_match(line, match, sample_line)) {
      ADD_FAILURE() << "malformed sample: " << line;
      continue;
    }
    const std::string name = match[1];
    const std::string value = match[4];
    std::string in_status;
    std::string base = name.substr(0, name.rfind('_'));
    if (histograms.count(base) != 0) {
      std::string field = name.substr(base.size() + 1);
      if (field == "bucket") continue;
      in_status = NumberAt(ObjectAt(status, base), field);
    } else if (match[2].matched) {
      in_status = NumberAt(ObjectAt(status, name), match[3]);
    } else {
      in_status = NumberAt(status, name);
    }
    ++compared;
    if (value.find_first_of(".eE") == std::string::npos) {
      EXPECT_EQ(in_status, value) << line;
    } else if (in_status.empty()) {
      ADD_FAILURE() << "status lacks " << line;
    } else {
      EXPECT_EQ(SixDigits(in_status), SixDigits(value)) << line;
    }
  }
  return compared;
}

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_.RegisterOrReplace(
        "/page", [](appserver::ScriptContext& context) {
          context.Emit("<h1>hi</h1>");
          return context.CacheableBlock(bem::FragmentId("f"),
                                        [](appserver::ScriptContext& ctx) {
                                          ctx.Emit("fragment body");
                                          return Status::Ok();
                                        });
        });
    bem::BemOptions bem_options;
    bem_options.capacity = 8;
    bem_options.clock = &clock_;
    monitor_ = *bem::BackEndMonitor::Create(bem_options);

    appserver::OriginOptions origin_options;
    origin_options.enable_status = true;
    origin_options.enable_metrics = true;
    origin_options.access_log = &origin_log_;
    origin_options.clock = &clock_;
    origin_ = std::make_unique<appserver::OriginServer>(
        &registry_, &repository_, monitor_.get(), origin_options);
    upstream_ =
        std::make_unique<net::DirectTransport>(origin_->AsHandler());

    dpc::ProxyOptions proxy_options;
    proxy_options.capacity = 8;
    proxy_options.enable_status = true;
    proxy_options.enable_metrics = true;
    proxy_options.enable_static_cache = true;
    proxy_options.access_log = &proxy_log_;
    proxy_options.clock = &clock_;
    proxy_ = std::make_unique<dpc::DpcProxy>(upstream_.get(), proxy_options);
  }

  http::Request Get(const std::string& target) {
    http::Request request;
    request.target = target;
    return request;
  }

  SimClock clock_;
  storage::ContentRepository repository_;
  appserver::ScriptRegistry registry_;
  std::unique_ptr<bem::BackEndMonitor> monitor_;
  std::ostringstream origin_log_stream_;
  std::ostringstream proxy_log_stream_;
  AccessLogger origin_log_{&origin_log_stream_};
  AccessLogger proxy_log_{&proxy_log_stream_};
  std::unique_ptr<appserver::OriginServer> origin_;
  std::unique_ptr<net::DirectTransport> upstream_;
  std::unique_ptr<dpc::DpcProxy> proxy_;
};

TEST_F(ObservabilityTest, ProxyMetricsEndpointExposesRequiredSeries) {
  proxy_->Handle(Get("/page"));
  proxy_->Handle(Get("/page"));
  http::Response metrics = proxy_->Handle(Get("/_dynaprox/metrics"));
  ASSERT_EQ(metrics.status_code, 200);
  EXPECT_EQ(*metrics.headers.Get("Content-Type"),
            "text/plain; version=0.0.4");
  ExpectValidExposition(metrics.body);

  // The per-stage histograms named in the acceptance criteria.
  EXPECT_NE(metrics.body.find(
                "# TYPE dynaprox_request_duration_seconds histogram"),
            std::string::npos);
  EXPECT_NE(metrics.body.find(
                "# TYPE dynaprox_upstream_fetch_duration_seconds histogram"),
            std::string::npos);
  EXPECT_NE(
      metrics.body.find("# TYPE dynaprox_scan_duration_seconds histogram"),
      std::string::npos);
  EXPECT_NE(
      metrics.body.find("# TYPE dynaprox_splice_duration_seconds histogram"),
      std::string::npos);
  EXPECT_NE(metrics.body.find(
                "dynaprox_request_duration_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("dynaprox_request_duration_seconds_count 2"),
            std::string::npos);

  // Every pre-existing /status counter has a metric.
  for (const char* name :
       {"dynaprox_requests_total", "dynaprox_passthrough_total",
        "dynaprox_assembled_total", "dynaprox_recoveries_total",
        "dynaprox_upstream_errors_total", "dynaprox_template_errors_total",
        "dynaprox_static_hits_total", "dynaprox_static_revalidations_total",
        "dynaprox_stale_served_total", "dynaprox_breaker_rejections_total",
        "dynaprox_degraded_503s_total", "dynaprox_bytes_from_upstream_total",
        "dynaprox_bytes_to_clients_total", "dynaprox_store_capacity",
        "dynaprox_store_occupied_slots", "dynaprox_store_content_bytes",
        "dynaprox_store_sets_total", "dynaprox_store_gets_total",
        "dynaprox_store_get_misses_total", "dynaprox_static_cache_entries",
        "dynaprox_static_cache_hits_total"}) {
    EXPECT_NE(metrics.body.find(std::string("\n") + name + " "),
              std::string::npos)
        << "missing metric " << name;
  }

  EXPECT_NE(metrics.body.find("dynaprox_requests_total 2"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("dynaprox_assembled_total 2"),
            std::string::npos);
}

TEST_F(ObservabilityTest, OriginMetricsEndpointExposesBemStageHistograms) {
  proxy_->Handle(Get("/page"));
  http::Response metrics = origin_->Handle(Get("/_dynaprox/metrics"));
  ASSERT_EQ(metrics.status_code, 200);
  ExpectValidExposition(metrics.body);
  for (const char* name :
       {"dynaprox_origin_requests_total", "dynaprox_origin_not_found_total",
        "dynaprox_origin_fragment_hits_total",
        "dynaprox_origin_fragment_misses_total",
        "dynaprox_bem_directory_hits_total",
        "dynaprox_bem_directory_capacity",
        "dynaprox_bem_directory_valid_entries",
        "dynaprox_bem_dependency_fragments"}) {
    EXPECT_NE(metrics.body.find(name), std::string::npos)
        << "missing metric " << name;
  }
  EXPECT_NE(
      metrics.body.find(
          "# TYPE dynaprox_bem_directory_lookup_duration_seconds histogram"),
      std::string::npos);
  EXPECT_NE(
      metrics.body.find(
          "# TYPE dynaprox_bem_block_execution_duration_seconds histogram"),
      std::string::npos);
  EXPECT_NE(metrics.body.find(
                "# TYPE dynaprox_bem_tag_emission_duration_seconds histogram"),
            std::string::npos);
  // One cacheable block ran: one directory lookup, one generator run.
  EXPECT_NE(
      metrics.body.find("dynaprox_bem_directory_lookup_duration_seconds_count 1"),
      std::string::npos);
  EXPECT_NE(
      metrics.body.find("dynaprox_bem_block_execution_duration_seconds_count 1"),
      std::string::npos);
}

TEST_F(ObservabilityTest, MetricsEndpointDisabledFallsThrough) {
  dpc::ProxyOptions options;
  options.capacity = 8;
  options.enable_metrics = false;
  dpc::DpcProxy plain(upstream_.get(), options);
  // Forwarded upstream like any other path; the origin has no such
  // script registered once its own endpoint is also off.
  appserver::OriginServer bare(&registry_, &repository_, nullptr);
  net::DirectTransport bare_upstream(bare.AsHandler());
  dpc::DpcProxy bare_proxy(&bare_upstream, options);
  EXPECT_EQ(bare_proxy.Handle(Get("/_dynaprox/metrics")).status_code, 404);
}

TEST_F(ObservabilityTest, RequestIdJoinsProxyAndOriginLogLines) {
  http::Response response = proxy_->Handle(Get("/page?id=1"));
  ASSERT_EQ(response.status_code, 200);

  // The id the proxy minted is echoed to the client...
  auto echoed = response.headers.Get(bem::kRequestIdHeader);
  ASSERT_TRUE(echoed.has_value());
  EXPECT_FALSE(echoed->empty());

  // ...and appears in exactly one log line on each tier.
  std::string proxy_line = proxy_log_stream_.str();
  std::string origin_line = origin_log_stream_.str();
  ASSERT_EQ(std::count(proxy_line.begin(), proxy_line.end(), '\n'), 1);
  ASSERT_EQ(std::count(origin_line.begin(), origin_line.end(), '\n'), 1);
  std::string proxy_id = JsonField(proxy_line, "id");
  std::string origin_id = JsonField(origin_line, "id");
  EXPECT_FALSE(proxy_id.empty());
  EXPECT_EQ(proxy_id, origin_id);
  EXPECT_EQ(proxy_id, *echoed);

  EXPECT_EQ(JsonField(proxy_line, "component"), "dpc");
  EXPECT_EQ(JsonField(origin_line, "component"), "origin");
  EXPECT_EQ(JsonField(proxy_line, "path"), "/page?id=1");
  EXPECT_EQ(JsonField(proxy_line, "outcome"), "assembled");
  EXPECT_EQ(JsonField(origin_line, "outcome"), "template");
}

TEST_F(ObservabilityTest, ClientSuppliedRequestIdIsHonored) {
  http::Request request = Get("/page");
  request.headers.Set(bem::kRequestIdHeader, "client-7");
  http::Response response = proxy_->Handle(request);
  EXPECT_EQ(*response.headers.Get(bem::kRequestIdHeader), "client-7");
  EXPECT_EQ(JsonField(proxy_log_stream_.str(), "id"), "client-7");
  EXPECT_EQ(JsonField(origin_log_stream_.str(), "id"), "client-7");
}

class DeadTransport : public net::Transport {
 public:
  Result<net::StreamingResponse> RoundTripStreaming(
      const http::Request&) override {
    return Status::IoError("origin down");
  }
};

TEST_F(ObservabilityTest, AccessLogRecordsFailuresWithOutcome) {
  DeadTransport dead;
  std::ostringstream log_stream;
  AccessLogger log(&log_stream);
  dpc::ProxyOptions options;
  options.capacity = 8;
  options.access_log = &log;
  options.clock = &clock_;
  dpc::DpcProxy proxy(&dead, options);
  http::Response response = proxy.Handle(Get("/page"));
  EXPECT_EQ(response.status_code, 502);
  EXPECT_EQ(JsonField(log_stream.str(), "outcome"), "upstream_error");
}

// The status document's skeleton: the registry's metric names, in
// registration order, with every number masked. A new series changes it
// on purpose; docs/observability.md describes the shape.
TEST_F(ObservabilityTest, ProxyStatusSkeletonIsByteCompatible) {
  proxy_->Handle(Get("/page"));
  http::Response status = proxy_->Handle(Get("/_dynaprox/status"));
  ASSERT_EQ(status.status_code, 200);
  EXPECT_EQ(*status.headers.Get("Content-Type"), "application/json");
  EXPECT_EQ(
      MaskNumbers(status.body),
      "{\"component\":\"dpc\","
      "\"dynaprox_requests_total\":N,"
      "\"dynaprox_passthrough_total\":N,"
      "\"dynaprox_assembled_total\":N,"
      "\"dynaprox_recoveries_total\":N,"
      "\"dynaprox_upstream_errors_total\":N,"
      "\"dynaprox_template_errors_total\":N,"
      "\"dynaprox_static_hits_total\":N,"
      "\"dynaprox_static_revalidations_total\":N,"
      "\"dynaprox_stale_served_total\":N,"
      "\"dynaprox_breaker_rejections_total\":N,"
      "\"dynaprox_degraded_503s_total\":N,"
      "\"dynaprox_bytes_from_upstream_total\":N,"
      "\"dynaprox_bytes_to_clients_total\":N,"
      "\"dynaprox_dpc_body_bytes_copied_total\":N,"
      "\"dynaprox_dpc_body_bytes_referenced_total\":N,"
      "\"dynaprox_streamed_total\":N,"
      "\"dynaprox_stream_aborts_total\":N,"
      "\"dynaprox_deadline_exceeded_total\":N,"
      "\"dynaprox_fault_injections_total\":{...},"
      "\"dynaprox_request_duration_seconds\":"
      "{\"count\":N,\"sum\":N,\"p50\":N,\"p99\":N},"
      "\"dynaprox_upstream_fetch_duration_seconds\":"
      "{\"count\":N,\"sum\":N,\"p50\":N,\"p99\":N},"
      "\"dynaprox_scan_duration_seconds\":"
      "{\"count\":N,\"sum\":N,\"p50\":N,\"p99\":N},"
      "\"dynaprox_splice_duration_seconds\":"
      "{\"count\":N,\"sum\":N,\"p50\":N,\"p99\":N},"
      "\"dynaprox_ttfb_seconds\":"
      "{\"count\":N,\"sum\":N,\"p50\":N,\"p99\":N},"
      "\"dynaprox_store_capacity\":N,"
      "\"dynaprox_store_occupied_slots\":N,"
      "\"dynaprox_store_content_bytes\":N,"
      "\"dynaprox_dpc_fragment_bytes\":{\"0\":N,\"1\":N,\"2\":N,\"3\":N,"
      "\"4\":N,\"5\":N,\"6\":N,\"7\":N,\"8\":N,\"9\":N,\"10\":N,\"11\":N,"
      "\"12\":N,\"13\":N,\"14\":N,\"15\":N},"
      "\"dynaprox_store_sets_total\":N,"
      "\"dynaprox_store_gets_total\":N,"
      "\"dynaprox_store_get_misses_total\":N,"
      "\"dynaprox_store_pushes_total\":N,"
      "\"dynaprox_store_stale_sets_total\":N,"
      "\"dynaprox_store_set_waits_total\":N,"
      "\"dynaprox_store_pushed_slots\":N,"
      "\"dynaprox_static_cache_entries\":N,"
      "\"dynaprox_static_cache_hits_total\":N,"
      "\"dynaprox_static_cache_misses_total\":N,"
      "\"dynaprox_static_cache_stores_total\":N,"
      "\"dynaprox_static_cache_revalidations_total\":N,"
      "\"dynaprox_static_cache_stale_served_total\":N,"
      "\"dynaprox_static_cache_evictions_total\":N}");
}

TEST_F(ObservabilityTest, OriginStatusSkeletonIsByteCompatible) {
  origin_->Handle(Get("/page"));
  http::Response status = origin_->Handle(Get("/_dynaprox/status"));
  ASSERT_EQ(status.status_code, 200);
  EXPECT_EQ(
      MaskNumbers(status.body),
      "{\"component\":\"origin\","
      "\"dynaprox_origin_requests_total\":N,"
      "\"dynaprox_origin_not_found_total\":N,"
      "\"dynaprox_origin_script_errors_total\":N,"
      "\"dynaprox_origin_refresh_invalidations_total\":N,"
      "\"dynaprox_origin_fragment_hits_total\":N,"
      "\"dynaprox_origin_fragment_misses_total\":N,"
      "\"dynaprox_origin_fragment_uncacheable_total\":N,"
      "\"dynaprox_origin_parallel_blocks_total\":N,"
      "\"dynaprox_origin_body_bytes_sent_total\":N,"
      "\"dynaprox_origin_request_duration_seconds\":"
      "{\"count\":N,\"sum\":N,\"p50\":N,\"p99\":N},"
      "\"dynaprox_bem_directory_lookup_duration_seconds\":"
      "{\"count\":N,\"sum\":N,\"p50\":N,\"p99\":N},"
      "\"dynaprox_bem_block_execution_duration_seconds\":"
      "{\"count\":N,\"sum\":N,\"p50\":N,\"p99\":N},"
      "\"dynaprox_bem_tag_emission_duration_seconds\":"
      "{\"count\":N,\"sum\":N,\"p50\":N,\"p99\":N},"
      "\"dynaprox_fault_injections_total\":{...},"
      "\"dynaprox_bem_directory_capacity\":N,"
      "\"dynaprox_bem_directory_valid_entries\":N,"
      "\"dynaprox_bem_dependency_fragments\":N,"
      "\"dynaprox_bem_directory_hits_total\":N,"
      "\"dynaprox_bem_directory_misses_total\":N,"
      "\"dynaprox_bem_directory_inserts_total\":N,"
      "\"dynaprox_bem_directory_ttl_invalidations_total\":N,"
      "\"dynaprox_bem_directory_explicit_invalidations_total\":N,"
      "\"dynaprox_bem_directory_evictions_total\":N,"
      "\"dynaprox_bem_stripe_contentions_total\":N,"
      "\"dynaprox_bem_policy_contentions_total\":N,"
      "\"dynaprox_bem_free_list_contentions_total\":N,"
      "\"dynaprox_bem_registry_contentions_total\":N,"
      "\"dynaprox_bem_insert_races_total\":N,"
      "\"sample_entries\":[{\"fragment\":\"f\",\"key\":N,\"valid\":true,"
      "\"age_s\":N}]}");
}

// One source for every counter: with every optional block wired on both
// tiers, each sample of /_dynaprox/metrics equals the same key of
// /_dynaprox/status, scraped back to back.
TEST(StatusAgreementTest, EveryExposedSampleMatchesTheStatusDocument) {
  SimClock clock;
  storage::ContentRepository repository;
  appserver::ScriptRegistry scripts;
  scripts.RegisterOrReplace("/page", [](appserver::ScriptContext& context) {
    context.Emit("<h1>hi</h1>");
    for (const char* id : {"a", "b"}) {
      Status block = context.CacheableBlock(
          bem::FragmentId(id), [id](appserver::ScriptContext& ctx) {
            ctx.Emit(std::string("fragment ") + id);
            return Status::Ok();
          });
      if (!block.ok()) return block;
    }
    return Status::Ok();
  });
  bem::BemOptions bem_options;
  bem_options.capacity = 8;
  bem_options.clock = &clock;
  std::unique_ptr<bem::BackEndMonitor> monitor =
      *bem::BackEndMonitor::Create(bem_options);
  appserver::PushEngine engine(bem::PushPolicy{}, &clock);
  monitor->SetObserver(&engine.scheduler());

  net::IngressCounters origin_ingress;
  appserver::OriginOptions origin_options;
  origin_options.enable_status = true;
  origin_options.enable_metrics = true;
  origin_options.clock = &clock;
  origin_options.block_workers = 2;
  origin_options.push_engine = &engine;
  origin_options.ingress = &origin_ingress;
  appserver::OriginServer origin(&scripts, &repository, monitor.get(),
                                 origin_options);
  engine.AttachOrigin(&origin);
  net::ServerLimits limits;
  limits.counters = &origin_ingress;
  net::TcpServer server(origin.AsHandler(), 0, limits);
  ASSERT_TRUE(server.Start().ok());

  net::PooledClientTransport pooled("127.0.0.1", server.port());
  net::CircuitBreakerTransport guarded(&pooled);
  net::IngressCounters proxy_ingress;
  net::IngressCounters proxy_workers[2];
  proxy_ingress.accepted_total = 5;
  proxy_workers[0].accepted_total = 2;
  proxy_workers[1].accepted_total = 3;
  dpc::ProxyOptions proxy_options;
  proxy_options.capacity = 8;
  proxy_options.enable_status = true;
  proxy_options.enable_metrics = true;
  proxy_options.clock = &clock;
  proxy_options.upstream_pool = &pooled.pool();
  proxy_options.upstream_breaker = &guarded.breaker();
  proxy_options.serve_stale = true;
  proxy_options.enable_static_cache = true;
  proxy_options.ingress = &proxy_ingress;
  proxy_options.worker_ingress = proxy_workers;
  proxy_options.worker_ingress_count = 2;
  proxy_options.enable_push = true;
  proxy_options.miss_resolver = [](bem::DpcKey) {
    return Status::NotFound("no peer holds the fragment");
  };
  dpc::DpcProxy proxy(&guarded, proxy_options);

  http::Request page;
  page.target = "/page";
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(proxy.Handle(page).status_code, 200);
  }

  // Back-to-back scrapes, retried until the exposition reads the same
  // before and after the status document: background threads may still
  // be settling (a block-pool worker counts a task after running it).
  auto scrape = [](auto& tier, std::string* metrics, std::string* status) {
    http::Request metrics_request;
    metrics_request.target = "/_dynaprox/metrics";
    http::Request status_request;
    status_request.target = "/_dynaprox/status";
    for (int attempt = 0; attempt < 100; ++attempt) {
      *metrics = tier.Handle(metrics_request).body;
      *status = tier.Handle(status_request).body;
      if (tier.Handle(metrics_request).body == *metrics) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ADD_FAILURE() << "counters never settled";
  };
  std::string proxy_metrics, proxy_status, origin_metrics, origin_status;
  scrape(proxy, &proxy_metrics, &proxy_status);
  scrape(origin, &origin_metrics, &origin_status);
  server.Stop();

  // The series that used to be status-only are exported now.
  for (const char* name : {"dynaprox_upstream_breaker_window_samples",
                           "dynaprox_upstream_pool_wait_seconds"}) {
    EXPECT_NE(proxy_metrics.find(std::string("# TYPE ") + name),
              std::string::npos)
        << name;
  }
  EXPECT_NE(origin_metrics.find(
                "# TYPE dynaprox_origin_block_pool_peak_queue_depth gauge"),
            std::string::npos);

  EXPECT_GT(ExpectStatusAgrees(proxy_metrics, proxy_status), 100)
      << proxy_status;
  EXPECT_GT(ExpectStatusAgrees(origin_metrics, origin_status), 50)
      << origin_status;
}

TEST_F(ObservabilityTest, SimClockDrivesDurations) {
  // With a SimClock that never advances, durations are exactly zero and
  // land in the first bucket.
  proxy_->Handle(Get("/page"));
  http::Response metrics = proxy_->Handle(Get("/_dynaprox/metrics"));
  EXPECT_NE(metrics.body.find(
                "dynaprox_request_duration_seconds_bucket{le=\"0.0001\"} 1"),
            std::string::npos);
  EXPECT_EQ(JsonField(proxy_log_stream_.str(), "outcome"), "assembled");
  EXPECT_NE(proxy_log_stream_.str().find("\"duration_us\":0"),
            std::string::npos);
}

}  // namespace
}  // namespace dynaprox
