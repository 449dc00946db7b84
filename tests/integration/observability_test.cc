// End-to-end observability: the Prometheus metrics endpoints, the
// structured access logs, and the request id that joins one request's
// log lines across the DPC and the origin (docs/observability.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <set>
#include <sstream>

#include "appserver/origin_server.h"
#include "appserver/script_registry.h"
#include "bem/monitor.h"
#include "bem/protocol.h"
#include "common/access_log.h"
#include "common/clock.h"
#include "dpc/proxy.h"
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
// object values (":123") and bare array elements ("[1,2]").
std::string MaskNumbers(const std::string& json) {
  return std::regex_replace(
      json, std::regex("([:\\[,])(-?[0-9][0-9.eE+-]*)"), "$1N");
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
  Result<http::Response> RoundTrip(const http::Request&) override {
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

// Regression: /status must stay byte-compatible (modulo counter values) —
// dashboards and scripts parse it. If this golden changes, the change
// must be deliberate and documented in docs/observability.md.
TEST_F(ObservabilityTest, ProxyStatusSkeletonIsByteCompatible) {
  proxy_->Handle(Get("/page"));
  http::Response status = proxy_->Handle(Get("/_dynaprox/status"));
  ASSERT_EQ(status.status_code, 200);
  EXPECT_EQ(
      MaskNumbers(status.body),
      "{\"component\":\"dpc\",\"requests\":N,\"assembled\":N,"
      "\"passthrough\":N,\"recoveries\":N,\"upstream_errors\":N,"
      "\"template_errors\":N,\"stale_served\":N,\"breaker_rejections\":N,"
      "\"degraded_503s\":N,\"bytes_from_upstream\":N,"
      "\"bytes_to_clients\":N,\"streamed\":N,"
      "\"stream_aborts\":N,\"deadline_exceeded\":N,"
      "\"store\":{\"capacity\":N,"
      "\"occupied_slots\":N,\"content_bytes\":N,"
      "\"bytes\":[N,N,N,N,N,N,N,N,N,N,N,N,N,N,N,N],"
      "\"sets\":N,\"gets\":N,"
      "\"get_misses\":N,\"pushes\":N,\"pushed_slots\":N},"
      "\"static_cache\":{\"entries\":N,\"hits\":N,"
      "\"misses\":N,\"stores\":N,\"revalidations\":N,\"stale_served\":N,"
      "\"evictions\":N}}");
}

TEST_F(ObservabilityTest, OriginStatusSkeletonIsByteCompatible) {
  origin_->Handle(Get("/page"));
  http::Response status = origin_->Handle(Get("/_dynaprox/status"));
  ASSERT_EQ(status.status_code, 200);
  EXPECT_EQ(
      MaskNumbers(status.body),
      "{\"component\":\"origin\",\"caching_enabled\":true,\"requests\":N,"
      "\"not_found\":N,\"script_errors\":N,\"refresh_invalidations\":N,"
      "\"body_bytes_sent\":N,\"fragments\":{\"hits\":N,\"misses\":N,"
      "\"uncacheable\":N,\"parallel_blocks\":N},\"directory\":{"
      "\"capacity\":N,\"hits\":N,"
      "\"misses\":N,\"hit_ratio\":N,\"inserts\":N,\"ttl_invalidations\":N,"
      "\"explicit_invalidations\":N,\"evictions\":N,"
      "\"concurrency\":{\"stripe_contentions\":N,\"policy_contentions\":N,"
      "\"free_list_contentions\":N,\"registry_contentions\":N,"
      "\"insert_races\":N},"
      "\"sample_entries\":[{\"fragment\":\"f\",\"key\":N,\"valid\":true,"
      "\"age_s\":N}]}}");
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
