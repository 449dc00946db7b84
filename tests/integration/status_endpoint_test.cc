// Status (observability) endpoints on the origin and the DPC.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "appserver/origin_server.h"
#include "appserver/script_registry.h"
#include "bem/monitor.h"
#include "common/clock.h"
#include "dpc/proxy.h"
#include "net/connection_pool.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "storage/table.h"

namespace dynaprox {
namespace {

class StatusEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_.RegisterOrReplace(
        "/page", [](appserver::ScriptContext& context) {
          return context.CacheableBlock(bem::FragmentId("f"),
                                        [](appserver::ScriptContext& ctx) {
                                          ctx.Emit("body");
                                          return Status::Ok();
                                        });
        });
    bem::BemOptions bem_options;
    bem_options.capacity = 8;
    bem_options.clock = &clock_;
    monitor_ = *bem::BackEndMonitor::Create(bem_options);

    appserver::OriginOptions origin_options;
    origin_options.enable_status = true;
    origin_ = std::make_unique<appserver::OriginServer>(
        &registry_, &repository_, monitor_.get(), origin_options);
    upstream_ =
        std::make_unique<net::DirectTransport>(origin_->AsHandler());

    dpc::ProxyOptions proxy_options;
    proxy_options.capacity = 8;
    proxy_options.enable_status = true;
    proxy_options.enable_static_cache = true;
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
  std::unique_ptr<appserver::OriginServer> origin_;
  std::unique_ptr<net::DirectTransport> upstream_;
  std::unique_ptr<dpc::DpcProxy> proxy_;
};

TEST_F(StatusEndpointTest, OriginStatusReportsCounters) {
  origin_->Handle(Get("/page"));
  origin_->Handle(Get("/page"));
  http::Response status = origin_->Handle(Get("/_dynaprox/status"));
  ASSERT_EQ(status.status_code, 200);
  EXPECT_EQ(*status.headers.Get("Content-Type"), "application/json");
  EXPECT_NE(status.body.find("\"component\":\"origin\""),
            std::string::npos);
  EXPECT_NE(status.body.find("\"dynaprox_origin_requests_total\":2"),
            std::string::npos);
  // Caching is on: the directory's series are present, with one miss and
  // one hit, and the cached fragment listed in the sample.
  EXPECT_NE(status.body.find("\"dynaprox_bem_directory_capacity\":8"),
            std::string::npos);
  EXPECT_NE(status.body.find("\"dynaprox_bem_directory_hits_total\":1"),
            std::string::npos);
  EXPECT_NE(status.body.find("\"dynaprox_bem_directory_misses_total\":1"),
            std::string::npos);
  EXPECT_NE(status.body.find("\"sample_entries\":[{\"fragment\":\"f\""),
            std::string::npos);
}

TEST_F(StatusEndpointTest, StatusRequestsNotCountedAsTraffic) {
  origin_->Handle(Get("/_dynaprox/status"));
  http::Response status = origin_->Handle(Get("/_dynaprox/status"));
  EXPECT_NE(status.body.find("\"dynaprox_origin_requests_total\":0"),
            std::string::npos);
}

TEST_F(StatusEndpointTest, ProxyStatusServedLocally) {
  proxy_->Handle(Get("/page"));
  http::Response status = proxy_->Handle(Get("/_dynaprox/status"));
  ASSERT_EQ(status.status_code, 200);
  EXPECT_NE(status.body.find("\"component\":\"dpc\""), std::string::npos);
  EXPECT_NE(status.body.find("\"dynaprox_assembled_total\":1"),
            std::string::npos);
  EXPECT_NE(status.body.find("\"dynaprox_store_capacity\":8"),
            std::string::npos);
  EXPECT_NE(status.body.find("\"dynaprox_store_occupied_slots\":1"),
            std::string::npos);
  EXPECT_NE(status.body.find("\"dynaprox_static_cache_entries\":"),
            std::string::npos);
  // The proxy answered locally: only /page reached the origin.
  EXPECT_EQ(origin_->stats().requests, 1u);
}

TEST_F(StatusEndpointTest, ProxyStatusExposesUpstreamPoolGauges) {
  net::TcpServer origin_server(
      [](const http::Request&) { return http::Response::MakeOk("hi"); });
  ASSERT_TRUE(origin_server.Start().ok());
  net::PooledClientTransport upstream("127.0.0.1", origin_server.port());

  dpc::ProxyOptions options;
  options.capacity = 8;
  options.enable_status = true;
  options.upstream_pool = &upstream.pool();
  dpc::DpcProxy proxy(&upstream, options);

  proxy.Handle(Get("/page"));
  http::Response status = proxy.Handle(Get("/_dynaprox/status"));
  ASSERT_EQ(status.status_code, 200);
  for (const char* field : {
           "\"dynaprox_upstream_pool_open_connections\":1",
           "\"dynaprox_upstream_pool_checkouts_total\":1",
           "\"dynaprox_upstream_pool_reconnects_total\":0",
           "\"dynaprox_upstream_pool_wait_queue_depth\":0",
           "\"dynaprox_upstream_pool_wait_seconds\":{\"count\":0,"}) {
    EXPECT_NE(status.body.find(field), std::string::npos) << field;
  }
  origin_server.Stop();
}

// The pool records its blocked-checkout wait in microseconds; the proxy
// exports it as a histogram in seconds.
TEST_F(StatusEndpointTest, ProxyStatusReportsPoolWaitInSeconds) {
  net::TcpServer origin_server(
      [](const http::Request&) { return http::Response::MakeOk("hi"); });
  ASSERT_TRUE(origin_server.Start().ok());
  net::PooledTransportOptions pool_options;
  pool_options.pool.max_connections = 1;
  net::PooledClientTransport upstream("127.0.0.1", origin_server.port(),
                                      pool_options);
  dpc::ProxyOptions options;
  options.capacity = 8;
  options.enable_status = true;
  options.upstream_pool = &upstream.pool();
  dpc::DpcProxy proxy(&upstream, options);

  // Hold the only connection for 30 ms, so the proxy's checkout blocks.
  Result<net::ConnectionPool::Connection> held = upstream.pool().Checkout();
  ASSERT_TRUE(held.ok());
  std::thread releaser([&upstream, &held] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    upstream.pool().Checkin(*held, /*reusable=*/true);
  });
  EXPECT_EQ(proxy.Handle(Get("/page")).status_code, 200);
  releaser.join();

  std::string body = proxy.Handle(Get("/_dynaprox/status")).body;
  const std::string key =
      "\"dynaprox_upstream_pool_wait_seconds\":{\"count\":1,\"sum\":";
  size_t at = body.find(key);
  ASSERT_NE(at, std::string::npos) << body;
  double sum = std::stod(body.substr(at + key.size()));
  EXPECT_GE(sum, 0.025);
  EXPECT_LT(sum, 5.0);  // Seconds, not microseconds.
  origin_server.Stop();
}

TEST_F(StatusEndpointTest, DisabledByDefaultPathFallsThrough) {
  appserver::OriginServer plain(&registry_, &repository_, nullptr);
  EXPECT_EQ(plain.Handle(Get("/_dynaprox/status")).status_code, 404);
}

TEST_F(StatusEndpointTest, CustomStatusPath) {
  appserver::OriginOptions options;
  options.enable_status = true;
  options.status_path = "/healthz";
  appserver::OriginServer origin(&registry_, &repository_, nullptr,
                                 options);
  EXPECT_EQ(origin.Handle(Get("/healthz")).status_code, 200);
  EXPECT_EQ(origin.Handle(Get("/_dynaprox/status")).status_code, 404);
}

}  // namespace
}  // namespace dynaprox
