// Origin-failure resilience, end to end: a warmed DPC keeps answering
// from its last-assembled-page cache while the origin is black-holed,
// the circuit breaker stops per-request dial attempts, and the stack
// recovers through half-open probes once the origin returns.

#include <string>

#include <gtest/gtest.h>

#include "appserver/origin_server.h"
#include "appserver/script_registry.h"
#include "bem/monitor.h"
#include "bem/protocol.h"
#include "bem/tag_codec.h"
#include "common/clock.h"
#include "dpc/proxy.h"
#include "edge/cluster.h"
#include "net/circuit_breaker.h"
#include "net/fault_injection.h"
#include "net/server_limits.h"
#include "net/transport.h"
#include "storage/table.h"

namespace dynaprox {
namespace {

class FailureResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const std::string path : {"/home", "/products", "/about"}) {
      registry_.RegisterOrReplace(
          path, [path](appserver::ScriptContext& context) {
            return context.CacheableBlock(
                bem::FragmentId("f" + path),
                [path](appserver::ScriptContext& ctx) {
                  ctx.Emit("page:" + path);
                  return Status::Ok();
                });
          });
    }
    bem::BemOptions bem_options;
    bem_options.capacity = 32;
    bem_options.clock = &clock_;
    monitor_ = *bem::BackEndMonitor::Create(bem_options);
    origin_ = std::make_unique<appserver::OriginServer>(
        &registry_, &repository_, monitor_.get());
    direct_ =
        std::make_unique<net::DirectTransport>(origin_->AsHandler());

    fault_ = std::make_unique<net::FaultInjectingTransport>(direct_.get());

    net::CircuitBreakerTransportOptions breaker_options;
    breaker_options.breaker.window = 8;
    breaker_options.breaker.min_samples = 4;
    breaker_options.breaker.error_threshold = 0.5;
    breaker_options.breaker.cooldown = {/*max_attempts=*/4,
                                        /*initial_backoff_micros=*/
                                        100 * kMicrosPerMilli};
    breaker_options.breaker.close_after = 2;
    breaker_options.breaker.clock = &clock_;
    guarded_ = std::make_unique<net::CircuitBreakerTransport>(
        fault_.get(), breaker_options);

    dpc::ProxyOptions proxy_options;
    proxy_options.capacity = 32;
    proxy_options.enable_status = true;
    proxy_options.serve_stale = true;
    proxy_options.stale_cache.clock = &clock_;
    proxy_options.upstream_breaker = &guarded_->breaker();
    proxy_ = std::make_unique<dpc::DpcProxy>(guarded_.get(),
                                             proxy_options);
  }

  http::Request Get(const std::string& target) {
    http::Request request;
    request.target = target;
    return request;
  }

  void WarmProxy() {
    for (const std::string path : {"/home", "/products", "/about"}) {
      http::Response response = proxy_->Handle(Get(path));
      ASSERT_EQ(response.status_code, 200) << path;
      ASSERT_FALSE(response.headers.Has("Warning")) << path;
    }
  }

  SimClock clock_;
  storage::ContentRepository repository_;
  appserver::ScriptRegistry registry_;
  std::unique_ptr<bem::BackEndMonitor> monitor_;
  std::unique_ptr<appserver::OriginServer> origin_;
  std::unique_ptr<net::DirectTransport> direct_;
  std::unique_ptr<net::FaultInjectingTransport> fault_;
  std::unique_ptr<net::CircuitBreakerTransport> guarded_;
  std::unique_ptr<dpc::DpcProxy> proxy_;
};

TEST_F(FailureResilienceTest, WarmedProxySurvivesBlackHoledOrigin) {
  WarmProxy();
  fault_->set_down(true);

  // Seen URLs keep answering with the stale assembled page.
  for (int round = 0; round < 10; ++round) {
    for (const std::string path : {"/home", "/products", "/about"}) {
      http::Response response = proxy_->Handle(Get(path));
      EXPECT_EQ(response.status_code, 200) << path;
      EXPECT_EQ(*response.headers.Get("Warning"), dpc::kStaleWarning);
      EXPECT_NE(response.BodyText().find("page:" + path), std::string::npos);
    }
  }
  // Unseen URLs degrade to an honest 503 with Retry-After.
  http::Response unseen = proxy_->Handle(Get("/never-warmed"));
  EXPECT_EQ(unseen.status_code, 503);
  EXPECT_TRUE(unseen.headers.Has("Retry-After"));

  dpc::ProxyStats stats = proxy_->stats();
  EXPECT_EQ(stats.stale_served, 30u);
  EXPECT_GE(stats.degraded_503s, 1u);
}

TEST_F(FailureResilienceTest, BreakerStopsDialAttemptsDuringOutage) {
  WarmProxy();
  fault_->set_down(true);

  // Hammer until the breaker opens, then keep hammering.
  for (int i = 0; i < 40; ++i) proxy_->Handle(Get("/home"));
  ASSERT_EQ(guarded_->breaker().state(), net::BreakerState::kOpen);
  uint64_t dial_failures_at_open = fault_->stats().down_failures;

  for (int i = 0; i < 100; ++i) proxy_->Handle(Get("/home"));
  // Zero per-request dial timeouts once open: the transport never saw
  // the 100 extra requests.
  EXPECT_EQ(fault_->stats().down_failures, dial_failures_at_open);

  dpc::ProxyStats stats = proxy_->stats();
  EXPECT_GE(stats.breaker_rejections, 100u);
  // Every one of them was still answered from the stale page cache.
  EXPECT_EQ(stats.stale_served, 140u);

  // /status surfaces the degradation for operators.
  http::Response status = proxy_->Handle(Get("/_dynaprox/status"));
  ASSERT_EQ(status.status_code, 200);
  // Breaker state 1 is open (0 closed, 2 half-open).
  EXPECT_NE(status.body.find("\"dynaprox_upstream_breaker_state\":1,"),
            std::string::npos);
  EXPECT_NE(status.body.find("\"dynaprox_breaker_rejections_total\":"),
            std::string::npos);
  EXPECT_EQ(status.body.find("\"dynaprox_breaker_rejections_total\":0"),
            std::string::npos);
}

TEST_F(FailureResilienceTest, RecoversThroughProbesAfterOriginReturns) {
  WarmProxy();
  fault_->set_down(true);
  for (int i = 0; i < 40; ++i) proxy_->Handle(Get("/home"));
  ASSERT_EQ(guarded_->breaker().state(), net::BreakerState::kOpen);

  fault_->set_down(false);
  // Cooldown may have doubled while the outage persisted; advance past
  // the configured cap (100 ms << 3 = 800 ms).
  clock_.AdvanceMicros(800 * kMicrosPerMilli);

  // close_after=2: the first two requests are the half-open probes.
  http::Response probe1 = proxy_->Handle(Get("/home"));
  EXPECT_EQ(probe1.status_code, 200);
  EXPECT_FALSE(probe1.headers.Has("Warning"));
  http::Response probe2 = proxy_->Handle(Get("/products"));
  EXPECT_EQ(probe2.status_code, 200);
  EXPECT_EQ(guarded_->breaker().state(), net::BreakerState::kClosed);

  // Fully recovered: unseen URLs reach the origin again.
  registry_.RegisterOrReplace(
      "/fresh", [](appserver::ScriptContext& context) {
        context.Emit("fresh page");
        return Status::Ok();
      });
  EXPECT_EQ(proxy_->Handle(Get("/fresh")).status_code, 200);
}

TEST_F(FailureResilienceTest, FlakyOriginStillAssemblesCorrectPages) {
  // 30% transport errors: every successful answer must still be a
  // correctly assembled page, and failures fall back to stale copies.
  net::FaultInjectionOptions fault_options;
  fault_options.error_probability = 0.3;
  fault_options.seed = 42;
  fault_ = std::make_unique<net::FaultInjectingTransport>(direct_.get(),
                                                          fault_options);
  // Rebuild the breaker+proxy over the flaky transport with a high
  // threshold so it stays closed and every request rolls the dice.
  net::CircuitBreakerTransportOptions breaker_options;
  breaker_options.breaker.error_threshold = 1.1;  // Never trips.
  breaker_options.breaker.clock = &clock_;
  guarded_ = std::make_unique<net::CircuitBreakerTransport>(
      fault_.get(), breaker_options);
  dpc::ProxyOptions proxy_options;
  proxy_options.capacity = 32;
  proxy_options.serve_stale = true;
  proxy_options.stale_cache.clock = &clock_;
  proxy_ = std::make_unique<dpc::DpcProxy>(guarded_.get(), proxy_options);

  // Warm the rebuilt proxy past any injected faults so a stale copy
  // exists before the assertion loop.
  http::Response warmed;
  do {
    warmed = proxy_->Handle(Get("/home"));
  } while (warmed.status_code != 200);

  int fresh = 0;
  int stale = 0;
  for (int i = 0; i < 200; ++i) {
    http::Response response = proxy_->Handle(Get("/home"));
    ASSERT_EQ(response.status_code, 200);
    EXPECT_NE(response.BodyText().find("page:/home"), std::string::npos);
    if (response.headers.Has("Warning")) {
      ++stale;
    } else {
      ++fresh;
    }
  }
  EXPECT_GT(fresh, 0);
  EXPECT_GT(stale, 0);
  EXPECT_EQ(fresh + stale, 200);
}

// S2: the three "try again later" paths — ingress shed (max_inflight),
// DPC degraded/breaker 503, and the edge tier's all-nodes-down 503 —
// must all answer through net::MakeUnavailableResponse, so every one of
// them carries Retry-After. Before unification the edge path sent a
// bare 503 that clients could not back off from intelligently.
TEST(UnavailableResponseTest, All503PathsCarryRetryAfter) {
  http::Request request;
  request.target = "/any";

  // 1. Ingress shed: the in-flight gate is already at capacity.
  net::IngressCounters counters;
  counters.inflight_requests = 1;
  net::ServerLimits limits;
  limits.max_inflight = 1;
  limits.retry_after_seconds = 7;
  http::Response shed = net::DispatchAdmitted(
      [](const http::Request&) { return http::Response::MakeOk("never"); },
      request, limits, counters);
  EXPECT_EQ(shed.status_code, 503);
  EXPECT_EQ(*shed.headers.Get("Retry-After"), "7");
  EXPECT_EQ(counters.shed_503s.load(), 1u);

  // 2. DPC degraded: serve_stale on, origin dead, URL never warmed.
  net::DirectTransport dead_upstream([](const http::Request&) {
    return http::Response::MakeOk("unused");
  });
  class DeadTransport : public net::Transport {
   public:
    Result<net::StreamingResponse> RoundTripStreaming(
        const http::Request&) override {
      return Status::IoError("origin down");
    }
  } dead;
  dpc::ProxyOptions proxy_options;
  proxy_options.capacity = 8;
  proxy_options.serve_stale = true;
  proxy_options.retry_after_seconds = 7;
  dpc::DpcProxy proxy(&dead, proxy_options);
  http::Response degraded = proxy.Handle(request);
  EXPECT_EQ(degraded.status_code, 503);
  EXPECT_EQ(*degraded.headers.Get("Retry-After"), "7");
  EXPECT_GE(proxy.stats().degraded_503s, 1u);

  // 3. Edge cluster: every node marked down, nothing to route to.
  edge::EdgeClusterOptions cluster_options;
  cluster_options.proxy.capacity = 8;
  cluster_options.proxy.retry_after_seconds = 7;
  edge::EdgeCluster cluster(&dead_upstream, cluster_options);
  ASSERT_TRUE(cluster.AddEdge("edge-1").ok());
  ASSERT_TRUE(cluster.MarkDown("edge-1").ok());
  http::Response routed = cluster.Handle(request);
  EXPECT_EQ(routed.status_code, 503);
  EXPECT_EQ(*routed.headers.Get("Retry-After"), "7");
  EXPECT_EQ(cluster.stats().routing_failures, 1u);
}

// An upstream that never resolves a cold-cache miss: every round trip
// (including X-DPC-Refresh recovery retries) answers a template GETting
// a key it never SETs, and burns simulated time — the stacked-retry
// worst case the deadline budget exists to bound. Optionally serves a
// plain cacheable page first so a stale copy exists.
class UnresolvableMissTransport : public net::Transport {
 public:
  UnresolvableMissTransport(SimClock* clock, MicroTime cost_micros)
      : clock_(clock), cost_micros_(cost_micros) {}

  Result<net::StreamingResponse> RoundTripStreaming(
      const http::Request&) override {
    ++round_trips_;
    clock_->AdvanceMicros(cost_micros_);
    if (healthy_) {
      return net::StreamWhole(http::Response::MakeOk("fresh page body"));
    }
    std::string body;
    bem::TagCodec::AppendGet(/*key=*/7, body);  // In range, never SET.
    http::Response response = http::Response::MakeOk(std::move(body));
    response.headers.Set(bem::kTemplateHeader, "1");
    return net::StreamWhole(std::move(response));
  }

  void set_healthy(bool healthy) { healthy_ = healthy; }
  int round_trips() const { return round_trips_; }

 private:
  SimClock* clock_;
  MicroTime cost_micros_;
  bool healthy_ = false;
  int round_trips_ = 0;
};

// The per-request budget bounds stacked recovery retries end to end:
// each X-DPC-Refresh retry costs a full upstream round trip, so a proxy
// configured to retry 100 times stops the moment the budget is spent
// and answers an honest deadline 503 (with Retry-After) instead of
// compounding per-attempt timeouts.
TEST(DeadlineBudgetTest, StackedRecoveryRetriesStopAtTheBudget) {
  SimClock clock;
  UnresolvableMissTransport upstream(&clock, 40 * kMicrosPerMilli);

  dpc::ProxyOptions options;
  options.capacity = 8;
  options.clock = &clock;
  options.request_budget_micros = 100 * kMicrosPerMilli;
  options.max_recovery_attempts = 100;  // The budget must win, not this.
  options.retry_after_seconds = 3;
  dpc::DpcProxy proxy(&upstream, options);

  http::Request request;
  request.target = "/budgeted";
  http::Response response = proxy.Handle(request);
  EXPECT_EQ(response.status_code, 503);
  ASSERT_TRUE(response.headers.Has("Retry-After"));
  EXPECT_EQ(*response.headers.Get("Retry-After"), "3");
  // 40ms per round trip against a 100ms budget: the fetch plus two
  // recovery retries fit under the pre-attempt check (t=0, 40, 80); the
  // fourth round trip is never made. Without the budget this request
  // would have cost 101 round trips.
  EXPECT_EQ(upstream.round_trips(), 3);
  EXPECT_EQ(proxy.stats().deadline_exceeded, 1u);
}

// With serve_stale on and a warmed page, an exhausted budget degrades
// to the stale copy (200 + Warning) rather than an error: deadline
// pressure prefers useful bytes when any exist.
TEST(DeadlineBudgetTest, ExhaustedBudgetServesStaleWhenWarm) {
  SimClock clock;
  UnresolvableMissTransport upstream(&clock, 40 * kMicrosPerMilli);
  upstream.set_healthy(true);

  dpc::ProxyOptions options;
  options.capacity = 8;
  options.clock = &clock;
  options.serve_stale = true;
  options.stale_cache.clock = &clock;
  options.request_budget_micros = 100 * kMicrosPerMilli;
  options.max_recovery_attempts = 100;
  dpc::DpcProxy proxy(&upstream, options);

  http::Request request;
  request.target = "/warm";
  ASSERT_EQ(proxy.Handle(request).status_code, 200);  // Warm the cache.

  upstream.set_healthy(false);
  http::Response stale = proxy.Handle(request);
  EXPECT_EQ(stale.status_code, 200);
  ASSERT_TRUE(stale.headers.Has("Warning"));
  EXPECT_EQ(*stale.headers.Get("Warning"), dpc::kStaleWarning);
  EXPECT_EQ(stale.BodyText(), "fresh page body");
  EXPECT_EQ(proxy.stats().deadline_exceeded, 1u);
}

}  // namespace
}  // namespace dynaprox
