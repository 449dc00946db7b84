// DpcProxy degraded mode: serve-stale on origin failure, 503 + Retry-After
// when nothing stale exists, breaker-rejection accounting, and
// serve-stale-on-error for upstream 5xx answers.

#include <optional>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "bem/protocol.h"
#include "bem/tag_codec.h"
#include "common/clock.h"
#include "dpc/proxy.h"
#include "net/circuit_breaker.h"
#include "net/fault_injection.h"

namespace dynaprox::dpc {
namespace {

// A togglable origin: serves one-fragment templates per URL while up;
// fails at the transport level (or answers 500) while down.
class FlakyOrigin : public net::Transport {
 public:
  Result<net::StreamingResponse> RoundTripStreaming(
      const http::Request& request) override {
    ++round_trips_;
    if (transport_error_) return Status::IoError("origin down");
    if (answer_500_) {
      return net::StreamWhole(http::Response::MakeError(
          500, "Internal Server Error", "backend exploded"));
    }
    std::string url(request.target);
    if (auto refresh = request.headers.Get(bem::kRefreshHeader);
        refresh.has_value()) {
      known_.clear();  // Simplest BEM: invalidate everything.
    }
    bem::DpcKey key = static_cast<bem::DpcKey>(url.size() % 8);
    std::string body = "<" + url + ">";
    if (known_.count(key)) {
      bem::TagCodec::AppendGet(key, body);
    } else {
      bem::TagCodec::AppendSet(key, "frag" + std::to_string(key), body);
      known_.insert(key);
    }
    body += "</page>";
    http::Response response = http::Response::MakeOk(std::move(body));
    response.headers.Set(bem::kTemplateHeader, "1");
    return net::StreamWhole(std::move(response));
  }

  bool transport_error_ = false;
  bool answer_500_ = false;
  int round_trips_ = 0;

 private:
  std::set<bem::DpcKey> known_;
};

class ProxyResilienceTest : public ::testing::Test {
 protected:
  ProxyOptions StaleOptions() {
    ProxyOptions options;
    options.capacity = 8;
    options.serve_stale = true;
    options.stale_cache.clock = &clock_;
    options.retry_after_seconds = 7;
    return options;
  }

  http::Request Get(const std::string& target) {
    http::Request request;
    request.target = target;
    return request;
  }

  SimClock clock_;
  FlakyOrigin origin_;
};

TEST_F(ProxyResilienceTest, ServesStalePageWhenOriginFails) {
  DpcProxy proxy(&origin_, StaleOptions());
  http::Response warm = proxy.Handle(Get("/a"));
  ASSERT_EQ(warm.status_code, 200);

  origin_.transport_error_ = true;
  clock_.AdvanceSeconds(30);
  http::Response degraded = proxy.Handle(Get("/a"));
  EXPECT_EQ(degraded.status_code, 200);
  EXPECT_EQ(degraded.BodyText(), warm.BodyText());
  EXPECT_EQ(*degraded.headers.Get("Warning"), kStaleWarning);
  EXPECT_EQ(*degraded.headers.Get("Age"), "30");
  ProxyStats stats = proxy.stats();
  EXPECT_EQ(stats.stale_served, 1u);
  EXPECT_EQ(stats.upstream_errors, 1u);
  EXPECT_EQ(stats.breaker_rejections, 0u);
}

TEST_F(ProxyResilienceTest, UnseenUrlGets503WithRetryAfter) {
  DpcProxy proxy(&origin_, StaleOptions());
  proxy.Handle(Get("/a"));
  origin_.transport_error_ = true;
  http::Response degraded = proxy.Handle(Get("/never-seen"));
  EXPECT_EQ(degraded.status_code, 503);
  EXPECT_EQ(*degraded.headers.Get("Retry-After"), "7");
  EXPECT_EQ(proxy.stats().degraded_503s, 1u);
  EXPECT_EQ(proxy.stats().stale_served, 0u);
}

TEST_F(ProxyResilienceTest, WithoutServeStaleLegacy502IsPreserved) {
  ProxyOptions options;
  options.capacity = 8;
  DpcProxy proxy(&origin_, options);
  proxy.Handle(Get("/a"));
  origin_.transport_error_ = true;
  EXPECT_EQ(proxy.Handle(Get("/a")).status_code, 502);
  EXPECT_EQ(proxy.stats().degraded_503s, 0u);
}

TEST_F(ProxyResilienceTest, BreakerRejectionCountedSeparately) {
  net::CircuitBreakerTransportOptions breaker_options;
  breaker_options.breaker.window = 4;
  breaker_options.breaker.min_samples = 2;
  breaker_options.breaker.clock = &clock_;
  net::CircuitBreakerTransport guarded(&origin_, breaker_options);

  ProxyOptions options = StaleOptions();
  options.upstream_breaker = &guarded.breaker();
  DpcProxy proxy(&guarded, options);

  proxy.Handle(Get("/a"));  // Warm.
  origin_.transport_error_ = true;
  // Trip the breaker, then keep hammering.
  for (int i = 0; i < 6; ++i) proxy.Handle(Get("/a"));
  ProxyStats stats = proxy.stats();
  EXPECT_EQ(guarded.breaker().state(), net::BreakerState::kOpen);
  EXPECT_GT(stats.breaker_rejections, 0u);
  EXPECT_GT(stats.upstream_errors, 0u);
  EXPECT_EQ(stats.breaker_rejections + stats.upstream_errors, 6u);
  // Every degraded request still served the stale page.
  EXPECT_EQ(stats.stale_served, 6u);
}

TEST_F(ProxyResilienceTest, BreakerRejectionWithoutStaleIs503Not502) {
  net::CircuitBreakerTransportOptions breaker_options;
  breaker_options.breaker.window = 4;
  breaker_options.breaker.min_samples = 2;
  breaker_options.breaker.clock = &clock_;
  net::CircuitBreakerTransport guarded(&origin_, breaker_options);

  ProxyOptions options;  // serve_stale off: breaker alone drives the 503.
  options.capacity = 8;
  DpcProxy proxy(&guarded, options);

  origin_.transport_error_ = true;
  for (int i = 0; i < 2; ++i) proxy.Handle(Get("/a"));  // Trip.
  ASSERT_EQ(guarded.breaker().state(), net::BreakerState::kOpen);
  http::Response rejected = proxy.Handle(Get("/a"));
  EXPECT_EQ(rejected.status_code, 503);
  EXPECT_TRUE(rejected.headers.Has("Retry-After"));
}

TEST_F(ProxyResilienceTest, MaxStaleAgeBoundsDegradedServing) {
  ProxyOptions options = StaleOptions();
  options.max_stale_micros = 60 * kMicrosPerSecond;
  DpcProxy proxy(&origin_, options);
  proxy.Handle(Get("/a"));
  origin_.transport_error_ = true;
  clock_.AdvanceSeconds(120);  // Older than max_stale.
  http::Response degraded = proxy.Handle(Get("/a"));
  EXPECT_EQ(degraded.status_code, 503);
  EXPECT_EQ(proxy.stats().stale_served, 0u);
}

// The max-stale bound covers the static cache's stale copies as well as
// the stale-page cache: a page stored under "Cache-Control: public,
// max-age=10" is served stale at 30 s and not at 120 s, 60 s past the
// bound, whether the origin is unreachable or answers 500.
class StaticStaleTest : public ProxyResilienceTest {
 protected:
  StaticStaleTest()
      : page_([this](const http::Request&) {
          if (answer_500_) {
            return http::Response::MakeError(500, "Internal Server Error",
                                             "backend exploded");
          }
          http::Response response = http::Response::MakeOk("static body");
          response.headers.Set("Cache-Control", "public, max-age=10");
          return response;
        }),
        upstream_(&page_) {}

  ProxyOptions BoundedOptions() {
    ProxyOptions options = StaleOptions();
    options.enable_static_cache = true;
    options.static_cache.clock = &clock_;
    options.max_stale_micros = 60 * kMicrosPerSecond;
    return options;
  }

  bool answer_500_ = false;
  net::DirectTransport page_;
  net::FaultInjectingTransport upstream_;
};

TEST_F(StaticStaleTest, MaxStaleAgeBoundsStaticCopiesOnTransportError) {
  DpcProxy proxy(&upstream_, BoundedOptions());
  ASSERT_EQ(proxy.Handle(Get("/logo")).status_code, 200);
  upstream_.set_down(true);
  clock_.AdvanceSeconds(30);
  http::Response within = proxy.Handle(Get("/logo"));
  EXPECT_EQ(within.status_code, 200);
  EXPECT_EQ(*within.headers.Get("Warning"), kStaleWarning);
  clock_.AdvanceSeconds(90);  // 120 s old: past the 60 s bound.
  http::Response degraded = proxy.Handle(Get("/logo"));
  EXPECT_EQ(degraded.status_code, 503);
  EXPECT_FALSE(degraded.headers.Has("Warning"));
  EXPECT_EQ(proxy.stats().stale_served, 1u);
}

TEST_F(StaticStaleTest, MaxStaleAgeBoundsStaticCopiesOnUpstream5xx) {
  DpcProxy proxy(&upstream_, BoundedOptions());
  ASSERT_EQ(proxy.Handle(Get("/logo")).status_code, 200);
  answer_500_ = true;
  clock_.AdvanceSeconds(30);
  http::Response within = proxy.Handle(Get("/logo"));
  EXPECT_EQ(within.status_code, 200);
  EXPECT_EQ(*within.headers.Get("Warning"), kStaleWarning);
  clock_.AdvanceSeconds(90);  // 120 s old: past the 60 s bound.
  http::Response answered = proxy.Handle(Get("/logo"));
  EXPECT_EQ(answered.status_code, 500);  // Nothing servable: honest answer.
  EXPECT_FALSE(answered.headers.Has("Warning"));
  EXPECT_EQ(proxy.stats().stale_served, 1u);
}

TEST_F(ProxyResilienceTest, StaleCacheIsBoundedLru) {
  ProxyOptions options = StaleOptions();
  options.stale_cache.capacity = 2;
  DpcProxy proxy(&origin_, options);
  proxy.Handle(Get("/a"));
  proxy.Handle(Get("/b"));
  proxy.Handle(Get("/c"));  // Evicts /a.
  ASSERT_NE(proxy.stale_cache(), nullptr);
  EXPECT_EQ(proxy.stale_cache()->size(), 2u);
  EXPECT_EQ(proxy.stale_cache()->stats().evictions, 1u);

  origin_.transport_error_ = true;
  EXPECT_EQ(proxy.Handle(Get("/a")).status_code, 503);  // Evicted.
  EXPECT_EQ(proxy.Handle(Get("/b")).status_code, 200);  // Retained.
}

TEST_F(ProxyResilienceTest, PassthroughPagesAreAlsoRemembered) {
  net::DirectTransport upstream([](const http::Request&) {
    return http::Response::MakeOk("plain body");
  });
  ProxyOptions options = StaleOptions();
  DpcProxy proxy(&upstream, options);
  proxy.Handle(Get("/plain"));
  ASSERT_NE(proxy.stale_cache(), nullptr);
  EXPECT_EQ(proxy.stale_cache()->size(), 1u);
}

TEST_F(ProxyResilienceTest, PostRequestsNeverServeStale) {
  DpcProxy proxy(&origin_, StaleOptions());
  proxy.Handle(Get("/a"));
  origin_.transport_error_ = true;
  http::Request post = Get("/a");
  post.method = "POST";
  http::Response degraded = proxy.Handle(post);
  EXPECT_EQ(degraded.status_code, 503);
  EXPECT_EQ(proxy.stats().stale_served, 0u);
}

TEST_F(ProxyResilienceTest, Upstream5xxAnswerServesStaleInstead) {
  DpcProxy proxy(&origin_, StaleOptions());
  http::Response warm = proxy.Handle(Get("/a"));
  ASSERT_EQ(warm.status_code, 200);
  origin_.answer_500_ = true;
  http::Response degraded = proxy.Handle(Get("/a"));
  EXPECT_EQ(degraded.status_code, 200);
  EXPECT_EQ(degraded.BodyText(), warm.BodyText());
  EXPECT_EQ(*degraded.headers.Get("Warning"), kStaleWarning);
  // The 500 is an HTTP answer, not a transport failure.
  EXPECT_EQ(proxy.stats().upstream_errors, 0u);
  EXPECT_EQ(proxy.stats().stale_served, 1u);
}

TEST_F(ProxyResilienceTest, Upstream5xxWithoutStalePassesThrough) {
  DpcProxy proxy(&origin_, StaleOptions());
  origin_.answer_500_ = true;
  http::Response response = proxy.Handle(Get("/a"));
  EXPECT_EQ(response.status_code, 500);  // Nothing stale: honest answer.
}

TEST_F(ProxyResilienceTest, StatusExposesDegradationCounters) {
  ProxyOptions options = StaleOptions();
  options.enable_status = true;
  DpcProxy proxy(&origin_, options);
  proxy.Handle(Get("/a"));
  origin_.transport_error_ = true;
  proxy.Handle(Get("/a"));          // stale_served.
  proxy.Handle(Get("/unseen"));     // degraded_503.
  http::Response status = proxy.Handle(Get("/_dynaprox/status"));
  ASSERT_EQ(status.status_code, 200);
  EXPECT_NE(status.body.find("\"dynaprox_stale_served_total\":1"),
            std::string::npos);
  EXPECT_NE(status.body.find("\"dynaprox_degraded_503s_total\":1"),
            std::string::npos);
  EXPECT_NE(status.body.find("\"dynaprox_breaker_rejections_total\":0"),
            std::string::npos);
  EXPECT_NE(status.body.find("\"dynaprox_stale_pages_entries\":"),
            std::string::npos);
}

TEST_F(ProxyResilienceTest, ClearCacheDropsStalePages) {
  DpcProxy proxy(&origin_, StaleOptions());
  proxy.Handle(Get("/a"));
  proxy.ClearCache();
  origin_.transport_error_ = true;
  EXPECT_EQ(proxy.Handle(Get("/a")).status_code, 503);
}

}  // namespace
}  // namespace dynaprox::dpc
