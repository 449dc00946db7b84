#include "net/circuit_breaker.h"

#include <gtest/gtest.h>

#include "common/clock.h"

namespace dynaprox::net {
namespace {

CircuitBreakerOptions FastBreaker(const Clock* clock) {
  CircuitBreakerOptions options;
  options.window = 8;
  options.min_samples = 4;
  options.error_threshold = 0.5;
  options.cooldown = {/*max_attempts=*/3,
                      /*initial_backoff_micros=*/100 * kMicrosPerMilli};
  options.half_open_probes = 1;
  options.close_after = 2;
  options.clock = clock;
  return options;
}

// Admits and records `n` outcomes; returns how many were admitted.
int Drive(CircuitBreaker& breaker, int n, bool success) {
  int admitted = 0;
  for (int i = 0; i < n; ++i) {
    if (!breaker.Allow()) continue;
    ++admitted;
    breaker.Record(success);
  }
  return admitted;
}

TEST(CircuitBreakerTest, StaysClosedUnderSuccess) {
  SimClock clock;
  CircuitBreaker breaker(FastBreaker(&clock));
  EXPECT_EQ(Drive(breaker, 100, true), 100);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().rejections, 0u);
}

TEST(CircuitBreakerTest, DoesNotTripBelowMinSamples) {
  SimClock clock;
  CircuitBreaker breaker(FastBreaker(&clock));
  Drive(breaker, 3, false);  // 100% errors but only 3 samples (< 4).
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, OpensAtErrorThresholdAndRejects) {
  SimClock clock;
  CircuitBreaker breaker(FastBreaker(&clock));
  Drive(breaker, 4, false);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().opens, 1u);
  // Subsequent requests fast-fail without reaching the origin.
  EXPECT_EQ(Drive(breaker, 10, true), 0);
  EXPECT_EQ(breaker.stats().rejections, 10u);
}

TEST(CircuitBreakerTest, MixedWindowOpensOnlyAboveThreshold) {
  SimClock clock;
  CircuitBreaker breaker(FastBreaker(&clock));
  // 8-slot window at 3/8 errors: below the 0.5 threshold.
  Drive(breaker, 5, true);
  Drive(breaker, 3, false);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  // One more error makes it 4/8 as successes roll out of the window.
  Drive(breaker, 1, false);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

TEST(CircuitBreakerTest, HalfOpenProbeAfterCooldownThenCloses) {
  SimClock clock;
  CircuitBreaker breaker(FastBreaker(&clock));
  Drive(breaker, 4, false);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  clock.AdvanceMicros(99 * kMicrosPerMilli);
  EXPECT_FALSE(breaker.Allow());  // Cooldown not over yet.
  clock.AdvanceMicros(2 * kMicrosPerMilli);

  ASSERT_TRUE(breaker.Allow());  // First probe admitted.
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  // Only one probe slot: a concurrent request is rejected.
  EXPECT_FALSE(breaker.Allow());
  breaker.Record(true);

  ASSERT_TRUE(breaker.Allow());  // close_after=2: one more probe needed.
  breaker.Record(true);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().closes, 1u);
  EXPECT_EQ(breaker.stats().probes, 2u);
}

TEST(CircuitBreakerTest, FailedProbeReopensWithDoubledCooldown) {
  SimClock clock;
  CircuitBreaker breaker(FastBreaker(&clock));
  Drive(breaker, 4, false);
  clock.AdvanceMicros(100 * kMicrosPerMilli);
  ASSERT_TRUE(breaker.Allow());
  breaker.Record(false);  // Probe fails: back to open.
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().opens, 2u);

  // The cooldown doubled: 100 ms is no longer enough, 200 ms is.
  clock.AdvanceMicros(150 * kMicrosPerMilli);
  EXPECT_FALSE(breaker.Allow());
  clock.AdvanceMicros(60 * kMicrosPerMilli);
  EXPECT_TRUE(breaker.Allow());
  breaker.Record(true);
}

TEST(CircuitBreakerTest, CooldownCapsAtConfiguredDoublings) {
  SimClock clock;
  CircuitBreakerOptions options = FastBreaker(&clock);
  options.cooldown.max_attempts = 2;  // Cap at 100 << 1 = 200 ms.
  CircuitBreaker breaker(options);
  Drive(breaker, 4, false);
  for (int reopen = 0; reopen < 4; ++reopen) {
    clock.AdvanceMicros(200 * kMicrosPerMilli);
    ASSERT_TRUE(breaker.Allow()) << "reopen " << reopen;
    breaker.Record(false);
  }
  // Even after several consecutive opens, 200 ms still reaches half-open.
  clock.AdvanceMicros(200 * kMicrosPerMilli);
  EXPECT_TRUE(breaker.Allow());
  breaker.Record(true);
}

TEST(CircuitBreakerTest, WindowResetsAfterClose) {
  SimClock clock;
  CircuitBreaker breaker(FastBreaker(&clock));
  Drive(breaker, 4, false);
  clock.AdvanceMicros(100 * kMicrosPerMilli);
  ASSERT_TRUE(breaker.Allow());
  breaker.Record(true);
  ASSERT_TRUE(breaker.Allow());
  breaker.Record(true);
  ASSERT_EQ(breaker.state(), BreakerState::kClosed);
  // The pre-outage errors were discarded: it takes min_samples fresh
  // errors to trip again, not one.
  Drive(breaker, 3, false);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  Drive(breaker, 1, false);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

TEST(CircuitBreakerTest, StragglerResultWhileOpenIsIgnored) {
  SimClock clock;
  CircuitBreaker breaker(FastBreaker(&clock));
  Drive(breaker, 4, false);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  breaker.Record(true);  // In-flight success lands after the trip.
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  CircuitBreakerStats stats = breaker.stats();
  EXPECT_EQ(stats.window_samples, 4);
  EXPECT_EQ(stats.window_error_rate, 1.0);
}

class FlippableTransport : public Transport {
 public:
  Result<http::Response> RoundTrip(const http::Request&) override {
    ++round_trips_;
    if (fail_) return Status::IoError("origin down");
    if (answer_500_) {
      return http::Response::MakeError(500, "Internal Server Error", "boom");
    }
    return http::Response::MakeOk("ok");
  }

  // Counts the calls that reach the streaming path, then answers through
  // the whole-body adapter over RoundTrip.
  Result<StreamingResponse> RoundTripStreaming(
      const http::Request& request) override {
    ++streaming_round_trips_;
    return Transport::RoundTripStreaming(request);
  }

  bool fail_ = false;
  bool answer_500_ = false;
  int round_trips_ = 0;
  int streaming_round_trips_ = 0;
};

TEST(CircuitBreakerTransportTest, RejectionsNeverReachInnerTransport) {
  SimClock clock;
  FlippableTransport inner;
  CircuitBreakerTransportOptions options;
  options.breaker = FastBreaker(&clock);
  CircuitBreakerTransport transport(&inner, options);

  inner.fail_ = true;
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(transport.RoundTrip(http::Request{}).ok());
  }
  ASSERT_EQ(transport.breaker().state(), BreakerState::kOpen);
  int dials_at_open = inner.round_trips_;

  Result<http::Response> rejected = transport.RoundTrip(http::Request{});
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(IsBreakerRejection(rejected.status()));
  EXPECT_EQ(inner.round_trips_, dials_at_open);  // Fast-failed, no dial.
}

TEST(CircuitBreakerTransportTest, RecoversThroughProbes) {
  SimClock clock;
  FlippableTransport inner;
  CircuitBreakerTransportOptions options;
  options.breaker = FastBreaker(&clock);
  CircuitBreakerTransport transport(&inner, options);

  inner.fail_ = true;
  for (int i = 0; i < 4; ++i) transport.RoundTrip(http::Request{});
  ASSERT_EQ(transport.breaker().state(), BreakerState::kOpen);

  inner.fail_ = false;
  clock.AdvanceMicros(100 * kMicrosPerMilli);
  EXPECT_TRUE(transport.RoundTrip(http::Request{}).ok());  // Probe 1.
  EXPECT_TRUE(transport.RoundTrip(http::Request{}).ok());  // Probe 2.
  EXPECT_EQ(transport.breaker().state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTransportTest, Http5xxCountsAsFailureWhenConfigured) {
  SimClock clock;
  FlippableTransport inner;
  CircuitBreakerTransportOptions options;
  options.breaker = FastBreaker(&clock);
  CircuitBreakerTransport transport(&inner, options);

  inner.answer_500_ = true;
  for (int i = 0; i < 4; ++i) {
    // The 500 is an answer, not a transport failure: it passes through.
    Result<http::Response> r = transport.RoundTrip(http::Request{});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status_code, 500);
  }
  EXPECT_EQ(transport.breaker().state(), BreakerState::kOpen);
}

TEST(CircuitBreakerTransportTest, StreamingPathTripsRejectsAndRecovers) {
  SimClock clock;
  FlippableTransport inner;
  CircuitBreakerTransportOptions options;
  options.breaker = FastBreaker(&clock);
  CircuitBreakerTransport transport(&inner, options);

  inner.fail_ = true;
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(transport.RoundTripStreaming(http::Request{}).ok());
  }
  ASSERT_EQ(transport.breaker().state(), BreakerState::kOpen);
  // Forwarded to the inner streaming path, not adapted over RoundTrip.
  EXPECT_EQ(inner.streaming_round_trips_, 4);

  Result<StreamingResponse> rejected =
      transport.RoundTripStreaming(http::Request{});
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(IsBreakerRejection(rejected.status()));
  EXPECT_EQ(inner.streaming_round_trips_, 4);  // Fast-failed, no dial.

  inner.fail_ = false;
  clock.AdvanceMicros(100 * kMicrosPerMilli);
  for (int probe = 0; probe < 2; ++probe) {
    Result<StreamingResponse> response =
        transport.RoundTripStreaming(http::Request{});
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    Result<http::Response> whole = DrainWhole(std::move(*response));
    ASSERT_TRUE(whole.ok());
    EXPECT_EQ(whole->body, "ok");
  }
  EXPECT_EQ(transport.breaker().state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTransportTest, Http5xxHeadCountsOnTheStreamingPath) {
  SimClock clock;
  FlippableTransport inner;
  CircuitBreakerTransportOptions options;
  options.breaker = FastBreaker(&clock);
  CircuitBreakerTransport transport(&inner, options);

  inner.answer_500_ = true;
  for (int i = 0; i < 4; ++i) {
    Result<StreamingResponse> response =
        transport.RoundTripStreaming(http::Request{});
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->head.status_code, 500);
  }
  EXPECT_EQ(transport.breaker().state(), BreakerState::kOpen);
  EXPECT_EQ(inner.streaming_round_trips_, 4);
}

TEST(CircuitBreakerTransportTest, Http5xxIgnoredWhenDisabled) {
  SimClock clock;
  FlippableTransport inner;
  CircuitBreakerTransportOptions options;
  options.breaker = FastBreaker(&clock);
  options.count_http_5xx = false;
  CircuitBreakerTransport transport(&inner, options);

  inner.answer_500_ = true;
  for (int i = 0; i < 20; ++i) transport.RoundTrip(http::Request{});
  EXPECT_EQ(transport.breaker().state(), BreakerState::kClosed);
}

}  // namespace
}  // namespace dynaprox::net
