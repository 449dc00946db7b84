#include "net/fault_injection.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bem/protocol.h"

namespace dynaprox::net {
namespace {

http::Response Echo(const http::Request& request) {
  return http::Response::MakeOk("echo:" + std::string(request.Path()));
}

TEST(FaultInjectionTest, PassesThroughWithNoFaultsConfigured) {
  DirectTransport inner(Echo);
  FaultInjectingTransport transport(&inner);
  for (int i = 0; i < 50; ++i) {
    Result<http::Response> r = transport.RoundTrip(http::Request{});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->body, "echo:/");
  }
  FaultInjectionStats stats = transport.stats();
  EXPECT_EQ(stats.passed, 50u);
  EXPECT_EQ(stats.injected_errors, 0u);
}

TEST(FaultInjectionTest, InjectsErrorsAtConfiguredRate) {
  DirectTransport inner(Echo);
  FaultInjectionOptions options;
  options.error_probability = 0.5;
  options.seed = 7;
  FaultInjectingTransport transport(&inner, options);
  int failures = 0;
  for (int i = 0; i < 400; ++i) {
    if (!transport.RoundTrip(http::Request{}).ok()) ++failures;
  }
  FaultInjectionStats stats = transport.stats();
  EXPECT_EQ(stats.injected_errors, static_cast<uint64_t>(failures));
  // Loose bounds: deterministic given the seed, but robust to reseeding.
  EXPECT_GT(failures, 120);
  EXPECT_LT(failures, 280);
}

TEST(FaultInjectionTest, SameSeedReplaysSameFaultSequence) {
  DirectTransport inner(Echo);
  FaultInjectionOptions options;
  options.error_probability = 0.3;
  options.seed = 99;
  auto run = [&] {
    FaultInjectingTransport transport(&inner, options);
    std::vector<bool> outcomes;
    for (int i = 0; i < 100; ++i) {
      outcomes.push_back(transport.RoundTrip(http::Request{}).ok());
    }
    return outcomes;
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultInjectionTest, DownSwitchBlackHolesEverything) {
  DirectTransport inner(Echo);
  FaultInjectingTransport transport(&inner);
  ASSERT_TRUE(transport.RoundTrip(http::Request{}).ok());
  transport.set_down(true);
  for (int i = 0; i < 5; ++i) {
    Result<http::Response> r = transport.RoundTrip(http::Request{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  }
  EXPECT_EQ(transport.stats().down_failures, 5u);
  transport.set_down(false);
  EXPECT_TRUE(transport.RoundTrip(http::Request{}).ok());
  // The inner transport never saw the 5 down-failures.
  EXPECT_EQ(transport.stats().passed, 2u);
}

TEST(FaultInjectionTest, GarbageResponsesCarryTemplateHeader) {
  DirectTransport inner(Echo);
  FaultInjectionOptions options;
  options.garbage_probability = 1.0;
  FaultInjectingTransport transport(&inner, options);
  Result<http::Response> r = transport.RoundTrip(http::Request{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status_code, 200);
  EXPECT_TRUE(r->headers.Has(bem::kTemplateHeader));
  EXPECT_NE(r->body, "echo:/");
  EXPECT_EQ(transport.stats().injected_garbage, 1u);
}

TEST(FaultInjectionTest, DelayForwardsToInner) {
  DirectTransport inner(Echo);
  FaultInjectionOptions options;
  options.delay_probability = 1.0;
  options.delay_micros = 1;  // Keep the test fast.
  FaultInjectingTransport transport(&inner, options);
  Result<http::Response> r = transport.RoundTrip(http::Request{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->body, "echo:/");
  FaultInjectionStats stats = transport.stats();
  EXPECT_EQ(stats.injected_delays, 1u);
  EXPECT_EQ(stats.passed, 1u);
}

// Inner transport whose stream is observably its own: it yields the body
// in two chunks, and marks the head so a test can tell it ran.
class TwoChunkTransport : public Transport {
 public:
  Result<StreamingResponse> RoundTripStreaming(
      const http::Request&) override {
    StreamingResponse streaming;
    streaming.head = http::Response::MakeOk("");
    streaming.head.body.clear();
    streaming.head.headers.Set("X-Test-Streamed", "1");
    streaming.body = std::make_unique<TwoChunkBody>();
    return streaming;
  }

 private:
  class TwoChunkBody : public http::BodyStream {
   public:
    Result<common::BufferChain> Next() override {
      common::BufferChain chunk;
      if (calls_ == 0) chunk.Append(common::MakeBuffer("chunk-one "));
      if (calls_ == 1) chunk.Append(common::MakeBuffer("chunk-two"));
      ++calls_;
      return chunk;  // Third call: empty = end of body.
    }

   private:
    int calls_ = 0;
  };
};

// Regression: without a RoundTripStreaming override the base-class
// adapter buffers the whole body via RoundTrip, so streamed requests
// never reach the inner transport's streaming path at all.
TEST(FaultInjectionTest, StreamingForwardsToInnerStreamingPath) {
  TwoChunkTransport inner;
  FaultInjectingTransport transport(&inner);
  Result<StreamingResponse> r =
      transport.RoundTripStreaming(http::Request{});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->head.headers.Has("X-Test-Streamed"));
  Result<common::BufferChain> first = r->body->Next();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->Flatten(), "chunk-one ");
  Result<common::BufferChain> second = r->body->Next();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->Flatten(), "chunk-two");
}

// Regression companion: streamed requests observe injected faults and
// draw from the same replayable decision stream as buffered ones.
TEST(FaultInjectionTest, StreamingObservesInjectedFaults) {
  TwoChunkTransport inner;
  FaultInjectionOptions options;
  options.error_probability = 1.0;
  FaultInjectingTransport transport(&inner, options);
  Result<StreamingResponse> r =
      transport.RoundTripStreaming(http::Request{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_EQ(transport.stats().injected_errors, 1u);

  transport.set_down(true);
  EXPECT_FALSE(transport.RoundTripStreaming(http::Request{}).ok());
  EXPECT_EQ(transport.stats().down_failures, 1u);
}

TEST(FaultInjectionTest, StreamingGarbageArrivesAsTemplateBody) {
  TwoChunkTransport inner;
  FaultInjectionOptions options;
  options.garbage_probability = 1.0;
  FaultInjectingTransport transport(&inner, options);
  Result<StreamingResponse> r =
      transport.RoundTripStreaming(http::Request{});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->head.headers.Has(bem::kTemplateHeader));
  Result<common::BufferChain> body = r->body->Next();
  ASSERT_TRUE(body.ok());
  EXPECT_FALSE(body->Flatten().empty());
  EXPECT_EQ(transport.stats().injected_garbage, 1u);
}

TEST(FaultInjectionTest, BlackHoleFailsAfterSimulatedTimeout) {
  DirectTransport inner(Echo);
  FaultInjectionOptions options;
  options.black_hole_probability = 1.0;
  options.black_hole_micros = 1;
  FaultInjectingTransport transport(&inner, options);
  Result<http::Response> r = transport.RoundTrip(http::Request{});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("timeout"), std::string::npos);
  EXPECT_EQ(transport.stats().injected_black_holes, 1u);
}

}  // namespace
}  // namespace dynaprox::net
