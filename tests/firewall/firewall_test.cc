#include "firewall/firewall.h"

#include <memory>

#include <gtest/gtest.h>

namespace dynaprox::firewall {
namespace {

TEST(ScanCostModelTest, CostsAreLinear) {
  ScanCostModel model{2.0};
  EXPECT_DOUBLE_EQ(model.CostNoCache(100), 200.0);
  EXPECT_DOUBLE_EQ(model.CostWithCache(100), 400.0);  // Scanned twice.
}

TEST(ScanCostModelTest, ResultOneThreshold) {
  ScanCostModel model;
  // B_NC > 2 B_C -> preferable.
  EXPECT_TRUE(model.CachePreferable(1000, 400));
  EXPECT_FALSE(model.CachePreferable(1000, 600));
  EXPECT_FALSE(model.CachePreferable(1000, 500));  // Exactly 2x: not >.
  EXPECT_GT(model.SavingsPercent(1000, 400), 0);
  EXPECT_LT(model.SavingsPercent(1000, 600), 0);
  EXPECT_DOUBLE_EQ(model.SavingsPercent(1000, 500), 0);
}

TEST(ScanningFirewallTest, PassesCleanTraffic) {
  net::DirectTransport origin([](const http::Request&) {
    return http::Response::MakeOk("clean content");
  });
  ScanningFirewall firewall(&origin, {"attack-signature"});
  http::Request request;
  request.target = "/ok";
  Result<http::Response> response = firewall.RoundTrip(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(firewall.stats().blocked, 0u);
  EXPECT_EQ(firewall.stats().messages, 2u);  // Request and response.
  EXPECT_GT(firewall.stats().bytes_scanned, 0u);
}

TEST(ScanningFirewallTest, BlocksMatchingRequests) {
  bool origin_reached = false;
  net::DirectTransport origin([&](const http::Request&) {
    origin_reached = true;
    return http::Response::MakeOk("x");
  });
  ScanningFirewall firewall(&origin, {"DROP TABLE"});
  http::Request request;
  request.body = "q=1; DROP TABLE users";
  Result<http::Response> response = firewall.RoundTrip(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 403);
  EXPECT_FALSE(origin_reached);
  EXPECT_EQ(firewall.stats().blocked, 1u);
}

TEST(ScanningFirewallTest, CountsResponseSignaturesWithoutBlocking) {
  net::DirectTransport origin([](const http::Request&) {
    return http::Response::MakeOk("xx marker yy marker zz");
  });
  ScanningFirewall firewall(&origin, {"marker"});
  Result<http::Response> response = firewall.RoundTrip(http::Request{});
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(firewall.stats().signature_hits, 2u);
}

TEST(ScanningFirewallTest, BytesScannedTracksTraffic) {
  std::string body(10000, 'a');
  net::DirectTransport origin([&](const http::Request&) {
    return http::Response::MakeOk(body);
  });
  ScanningFirewall firewall(&origin, {"zzz"});
  http::Request request;
  firewall.RoundTrip(request);
  EXPECT_EQ(firewall.stats().bytes_scanned,
            request.Serialize().size() + body.size());
}

// A response body that arrives in two chunks, cut inside "marker".
class SplitSignatureTransport : public net::Transport {
 public:
  Result<net::StreamingResponse> RoundTripStreaming(
      const http::Request&) override {
    class Body : public http::BodyStream {
     public:
      Result<common::BufferChain> Next() override {
        common::BufferChain out;
        if (at_ == 0) out.AppendCopy("xx mar");
        if (at_ == 1) out.AppendCopy("ker yy");
        ++at_;
        return out;
      }

     private:
      int at_ = 0;
    };
    net::StreamingResponse streaming;
    streaming.head = http::Response::MakeOk("");
    streaming.body = std::make_unique<Body>();
    return streaming;
  }
};

TEST(ScanningFirewallTest, CountsASignatureSplitAcrossChunks) {
  SplitSignatureTransport origin;
  ScanningFirewall firewall(&origin, {"marker"});
  Result<http::Response> response = firewall.RoundTrip(http::Request{});
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->body, "xx marker yy");
  EXPECT_EQ(firewall.stats().signature_hits, 1u);
  EXPECT_EQ(firewall.stats().blocked, 0u);
}

TEST(ScanningFirewallTest, MultipleSignatures) {
  net::DirectTransport origin([](const http::Request&) {
    return http::Response::MakeOk("has alpha and beta");
  });
  ScanningFirewall firewall(&origin, {"alpha", "beta", "gamma"});
  firewall.RoundTrip(http::Request{});
  EXPECT_EQ(firewall.stats().signature_hits, 2u);
}

}  // namespace
}  // namespace dynaprox::firewall
