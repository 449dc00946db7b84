#include "workload/driver.h"

#include <gtest/gtest.h>

namespace dynaprox::workload {
namespace {

class FailingTransport : public net::Transport {
 public:
  Result<net::StreamingResponse> RoundTripStreaming(
      const http::Request&) override {
    ++calls_;
    if (calls_ % 3 == 0) return Status::IoError("flaky link");
    return net::StreamWhole(http::Response::MakeOk("ok"));
  }

 private:
  int calls_ = 0;
};

TEST(DriverTest, CountsTransportErrorsSeparately) {
  FailingTransport transport;
  RequestStream stream(4, 1.0, 9);
  DriverStats stats = RunWorkload(transport, stream, 300);
  EXPECT_EQ(stats.requests, 300u);
  EXPECT_EQ(stats.transport_errors, 100u);
  EXPECT_EQ(stats.ok_responses, 200u);
  EXPECT_EQ(stats.error_responses, 0u);
  EXPECT_EQ(stats.response_body_bytes, 200u * 2);
}

TEST(DriverTest, ZeroRequestsIsANoOp) {
  FailingTransport transport;
  RequestStream stream(4, 1.0, 9);
  DriverStats stats = RunWorkload(transport, stream, 0);
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.ok_responses, 0u);
}

}  // namespace
}  // namespace dynaprox::workload
