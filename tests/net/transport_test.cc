#include "net/transport.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "bem/protocol.h"
#include "net/idempotency.h"

namespace dynaprox::net {
namespace {

http::Response Echo(const http::Request& request) {
  http::Response response = http::Response::MakeOk("echo:" + request.target);
  return response;
}

TEST(DirectTransportTest, InvokesHandler) {
  DirectTransport transport(Echo);
  http::Request request;
  request.target = "/abc";
  Result<http::Response> response = transport.RoundTrip(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->body, "echo:/abc");
}

TEST(MeteredTransportTest, CountsBothDirections) {
  ByteMeter request_meter{ProtocolModel::PayloadOnly()};
  ByteMeter response_meter{ProtocolModel::PayloadOnly()};
  MeteredTransport transport(std::make_unique<DirectTransport>(Echo),
                             &request_meter, &response_meter);
  http::Request request;
  request.target = "/x";
  Result<http::Response> response = transport.RoundTrip(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(request_meter.messages(), 1u);
  EXPECT_EQ(request_meter.payload_bytes(), request.SerializedSize());
  EXPECT_EQ(response_meter.messages(), 1u);
  EXPECT_EQ(response_meter.payload_bytes(), response->SerializedSize());
}

TEST(MeteredTransportTest, NullMetersAreSkipped) {
  MeteredTransport transport(std::make_unique<DirectTransport>(Echo),
                             nullptr, nullptr);
  http::Request request;
  EXPECT_TRUE(transport.RoundTrip(request).ok());
}

// A response pulled as a stream must meter exactly what the same response
// meters whole: payload and wire bytes, packets counted over the message.
void ExpectStreamedMetersLikeWhole(std::unique_ptr<Transport> whole_inner,
                                   std::unique_ptr<Transport> stream_inner) {
  ByteMeter whole_meter;  // Default model: 40 B/packet, 1460 MSS, 120 B/msg.
  ByteMeter stream_meter;
  MeteredTransport whole(std::move(whole_inner), nullptr, &whole_meter);
  MeteredTransport streamed(std::move(stream_inner), nullptr, &stream_meter);
  http::Request request;
  ASSERT_TRUE(whole.RoundTrip(request).ok());
  Result<StreamingResponse> response = streamed.RoundTripStreaming(request);
  ASSERT_TRUE(response.ok());
  for (;;) {
    Result<common::BufferChain> chunk = response->body->Next();
    ASSERT_TRUE(chunk.ok());
    if (chunk->empty()) break;
  }
  EXPECT_EQ(stream_meter.messages(), whole_meter.messages());
  EXPECT_EQ(stream_meter.payload_bytes(), whole_meter.payload_bytes());
  EXPECT_EQ(stream_meter.wire_bytes(), whole_meter.wire_bytes());
}

TEST(MeteredTransportTest, MultiChunkStreamMetersLikeWholeResponse) {
  // The same 5000-byte response, whole or in three chunks of a head that
  // declares its length, as a socket transport delivers it.
  class ThreeChunks : public Transport {
   public:
    Result<http::Response> RoundTrip(const http::Request&) override {
      http::Response response = http::Response::MakeOk(std::string(5000, 'b'));
      response.headers.Set("Content-Length", "5000");
      return response;
    }
    Result<StreamingResponse> RoundTripStreaming(
        const http::Request&) override {
      class Body : public http::BodyStream {
       public:
        Result<common::BufferChain> Next() override {
          common::BufferChain out;
          if (at_ < sizes_.size()) {
            out.AppendCopy(std::string(sizes_[at_++], 'b'));
          }
          return out;
        }

       private:
        std::vector<size_t> sizes_ = {1000, 1500, 2500};
        size_t at_ = 0;
      };
      StreamingResponse streaming;
      streaming.head = http::Response::MakeOk("");
      streaming.head.headers.Set("Content-Length", "5000");
      streaming.body = std::make_unique<Body>();
      return streaming;
    }
  };
  ExpectStreamedMetersLikeWhole(std::make_unique<ThreeChunks>(),
                                std::make_unique<ThreeChunks>());
}

TEST(MeteredTransportTest, InProcessStreamMetersLikeWholeResponse) {
  // The default adapter's head declares the body length, so an in-process
  // response does not meter as a Content-Length: 0 head plus a body.
  auto handler = [](const http::Request&) {
    return http::Response::MakeOk(std::string(3000, 'd'));
  };
  ExpectStreamedMetersLikeWhole(std::make_unique<DirectTransport>(handler),
                                std::make_unique<DirectTransport>(handler));
}

TEST(IdempotencyTest, SafeToRetryRules) {
  http::Request get;
  http::Request post;
  post.method = "POST";
  // Nothing on the wire yet: any request may be retried.
  EXPECT_TRUE(SafeToRetry(post, 0, {}));
  // Bytes may have reached the server: only idempotent methods retry.
  EXPECT_TRUE(SafeToRetry(get, 10, {}));
  EXPECT_FALSE(SafeToRetry(post, 10, {}));
  // A configured header marks an otherwise-idempotent request unsafe.
  http::Request refresh_get;
  refresh_get.headers.Set(bem::kRefreshHeader, "a1,b2");
  EXPECT_FALSE(SafeToRetry(refresh_get, 10, {bem::kRefreshHeader}));
  EXPECT_TRUE(SafeToRetry(refresh_get, 0, {bem::kRefreshHeader}));
}

}  // namespace
}  // namespace dynaprox::net
