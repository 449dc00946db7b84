// End-to-end streaming over real sockets: handlers that return a
// Response::body_stream (served chunked by TcpServer and EpollServer) and
// the client half (Transport::RoundTripStreaming on the buffered adapter
// and on PooledClientTransport, whose RoundTrip drains the same stream).

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/buffer_chain.h"
#include "net/connection_pool.h"
#include "net/epoll_server.h"
#include "net/tcp.h"
#include "net/transport.h"

namespace dynaprox::net {
namespace {

// A body stream delivering a fixed script of chunks, then end (or an
// error when `fail_after_script` is set).
class ScriptedStream : public http::BodyStream {
 public:
  explicit ScriptedStream(std::vector<std::string> chunks,
                          bool fail_after_script = false)
      : chunks_(std::move(chunks)), fail_after_script_(fail_after_script) {}

  Result<common::BufferChain> Next() override {
    if (at_ < chunks_.size()) {
      common::BufferChain out;
      out.AppendCopy(chunks_[at_++]);
      return out;
    }
    if (fail_after_script_) return Status::IoError("scripted mid-body error");
    return common::BufferChain();
  }

 private:
  std::vector<std::string> chunks_;
  bool fail_after_script_;
  size_t at_ = 0;
};

http::Response StreamedResponse(std::vector<std::string> chunks,
                                bool fail_after_script = false) {
  http::Response response;
  response.headers.Set("X-Streamed", "1");
  response.body_stream = std::make_shared<ScriptedStream>(
      std::move(chunks), fail_after_script);
  return response;
}

std::string DrainAll(http::BodyStream& stream, Status* status = nullptr) {
  std::string out;
  for (;;) {
    Result<common::BufferChain> chunk = stream.Next();
    if (!chunk.ok()) {
      if (status != nullptr) *status = chunk.status();
      return out;
    }
    if (chunk->empty()) {
      if (status != nullptr) *status = Status::Ok();
      return out;
    }
    out += chunk->Flatten();
  }
}

// --- Servers sending streams, read by the buffered client ---------------

TEST(StreamingTest, TcpServerStreamsChunkedToBufferedClient) {
  TcpServer server([](const http::Request&) {
    return StreamedResponse({"one ", "two ", "three"});
  });
  ASSERT_TRUE(server.Start().ok());
  PooledClientTransport client("127.0.0.1", server.port());
  http::Request request;
  request.target = "/streamed";
  Result<http::Response> response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body, "one two three");
  EXPECT_EQ(response->headers.Get("X-Streamed"), "1");
  server.Stop();
}

TEST(StreamingTest, EpollServerStreamsChunkedToBufferedClient) {
  EpollServer server([](const http::Request&) {
    return StreamedResponse({"alpha", "beta", "gamma"});
  });
  ASSERT_TRUE(server.Start().ok());
  PooledClientTransport client("127.0.0.1", server.port());
  http::Request request;
  request.target = "/streamed";
  Result<http::Response> response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body, "alphabetagamma");
  server.Stop();
}

TEST(StreamingTest, KeepAliveSurvivesAStreamedResponse) {
  // The chunked terminator delimits the body, so the connection must be
  // reusable for buffered and streamed requests alike — on both servers.
  std::atomic<int> calls{0};
  Handler handler = [&calls](const http::Request& request) {
    ++calls;
    if (request.Path() == "/streamed") {
      return StreamedResponse({"chunked", "-body"});
    }
    return http::Response::MakeOk("buffered-body");
  };
  TcpServer tcp_server(handler);
  EpollServer epoll_server(handler);
  ASSERT_TRUE(tcp_server.Start().ok());
  ASSERT_TRUE(epoll_server.Start().ok());
  for (uint16_t port : {tcp_server.port(), epoll_server.port()}) {
    PooledClientTransport client("127.0.0.1", port);
    for (int round = 0; round < 3; ++round) {
      http::Request request;
      request.target = "/streamed";
      Result<http::Response> streamed = client.RoundTrip(request);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      EXPECT_EQ(streamed->body, "chunked-body");
      request.target = "/buffered";
      Result<http::Response> buffered = client.RoundTrip(request);
      ASSERT_TRUE(buffered.ok());
      EXPECT_EQ(buffered->body, "buffered-body");
    }
  }
  EXPECT_EQ(calls.load(), 12);
  tcp_server.Stop();
  epoll_server.Stop();
}

TEST(StreamingTest, MidStreamErrorSurfacesAsTruncatedBody) {
  // After the head is committed the only honest failure mode is closing
  // without the final chunk frame; the buffered client must report an
  // error, never a complete-looking short body.
  for (int use_epoll = 0; use_epoll < 2; ++use_epoll) {
    Handler handler = [](const http::Request&) {
      return StreamedResponse({"partial "}, /*fail_after_script=*/true);
    };
    std::unique_ptr<TcpServer> tcp;
    std::unique_ptr<EpollServer> epoll;
    uint16_t port = 0;
    if (use_epoll == 1) {
      epoll = std::make_unique<EpollServer>(handler);
      ASSERT_TRUE(epoll->Start().ok());
      port = epoll->port();
    } else {
      tcp = std::make_unique<TcpServer>(handler);
      ASSERT_TRUE(tcp->Start().ok());
      port = tcp->port();
    }
    PooledClientTransport client("127.0.0.1", port);
    http::Request request;
    request.target = "/aborted";
    Result<http::Response> response = client.RoundTrip(request);
    EXPECT_FALSE(response.ok()) << "use_epoll=" << use_epoll;
    if (tcp != nullptr) tcp->Stop();
    if (epoll != nullptr) epoll->Stop();
  }
}

TEST(StreamingTest, LargeStreamedBodyAppliesBackpressure) {
  // 4MiB through the EpollServer's 256KiB high-water mark: the pump must
  // pause and resume on EPOLLOUT without losing or reordering bytes.
  constexpr int kChunks = 64;
  const std::string chunk(64 * 1024, 's');
  EpollServer server([&chunk](const http::Request&) {
    std::vector<std::string> chunks(kChunks, chunk);
    return StreamedResponse(std::move(chunks));
  });
  ASSERT_TRUE(server.Start().ok());
  PooledClientTransport client("127.0.0.1", server.port());
  http::Request request;
  request.target = "/big";
  Result<http::Response> response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body.size(), size_t{kChunks} * chunk.size());
  EXPECT_EQ(response->body, std::string(kChunks * chunk.size(), 's'));
  server.Stop();
}

// --- Streaming clients --------------------------------------------------

TEST(StreamingTest, DefaultAdapterDeliversBufferedBodyAsOneStream) {
  DirectTransport direct(
      [](const http::Request&) { return http::Response::MakeOk("whole"); });
  http::Request request;
  Result<StreamingResponse> streaming = direct.RoundTripStreaming(request);
  ASSERT_TRUE(streaming.ok());
  EXPECT_EQ(streaming->head.status_code, 200);
  EXPECT_TRUE(streaming->head.body.empty());
  ASSERT_NE(streaming->body, nullptr);
  EXPECT_EQ(DrainAll(*streaming->body), "whole");
}

TEST(StreamingTest, PooledRoundTripStreamingDeliversBodyIncrementally) {
  TcpServer server([](const http::Request&) {
    return StreamedResponse({"first|", "second|", "third"});
  });
  ASSERT_TRUE(server.Start().ok());
  PooledClientTransport client("127.0.0.1", server.port());
  http::Request request;
  request.target = "/streamed";
  Result<StreamingResponse> streaming = client.RoundTripStreaming(request);
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();
  EXPECT_EQ(streaming->head.headers.Get("X-Streamed"), "1");
  Status drained;
  EXPECT_EQ(DrainAll(*streaming->body, &drained), "first|second|third");
  EXPECT_TRUE(drained.ok()) << drained.ToString();
  streaming->body.reset();
  // Fully drained: the connection is reusable for an ordinary round trip.
  Result<http::Response> next = client.RoundTrip(request);
  EXPECT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(client.pool().stats().connects, 1u);
  server.Stop();
}

TEST(StreamingTest, PooledStreamingSeesMidBodyTruncation) {
  TcpServer server([](const http::Request&) {
    return StreamedResponse({"bytes-then-abort"},
                            /*fail_after_script=*/true);
  });
  ASSERT_TRUE(server.Start().ok());
  PooledClientTransport client("127.0.0.1", server.port());
  http::Request request;
  Result<StreamingResponse> streaming = client.RoundTripStreaming(request);
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();
  Status drained;
  std::string body = DrainAll(*streaming->body, &drained);
  EXPECT_FALSE(drained.ok());
  // The framing state is unknown: the connection is closed, not pooled.
  EXPECT_EQ(client.pool().stats().open_connections, 0);
  server.Stop();
}

TEST(StreamingTest, PooledStreamingLeavesOtherSlotsUsable) {
  // While one pooled connection is pinned by an undrained stream, a
  // nested RoundTrip on the same transport must proceed on another slot —
  // the property DpcProxy's inline miss recovery depends on.
  TcpServer server([](const http::Request& request) {
    if (request.Path() == "/streamed") {
      return StreamedResponse({"streamed-head|", "streamed-tail"});
    }
    return http::Response::MakeOk("nested-ok");
  });
  ASSERT_TRUE(server.Start().ok());
  PooledTransportOptions options;
  options.pool.max_connections = 2;
  PooledClientTransport client("127.0.0.1", server.port(), options);

  http::Request request;
  request.target = "/streamed";
  Result<StreamingResponse> streaming = client.RoundTripStreaming(request);
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();
  Result<common::BufferChain> first = streaming->body->Next();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->empty());

  // Stream open and partially consumed; issue a nested round trip.
  http::Request nested;
  nested.target = "/nested";
  Result<http::Response> inner = client.RoundTrip(nested);
  ASSERT_TRUE(inner.ok()) << inner.status().ToString();
  EXPECT_EQ(inner->body, "nested-ok");

  Status drained;
  std::string rest = DrainAll(*streaming->body, &drained);
  EXPECT_TRUE(drained.ok()) << drained.ToString();
  EXPECT_EQ(first->Flatten() + rest, "streamed-head|streamed-tail");
  server.Stop();
}

TEST(StreamingTest, MeteredTransportMetersStreamedChunks) {
  auto inner = std::make_unique<DirectTransport>([](const http::Request&) {
    return http::Response::MakeOk(std::string(1000, 'm'));
  });
  ByteMeter requests;
  ByteMeter responses;
  MeteredTransport metered(std::move(inner), &requests, &responses);
  http::Request request;
  Result<StreamingResponse> streaming = metered.RoundTripStreaming(request);
  ASSERT_TRUE(streaming.ok());
  uint64_t after_head = responses.payload_bytes();
  EXPECT_EQ(DrainAll(*streaming->body).size(), 1000u);
  // Head metered as one message, body bytes accrued per pulled chunk.
  EXPECT_EQ(responses.payload_bytes(), after_head + 1000u);
  EXPECT_EQ(responses.messages(), 1u);
  EXPECT_EQ(requests.messages(), 1u);
}

}  // namespace
}  // namespace dynaprox::net
