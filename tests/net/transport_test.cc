#include "net/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bem/protocol.h"
#include "net/idempotency.h"
#include "net/tcp.h"

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

// Accepts connections one at a time; reads one request off each, closes
// the first `drop_count` without responding, and answers the rest.
// Simulates an origin that dies after receiving a request.
class DroppingServer {
 public:
  explicit DroppingServer(int drop_count) : drop_count_(drop_count) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 8), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }

  ~DroppingServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (thread_.joinable()) thread_.join();
  }

  uint16_t port() const { return port_; }
  int requests_received() const { return received_.load(); }

 private:
  void Serve() {
    for (;;) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // Listener closed by the destructor.
      char buf[4096];
      if (::recv(fd, buf, sizeof(buf), 0) > 0) {
        int index = received_.fetch_add(1);
        if (index >= drop_count_) {
          const char kResponse[] =
              "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
          (void)!::send(fd, kResponse, sizeof(kResponse) - 1, MSG_NOSIGNAL);
        }
      }
      ::close(fd);
    }
  }

  int drop_count_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<int> received_{0};
  std::thread thread_;
};

TEST(TcpClientRetryTest, NonIdempotentRequestIsNotDuplicated) {
  // The origin receives the POST, then dies without answering. The
  // request bytes reached the server, so the client must surface the
  // error instead of silently re-sending a possibly-executed request.
  DroppingServer server(/*drop_count=*/1);
  TcpClientTransport client("127.0.0.1", server.port());
  http::Request post;
  post.method = "POST";
  post.target = "/charge";
  post.body = "amount=1";
  Result<http::Response> response = client.RoundTrip(post);
  EXPECT_FALSE(response.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(server.requests_received(), 1);
}

TEST(TcpClientRetryTest, IdempotentRequestIsRetriedOnce) {
  DroppingServer server(/*drop_count=*/1);
  TcpClientTransport client("127.0.0.1", server.port());
  http::Request get;
  get.target = "/page";
  Result<http::Response> response = client.RoundTrip(get);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body, "ok");
  EXPECT_EQ(server.requests_received(), 2);  // Dropped once, retried once.
}

TEST(TcpClientRetryTest, RefreshHeaderSuppressesRetry) {
  // A GET carrying the BEM refresh header triggers invalidations at the
  // origin; configured as non-idempotent it must not be re-sent either.
  DroppingServer server(/*drop_count=*/1);
  TcpClientOptions options;
  options.non_idempotent_headers = {bem::kRefreshHeader};
  TcpClientTransport client("127.0.0.1", server.port(), options);
  http::Request refresh_get;
  refresh_get.target = "/page";
  refresh_get.headers.Set(bem::kRefreshHeader, "a1,b2");
  Result<http::Response> response = client.RoundTrip(refresh_get);
  EXPECT_FALSE(response.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(server.requests_received(), 1);
}

}  // namespace
}  // namespace dynaprox::net
