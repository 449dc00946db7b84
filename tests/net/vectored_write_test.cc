// Partial-write resumption for chained (vectored) response bodies: a
// reader with a starved receive buffer forces both servers to stop
// mid-iovec and resume from a byte offset, and a reader that never
// drains at all must still trip the write-stall deadline.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <string_view>
#include <thread>

#include <gtest/gtest.h>

#include "common/buffer_chain.h"
#include "http/parser.h"
#include "net/connection_pool.h"
#include "net/epoll_server.h"
#include "net/tcp.h"

namespace dynaprox::net {
namespace {

// One shared fragment buffer spliced thousands of times, separated by
// small owned literals: the response crosses the 64-iovec sendmsg batch
// limit dozens of times, and any resumption bug scrambles the pattern.
constexpr int kSplices = 3000;
const std::string& FragmentBytes() {
  static const std::string bytes(2048, 'F');
  return bytes;
}

std::string ExpectedBody() {
  std::string body;
  for (int i = 0; i < kSplices; ++i) {
    body += "<" + std::to_string(i) + ">";
    body += FragmentBytes();
  }
  return body;
}

http::Response ChainedResponse() {
  http::Response response = http::Response::MakeOk("");
  common::Buffer fragment = common::MakeBuffer(FragmentBytes());
  for (int i = 0; i < kSplices; ++i) {
    response.body_chain.AppendCopy("<" + std::to_string(i) + ">");
    response.body_chain.Append(fragment);
  }
  return response;
}

// Loopback client whose receive buffer is clamped before connect, so the
// server's send side fills quickly and every flush ends in a short write.
class StarvedClient {
 public:
  StarvedClient(uint16_t port, int rcvbuf_bytes) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~StarvedClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool Send(std::string_view bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  // Drains one response in small sips, pausing periodically so the
  // server's queue stays backed up and must resume many times.
  Result<http::Response> SipResponse() {
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    http::ResponseReader reader;
    char buf[1024];
    int reads = 0;
    for (;;) {
      if (auto next = reader.Next()) {
        if (!next->ok()) return next->status();
        return std::move(*next);
      }
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return Status::IoError("connection closed / timed out");
      reader.Feed(std::string_view(buf, static_cast<size_t>(n)));
      if (++reads % 256 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

constexpr std::string_view kGet = "GET /page HTTP/1.1\r\nHost: t\r\n\r\n";

TEST(VectoredWriteTest, TcpResumesPartialWritesAcrossIovecs) {
  TcpServer server([](const http::Request&) { return ChainedResponse(); });
  ASSERT_TRUE(server.Start().ok());
  StarvedClient client(server.port(), /*rcvbuf_bytes=*/8 * 1024);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(kGet));
  // Let the server wedge against the full socket buffer before draining.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Result<http::Response> response = client.SipResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(response->body, ExpectedBody());
  server.Stop();
}

TEST(VectoredWriteTest, EpollResumesPartialWritesMidIovec) {
  EpollServer server(
      [](const http::Request&) { return ChainedResponse(); });
  ASSERT_TRUE(server.Start().ok());
  StarvedClient client(server.port(), /*rcvbuf_bytes=*/8 * 1024);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(kGet));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Result<http::Response> response = client.SipResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body, ExpectedBody());
  server.Stop();
}

TEST(VectoredWriteTest, EpollKeepAliveSurvivesChainedResponses) {
  // The output chain must be fully cleared between responses on one
  // connection, or stale slices leak into the next reply.
  EpollServer server(
      [](const http::Request&) { return ChainedResponse(); });
  ASSERT_TRUE(server.Start().ok());
  PooledClientTransport client("127.0.0.1", server.port());
  const std::string expected = ExpectedBody();
  for (int i = 0; i < 3; ++i) {
    Result<http::Response> response = client.RoundTrip(http::Request{});
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->body, expected);
  }
  EXPECT_EQ(server.connections_accepted(), 1u);
  server.Stop();
}

TEST(VectoredWriteTest, TcpWriteStallDeadlineCoversChainedBodies) {
  ServerLimits limits;
  limits.write_stall_micros = 150 * kMicrosPerMilli;
  TcpServer server([](const http::Request&) { return ChainedResponse(); },
                   0, limits);
  ASSERT_TRUE(server.Start().ok());
  StarvedClient client(server.port(), /*rcvbuf_bytes=*/4 * 1024);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(kGet));
  // Never read: the vectored send path must still honor the stall
  // deadline and close the connection.
  for (int i = 0; i < 100; ++i) {
    if (server.ingress().write_stall_closes.load() > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server.ingress().write_stall_closes.load(), 1u);
  server.Stop();
}

TEST(VectoredWriteTest, EpollWriteStallDeadlineCoversChainedBodies) {
  ServerLimits limits;
  limits.write_stall_micros = 150 * kMicrosPerMilli;
  EpollServer server(
      [](const http::Request&) { return ChainedResponse(); }, 0,
      /*num_workers=*/1, limits);
  ASSERT_TRUE(server.Start().ok());
  StarvedClient client(server.port(), /*rcvbuf_bytes=*/4 * 1024);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(kGet));
  for (int i = 0; i < 100; ++i) {
    if (server.ingress().write_stall_closes.load() > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server.ingress().write_stall_closes.load(), 1u);
  server.Stop();
}

}  // namespace
}  // namespace dynaprox::net
