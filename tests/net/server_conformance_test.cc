// Shell conformance: TcpServer (blocking, thread-per-connection) and
// EpollServer (non-blocking event loops) are thin transports over the
// same net::ConnectionCore, so every connection-lifecycle rule must
// behave identically on both. Each test here runs once per shell and
// pins the rules the unified core converged:
//
//   - keep-alive connections are reused, not re-accepted;
//   - the header deadline resets on a clean message boundary (a quiet
//     keep-alive gap is not a slowloris) but holds for partial messages;
//   - the connection cap counts the server's own connections, never a
//     shared IngressCounters gauge;
//   - Stop(drain) finishes the in-flight request, answers it with
//     "Connection: close", and counts the connection drained — even
//     when the drain begins while the handler is still running;
//   - a request whose framing a peer could read differently is answered
//     400 and the connection closed, with nothing dispatched.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "http/parser.h"
#include "net/connection_pool.h"
#include "net/epoll_server.h"
#include "net/tcp.h"

namespace dynaprox::net {
namespace {

http::Response EchoHandler(const http::Request& request) {
  return http::Response::MakeOk("path=" + std::string(request.Path()));
}

enum class Shell { kThreads, kEpoll };

std::string ShellName(const ::testing::TestParamInfo<Shell>& info) {
  return info.param == Shell::kThreads ? "Threads" : "Epoll";
}

// Uniform facade over the two server classes.
class ServerUnderTest {
 public:
  ServerUnderTest(Shell shell, Handler handler, ServerLimits limits = {}) {
    if (shell == Shell::kThreads) {
      tcp_ = std::make_unique<TcpServer>(std::move(handler), 0, limits);
    } else {
      epoll_ = std::make_unique<EpollServer>(std::move(handler), 0,
                                             /*num_workers=*/1, limits);
    }
  }

  Status Start() { return tcp_ ? tcp_->Start() : epoll_->Start(); }
  void Stop() { tcp_ ? tcp_->Stop() : epoll_->Stop(); }
  void Stop(MicroTime drain_micros) {
    tcp_ ? tcp_->Stop(drain_micros) : epoll_->Stop(drain_micros);
  }
  uint16_t port() const { return tcp_ ? tcp_->port() : epoll_->port(); }
  const IngressCounters& ingress() const {
    return tcp_ ? tcp_->ingress() : epoll_->ingress();
  }

 private:
  std::unique_ptr<TcpServer> tcp_;
  std::unique_ptr<EpollServer> epoll_;
};

class ServerConformanceTest : public ::testing::TestWithParam<Shell> {};

int ConnectTo(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Reads one complete response off `fd` (bounded wait), or nullopt.
std::optional<http::Response> ReadOneResponse(int fd) {
  http::ResponseReader reader;
  char buf[8192];
  for (int i = 0; i < 400; ++i) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 25) <= 0) continue;
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return std::nullopt;
    reader.Feed(std::string_view(buf, static_cast<size_t>(n)));
    if (auto next = reader.Next(); next.has_value() && next->ok()) {
      return next->value();
    }
  }
  return std::nullopt;
}

// True once the peer closes `fd` within ~2.5 s. A close that races
// bytes still in the server's receive buffer surfaces as ECONNRESET
// rather than a clean FIN; both count as closed here.
bool WaitForEof(int fd) {
  char buf[4096];
  for (int i = 0; i < 100; ++i) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 25) <= 0) continue;
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) return true;
    if (n < 0) return errno == ECONNRESET;
  }
  return false;
}

TEST_P(ServerConformanceTest, KeepAliveReusesOneConnection) {
  ServerUnderTest server(GetParam(), EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  PooledClientTransport client("127.0.0.1", server.port());
  for (int i = 0; i < 20; ++i) {
    http::Request request;
    request.target = "/r" + std::to_string(i);
    Result<http::Response> response = client.RoundTrip(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->body, "path=/r" + std::to_string(i));
  }
  EXPECT_EQ(server.ingress().accepted_total.load(), 1u);
  server.Stop();
}

TEST_P(ServerConformanceTest, HeaderDeadlineResetsOnCleanBoundary) {
  ServerLimits limits;
  limits.header_timeout_micros = 200 * kMicrosPerMilli;
  ServerUnderTest server(GetParam(), EchoHandler, limits);
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);

  // Complete request, then a keep-alive gap much longer than the header
  // budget: the deadline clock reset on the clean boundary, so the
  // connection must survive and serve a second request.
  http::Request first;
  first.target = "/first";
  std::string wire = first.Serialize();
  ASSERT_GT(::send(fd, wire.data(), wire.size(), 0), 0);
  ASSERT_TRUE(ReadOneResponse(fd).has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  http::Request second;
  second.target = "/second";
  wire = second.Serialize();
  ASSERT_GT(::send(fd, wire.data(), wire.size(), 0), 0);
  std::optional<http::Response> response = ReadOneResponse(fd);
  ASSERT_TRUE(response.has_value())
      << "keep-alive gap tripped the header deadline";
  EXPECT_EQ(response->body, "path=/second");
  EXPECT_EQ(server.ingress().header_timeouts.load(), 0u);

  // A partial message keeps its original clock: one unfinished header
  // line is a slowloris, reaped at the deadline.
  const char kPartial[] = "GET /slow HTTP/1.1\r\nX-Trickle: a";
  ASSERT_GT(::send(fd, kPartial, sizeof(kPartial) - 1, 0), 0);
  EXPECT_TRUE(WaitForEof(fd)) << "partial request not reaped";
  EXPECT_EQ(server.ingress().header_timeouts.load(), 1u);
  ::close(fd);
  server.Stop();
}

TEST_P(ServerConformanceTest, ConnectionCapCountsOwnConnectionsOnly) {
  // Two servers share one IngressCounters, each capped at 1. If either
  // enforced the cap against the shared gauge, the second server's
  // first client would be rejected by the other server's connection.
  IngressCounters shared;
  ServerLimits limits;
  limits.max_connections = 1;
  limits.counters = &shared;
  ServerUnderTest a(GetParam(), EchoHandler, limits);
  ServerUnderTest b(GetParam(), EchoHandler, limits);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());

  int on_a = ConnectTo(a.port());
  ASSERT_GE(on_a, 0);
  http::Request request;
  request.target = "/held";
  std::string wire = request.Serialize();
  ASSERT_GT(::send(on_a, wire.data(), wire.size(), 0), 0);
  ASSERT_TRUE(ReadOneResponse(on_a).has_value());

  // Server B must admit its own first connection despite the shared
  // gauge already being at 1 from server A.
  int on_b = ConnectTo(b.port());
  ASSERT_GE(on_b, 0);
  ASSERT_GT(::send(on_b, wire.data(), wire.size(), 0), 0);
  EXPECT_TRUE(ReadOneResponse(on_b).has_value())
      << "cap enforced against the shared gauge, not the server's own";
  EXPECT_EQ(shared.connection_limit_rejections.load(), 0u);

  // A second connection to A (its one slot held by on_a) is rejected:
  // closed without a response.
  int overflow = ConnectTo(a.port());
  ASSERT_GE(overflow, 0);
  ASSERT_GT(::send(overflow, wire.data(), wire.size(), 0), 0);
  EXPECT_TRUE(WaitForEof(overflow));
  EXPECT_EQ(shared.connection_limit_rejections.load(), 1u);

  ::close(on_a);
  ::close(on_b);
  ::close(overflow);
  a.Stop();
  b.Stop();
}

TEST_P(ServerConformanceTest, DrainFinishesInflightAndCountsIt) {
  // The drain begins while the handler is still running; the response
  // must still go out, carry "Connection: close", close the connection,
  // and count toward drained_connections — on both shells.
  ServerUnderTest server(
      GetParam(),
      [](const http::Request& request) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        return EchoHandler(request);
      });
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  http::Request request;
  request.target = "/inflight";
  std::string wire = request.Serialize();
  ASSERT_GT(::send(fd, wire.data(), wire.size(), 0), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  server.Stop(/*drain_timeout_micros=*/2 * kMicrosPerSecond);
  std::optional<http::Response> response = ReadOneResponse(fd);
  ASSERT_TRUE(response.has_value()) << "in-flight request lost to drain";
  EXPECT_EQ(response->body, "path=/inflight");
  EXPECT_EQ(response->headers.Get("Connection").value_or(""), "close");
  EXPECT_EQ(server.ingress().drained_connections.load(), 1u);
  ::close(fd);
}

TEST_P(ServerConformanceTest, DrainServesRequestBytesAlreadyBuffered) {
  // The request reaches the kernel socket buffer before the drain begins
  // but the server has not read it yet (the handler is busy with another
  // connection). Drain must treat it as in flight — served with
  // "Connection: close" — not reap the connection as idle.
  ServerUnderTest server(
      GetParam(),
      [](const http::Request& request) {
        if (request.Path() == "/busy") {
          std::this_thread::sleep_for(std::chrono::milliseconds(250));
        }
        return EchoHandler(request);
      });
  ASSERT_TRUE(server.Start().ok());

  // Establish the victim connection with a round trip so it is a known,
  // served keep-alive connection before the busy request starts.
  int victim = ConnectTo(server.port());
  ASSERT_GE(victim, 0);
  http::Request warm;
  warm.target = "/warm";
  std::string wire = warm.Serialize();
  ASSERT_GT(::send(victim, wire.data(), wire.size(), 0), 0);
  ASSERT_TRUE(ReadOneResponse(victim).has_value());

  int busy = ConnectTo(server.port());
  ASSERT_GE(busy, 0);
  http::Request slow;
  slow.target = "/busy";
  wire = slow.Serialize();
  ASSERT_GT(::send(busy, wire.data(), wire.size(), 0), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  // Now the victim's request lands; it may sit unread while the shell is
  // busy (epoll: same worker loop occupied by /busy).
  http::Request parked;
  parked.target = "/parked";
  wire = parked.Serialize();
  ASSERT_GT(::send(victim, wire.data(), wire.size(), 0), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  server.Stop(/*drain_timeout_micros=*/3 * kMicrosPerSecond);

  std::optional<http::Response> response = ReadOneResponse(victim);
  ASSERT_TRUE(response.has_value()) << "buffered request lost to drain";
  EXPECT_EQ(response->body, "path=/parked");
  std::optional<http::Response> slow_response = ReadOneResponse(busy);
  ASSERT_TRUE(slow_response.has_value());
  EXPECT_EQ(slow_response->body, "path=/busy");
  ::close(victim);
  ::close(busy);
}

TEST_P(ServerConformanceTest, AmbiguousFramingIsRefusedWith400AndClosed) {
  // Disagreeing Content-Length fields (RFC 9112 §6.3) and a coding list
  // ending in chunked (§6.1). Taking the first length, or ignoring the
  // unknown coding, makes each a bodiless POST followed by a second
  // request, "GET /smuggled"; a peer taking the other reading sees one
  // POST. The server must answer 400, close, and dispatch neither.
  for (const char* framing :
       {"Content-Length: 0\r\nContent-Length: 26\r\n\r\n",
        "Transfer-Encoding: gzip, chunked\r\n\r\n"}) {
    std::atomic<int> dispatched{0};
    ServerUnderTest server(GetParam(), [&](const http::Request& request) {
      dispatched.fetch_add(1);
      return EchoHandler(request);
    });
    ASSERT_TRUE(server.Start().ok());
    int fd = ConnectTo(server.port());
    ASSERT_GE(fd, 0);
    std::string wire = std::string("POST /a HTTP/1.1\r\n") + framing +
                       "GET /smuggled HTTP/1.1\r\n\r\n";
    ASSERT_GT(::send(fd, wire.data(), wire.size(), 0), 0);
    std::optional<http::Response> response = ReadOneResponse(fd);
    ASSERT_TRUE(response.has_value()) << framing;
    EXPECT_EQ(response->status_code, 400) << framing;
    EXPECT_TRUE(WaitForEof(fd)) << framing;
    EXPECT_EQ(dispatched.load(), 0) << framing;
    ::close(fd);
    server.Stop();
  }
}

INSTANTIATE_TEST_SUITE_P(Shells, ServerConformanceTest,
                         ::testing::Values(Shell::kThreads, Shell::kEpoll),
                         ShellName);

}  // namespace
}  // namespace dynaprox::net
