#include "net/epoll_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "http/parser.h"
#include "net/connection_pool.h"
#include "fd_exhaustion.h"

namespace dynaprox::net {
namespace {

http::Response EchoHandler(const http::Request& request) {
  return http::Response::MakeOk("path=" + std::string(request.Path()) +
                                ";body=" + request.body);
}

TEST(EpollServerTest, RoundTrip) {
  EpollServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);
  PooledClientTransport client("127.0.0.1", server.port());
  http::Request request;
  request.method = "POST";
  request.target = "/hello";
  request.body = "payload";
  Result<http::Response> response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body, "path=/hello;body=payload");
  server.Stop();
}

TEST(EpollServerTest, KeepAliveSequence) {
  EpollServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  PooledClientTransport client("127.0.0.1", server.port());
  for (int i = 0; i < 50; ++i) {
    http::Request request;
    request.target = "/r" + std::to_string(i);
    Result<http::Response> response = client.RoundTrip(request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->body, "path=/r" + std::to_string(i) + ";body=");
  }
  EXPECT_EQ(server.connections_accepted(), 1u);
  server.Stop();
}

TEST(EpollServerTest, LargeResponseWithPartialWrites) {
  // 4MB response exercises the EPOLLOUT partial-flush path.
  std::string big(4 * 1024 * 1024, 'Z');
  EpollServer server([&](const http::Request&) {
    return http::Response::MakeOk(big);
  });
  ASSERT_TRUE(server.Start().ok());
  PooledClientTransport client("127.0.0.1", server.port());
  Result<http::Response> response = client.RoundTrip(http::Request{});
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->body.size(), big.size());
  server.Stop();
}

TEST(EpollServerTest, ManyConcurrentClients) {
  std::atomic<int> served{0};
  EpollServer server(
      [&](const http::Request& request) {
        ++served;
        return EchoHandler(request);
      },
      0, /*num_workers=*/4);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 16;
  constexpr int kPerThread = 30;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      PooledClientTransport client("127.0.0.1", server.port());
      for (int i = 0; i < kPerThread; ++i) {
        http::Request request;
        request.target = "/t" + std::to_string(t);
        Result<http::Response> response = client.RoundTrip(request);
        if (!response.ok() ||
            response->body != "path=/t" + std::to_string(t) + ";body=") {
          ++failures;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(served.load(), kThreads * kPerThread);
  EXPECT_GE(server.connections_accepted(), static_cast<uint64_t>(kThreads));
  server.Stop();
}

TEST(EpollServerTest, PipelinedRequestsOnOneConnection) {
  EpollServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  // Hand-rolled pipelining: two requests in one write.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  http::Request a;
  a.target = "/a";
  http::Request b;
  b.target = "/b";
  std::string wire = a.Serialize() + b.Serialize();
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  http::ResponseReader reader;
  std::vector<std::string> bodies;
  char buf[4096];
  while (bodies.size() < 2) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    reader.Feed(std::string_view(buf, static_cast<size_t>(n)));
    while (auto next = reader.Next()) {
      ASSERT_TRUE(next->ok());
      bodies.push_back(next->value().body);
    }
  }
  EXPECT_EQ(bodies[0], "path=/a;body=");
  EXPECT_EQ(bodies[1], "path=/b;body=");
  ::close(fd);
  server.Stop();
}

TEST(EpollServerTest, PipelinedRequestsServedAfterClientHalfClose) {
  // Regression: the worker used to close on recv()==0 immediately,
  // discarding pipelined requests that arrived in the same read burst as
  // the EOF. A half-closing client must still get every response.
  EpollServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  http::Request a;
  a.target = "/a";
  http::Request b;
  b.target = "/b";
  std::string wire = a.Serialize() + b.Serialize();
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  // Half-close right away so requests and EOF land together server-side.
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  std::string received;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // Server closes after flushing both responses.
    received.append(buf, static_cast<size_t>(n));
  }
  http::ResponseReader reader;
  reader.Feed(received);
  std::vector<std::string> bodies;
  while (auto next = reader.Next()) {
    ASSERT_TRUE(next->ok());
    bodies.push_back(next->value().body);
  }
  ASSERT_EQ(bodies.size(), 2u);
  EXPECT_EQ(bodies[0], "path=/a;body=");
  EXPECT_EQ(bodies[1], "path=/b;body=");
  ::close(fd);
  server.Stop();
}

TEST(EpollServerTest, LargeResponseFlushedAfterClientHalfClose) {
  // EOF with a response still buffered: the worker must finish flushing
  // (EPOLLOUT path) before closing rather than dropping conn.out.
  std::string big(2 * 1024 * 1024, 'Y');
  EpollServer server([&](const http::Request&) {
    return http::Response::MakeOk(big);
  });
  ASSERT_TRUE(server.Start().ok());
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  http::Request request;
  std::string wire = request.Serialize();
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  std::string received;
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    received.append(buf, static_cast<size_t>(n));
  }
  http::ResponseReader reader;
  reader.Feed(received);
  auto next = reader.Next();
  ASSERT_TRUE(next.has_value());
  ASSERT_TRUE(next->ok());
  EXPECT_EQ(next->value().body.size(), big.size());
  ::close(fd);
  server.Stop();
}

TEST(EpollServerTest, MalformedRequestGets400AndClose) {
  EpollServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char kBad[] = "NOT HTTP AT ALL\r\n\r\n";
  ASSERT_GT(::send(fd, kBad, sizeof(kBad) - 1, 0), 0);
  std::string received;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // Server closes after the 400.
    received.append(buf, static_cast<size_t>(n));
  }
  EXPECT_NE(received.find("400 Bad Request"), std::string::npos);
  ::close(fd);
  server.Stop();
}

TEST(EpollServerTest, ConnectionCloseHeaderHonored) {
  EpollServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  http::Request request;
  request.target = "/x";
  request.headers.Add("Connection", "close");
  std::string wire = request.Serialize();
  ASSERT_GT(::send(fd, wire.data(), wire.size(), 0), 0);
  std::string received;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    received.append(buf, static_cast<size_t>(n));
  }
  // Full response then EOF.
  EXPECT_NE(received.find("Connection: close"), std::string::npos);
  EXPECT_NE(received.find("path=/x"), std::string::npos);
  ::close(fd);
  server.Stop();
}

TEST(EpollServerTest, FdExhaustionIsCountedPerEpisode) {
  EpollServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  CheckTypesBeforeFillingTheFdTable(server.port());

  rlimit original{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &original), 0);
  rlimit tight = original;
  tight.rlim_cur = 128;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);

  for (uint64_t episode = 1; episode <= 2; ++episode) {
    // Let the previous episode's server-side connections close before
    // filling the table — an fd they free afterwards would give the
    // accept a spare slot and mask the outage.
    for (int i = 0; i < 200 && server.ingress().open_connections.load() > 0;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<int> dummies = FillFdTable();
    ASSERT_FALSE(dummies.empty());
    // Free exactly one fd: the client's socket takes it, so accept4 wakes
    // with nothing left and fails with EMFILE.
    ::close(dummies.back());
    dummies.pop_back();
    {
      PooledTransportOptions options;
      options.pool.io_timeout_micros = 300 * kMicrosPerMilli;
      PooledClientTransport starved("127.0.0.1", server.port(), options);
      http::Request request;
      // May fail or succeed depending on kernel fd accounting; only the
      // episode bookkeeping below is deterministic.
      (void)starved.RoundTrip(request);
    }
    uint64_t episodes =
        server.ingress().accept_fd_exhaustion_episodes.load();
    for (int i = 0; i < 200 && episodes < episode; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      episodes = server.ingress().accept_fd_exhaustion_episodes.load();
    }
    // One count per sustained outage, not one per accept round — the
    // level-triggered listener retries continuously while starved.
    EXPECT_EQ(episodes, episode);
    for (int fd : dummies) ::close(fd);
    // A successful accept with a descriptor to spare re-arms the episode
    // reporting — without it the next outage would go uncounted (the
    // pre-fix behaviour: the flag was set once and never reset). The
    // accept that takes the last free descriptor does not: the accept4
    // after it fails with EMFILE on an empty backlog, which is the same
    // outage, not a second one.
    PooledClientTransport recovered("127.0.0.1", server.port());
    http::Request request;
    ASSERT_TRUE(recovered.RoundTrip(request).ok());
  }

  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &original), 0);
  EXPECT_EQ(server.ingress().accept_fd_exhaustion_episodes.load(), 2u);
  server.Stop();
}

TEST(EpollServerTest, StopIsIdempotentAndRestartSafe) {
  EpollServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  server.Stop();
  server.Stop();
}

}  // namespace
}  // namespace dynaprox::net
