#include "net/tcp.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/connection_pool.h"
#include "fd_exhaustion.h"

namespace dynaprox::net {
namespace {

http::Response EchoHandler(const http::Request& request) {
  return http::Response::MakeOk("path=" + std::string(request.Path()) +
                                ";body=" + request.body);
}

TEST(TcpTest, RoundTripOverLoopback) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  PooledClientTransport client("127.0.0.1", server.port());
  http::Request request;
  request.method = "POST";
  request.target = "/hello";
  request.body = "payload";
  Result<http::Response> response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(response->body, "path=/hello;body=payload");
  server.Stop();
}

TEST(TcpTest, KeepAliveServesManyRequestsOnOneConnection) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  PooledClientTransport client("127.0.0.1", server.port());
  for (int i = 0; i < 20; ++i) {
    http::Request request;
    request.target = "/r" + std::to_string(i);
    Result<http::Response> response = client.RoundTrip(request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->body, "path=/r" + std::to_string(i) + ";body=");
  }
  server.Stop();
}

TEST(TcpTest, MultipleConcurrentClients) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  PooledClientTransport a("127.0.0.1", server.port());
  PooledClientTransport b("127.0.0.1", server.port());
  http::Request request;
  request.target = "/both";
  EXPECT_TRUE(a.RoundTrip(request).ok());
  EXPECT_TRUE(b.RoundTrip(request).ok());
  EXPECT_TRUE(a.RoundTrip(request).ok());
  server.Stop();
}

TEST(TcpTest, LargeBodyTransfers) {
  TcpServer server([](const http::Request& request) {
    return http::Response::MakeOk(std::string(256 * 1024, 'z') +
                                  request.body);
  });
  ASSERT_TRUE(server.Start().ok());
  PooledClientTransport client("127.0.0.1", server.port());
  http::Request request;
  request.body = std::string(64 * 1024, 'q');
  Result<http::Response> response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->body.size(), 256u * 1024 + 64 * 1024);
  server.Stop();
}

TEST(TcpTest, ConnectionThreadHandlesAreReapedEagerly) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  // Each iteration opens a connection, serves one request, and closes it.
  // Finished connection threads park their handles; the accept loop joins
  // them, so the handle count must stay bounded — not grow toward 50 and
  // only drain in Stop().
  for (int i = 0; i < 50; ++i) {
    PooledClientTransport client("127.0.0.1", server.port());
    http::Request request;
    request.target = "/r";
    ASSERT_TRUE(client.RoundTrip(request).ok());
  }
  // The last few threads may not have parked yet, and parked handles are
  // only joined on the next accept: poke the accept loop until it drains.
  size_t handles = server.connection_thread_handles();
  for (int i = 0; i < 100 && handles > 4; ++i) {
    {
      PooledClientTransport client("127.0.0.1", server.port());
      http::Request request;
      ASSERT_TRUE(client.RoundTrip(request).ok());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    handles = server.connection_thread_handles();
  }
  EXPECT_LE(handles, 4u);
  server.Stop();
}

TEST(TcpTest, FdExhaustionIsCountedPerEpisode) {
  TcpServer server(EchoHandler);
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
    // Free exactly one fd: the client's socket takes it. A blocking
    // accept already waiting reserved its descriptor before the table
    // filled, so it may still take this connection; the accept after it
    // then finds nothing left and fails with EMFILE.
    ::close(dummies.back());
    dummies.pop_back();
    uint64_t episodes = 0;
    {
      PooledTransportOptions options;
      options.pool.io_timeout_micros = 300 * kMicrosPerMilli;
      PooledClientTransport starved("127.0.0.1", server.port(), options);
      http::Request request;
      // The round trip itself may fail or (if the kernel frees an fd in
      // time for the accept retry) succeed; only the episode bookkeeping
      // below is deterministic.
      (void)starved.RoundTrip(request);
      // Wait while the client still holds its connection, and with it the
      // last descriptor: once it closes, the next accept may find a free
      // slot before it ever fails.
      episodes = server.ingress().accept_fd_exhaustion_episodes.load();
      for (int i = 0; i < 200 && episodes < episode; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        episodes = server.ingress().accept_fd_exhaustion_episodes.load();
      }
    }
    // Logged and counted exactly once per sustained outage, not once per
    // 10ms accept round.
    EXPECT_EQ(episodes, episode);
    for (int fd : dummies) ::close(fd);
    // A successful accept with a descriptor to spare re-arms the episode
    // reporting — without it the next outage would go uncounted.
    PooledClientTransport recovered("127.0.0.1", server.port());
    http::Request request;
    ASSERT_TRUE(recovered.RoundTrip(request).ok());
  }

  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &original), 0);
  EXPECT_EQ(server.ingress().accept_fd_exhaustion_episodes.load(), 2u);
  server.Stop();
}

TEST(TcpTest, StopIsIdempotent) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  server.Stop();
  server.Stop();
}

}  // namespace
}  // namespace dynaprox::net
