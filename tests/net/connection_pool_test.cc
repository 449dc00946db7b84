#include "net/connection_pool.h"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bem/protocol.h"
#include "http/parser.h"
#include "net/socket_util.h"
#include "net/tcp.h"

namespace dynaprox::net {
namespace {

http::Response EchoHandler(const http::Request& request) {
  return http::Response::MakeOk("path=" + std::string(request.Path()) +
                                ";body=" + request.body);
}

TEST(ConnectionPoolTest, SequentialRoundTripsReuseOneConnection) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  PooledClientTransport transport("127.0.0.1", server.port());
  for (int i = 0; i < 5; ++i) {
    http::Request request;
    request.target = "/r" + std::to_string(i);
    Result<http::Response> response = transport.RoundTrip(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->body, "path=/r" + std::to_string(i) + ";body=");
  }
  PoolStats stats = transport.pool().stats();
  EXPECT_EQ(stats.checkouts, 5u);
  EXPECT_EQ(stats.connects, 1u);
  EXPECT_EQ(stats.open_connections, 1);
  EXPECT_EQ(stats.idle_connections, 1);
  EXPECT_EQ(stats.wait_queue_depth, 0);
  server.Stop();
}

TEST(ConnectionPoolTest, ConcurrentCheckoutsFanOutUnderSlowOrigin) {
  TcpServer server([](const http::Request& request) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return EchoHandler(request);
  });
  ASSERT_TRUE(server.Start().ok());
  PooledTransportOptions options;
  options.pool.max_connections = 8;
  PooledClientTransport transport("127.0.0.1", server.port(), options);

  constexpr int kClients = 8;
  constexpr int kPerClient = 3;
  std::atomic<int> failures{0};
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&transport, &failures, c] {
      for (int i = 0; i < kPerClient; ++i) {
        http::Request request;
        request.target = "/c" + std::to_string(c);
        Result<http::Response> response = transport.RoundTrip(request);
        if (!response.ok() ||
            response->body != "path=/c" + std::to_string(c) + ";body=") {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(failures.load(), 0);

  PoolStats stats = transport.pool().stats();
  EXPECT_EQ(stats.checkouts,
            static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_GT(stats.connects, 1u);  // The load fanned out over connections.
  EXPECT_LE(stats.open_connections, 8);
  // Serialized, 24 requests at 20 ms each would take >= 480 ms. The pool
  // must do clearly better; allow generous slack for slow machines.
  double elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count();
  EXPECT_LT(elapsed_ms, 400.0);
  server.Stop();
}

// An HTTP/1.1 origin over raw sockets whose replies are scripted per
// connection and per request, for server behaviour TcpServer never shows
// (stray bytes, unanswered requests). Each connection is served on its
// own thread.
class ScriptedOrigin {
 public:
  struct Reply {
    std::string wire;    // Sent with one send(); empty sends nothing.
    bool close = false;  // Close the connection after `wire`.
    std::string stray;   // Sent unsolicited 50 ms after `wire`.
  };
  // The reply to the `index`-th request on the `connection`-th accepted
  // connection, both counted from 0.
  using Script = std::function<Reply(int connection, int index,
                                     const http::Request& request)>;

  explicit ScriptedOrigin(Script script) : script_(std::move(script)) {
    Result<int> listener = OpenLoopbackListener(&port_);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    listen_fd_ = listener.ok() ? *listener : -1;
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }

  ~ScriptedOrigin() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    accept_thread_.join();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int fd : fds_) ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread& thread : threads_) thread.join();
    for (int fd : fds_) ::close(fd);
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }
  int connections() const { return connections_.load(); }
  int requests() const { return requests_.load(); }
  int strays_sent() const { return strays_sent_.load(); }

 private:
  void AcceptLoop() {
    for (;;) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // Listener shut down by the destructor.
      int connection = connections_.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu_);
      fds_.push_back(fd);
      threads_.emplace_back([this, fd, connection] { Serve(fd, connection); });
    }
  }

  void Serve(int fd, int connection) {
    http::RequestReader reader;
    char buf[4096];
    for (int index = 0;;) {
      std::optional<Result<http::Request>> request = reader.Next();
      if (!request.has_value()) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        reader.Feed(std::string_view(buf, static_cast<size_t>(n)));
        continue;
      }
      if (!request->ok()) break;
      requests_.fetch_add(1);
      Reply reply = script_(connection, index++, request->value());
      if (!reply.wire.empty()) (void)SendAll(fd, reply.wire);
      if (!reply.stray.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        (void)SendAll(fd, reply.stray);
        strays_sent_.fetch_add(1);
      }
      if (reply.close) break;
    }
    // The destructor closes the fd, so its number cannot be reused while
    // the destructor may still shut it down.
    ::shutdown(fd, SHUT_RDWR);
  }

  Script script_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<int> connections_{0};
  std::atomic<int> requests_{0};
  std::atomic<int> strays_sent_{0};
  std::thread accept_thread_;
  std::mutex mu_;
  std::vector<int> fds_;              // By mu_ until the accept thread ends.
  std::vector<std::thread> threads_;  // By mu_ until the accept thread ends.
};

// A 200 response carrying `body`, with `headers` (CRLF-terminated lines)
// before its Content-Length.
std::string OkWire(std::string_view body, std::string_view headers = "") {
  return "HTTP/1.1 200 OK\r\n" + std::string(headers) +
         "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" +
         std::string(body);
}

// Reads one request per connection and closes it after answering "ok",
// or without answering on connections before `respond_from` (counted
// from 0).
ScriptedOrigin::Script OneShot(int respond_from) {
  return [respond_from](int connection, int, const http::Request&) {
    ScriptedOrigin::Reply reply;
    if (connection >= respond_from) reply.wire = OkWire("ok");
    reply.close = true;
    return reply;
  };
}

TEST(ConnectionPoolTest, StaleIdleConnectionIsReplacedTransparently) {
  // Every connection serves exactly one response then closes, so the
  // checked-in connection is dead by the next checkout.
  ScriptedOrigin server(OneShot(/*respond_from=*/0));
  PooledClientTransport transport("127.0.0.1", server.port());
  for (int i = 0; i < 3; ++i) {
    http::Request request;
    request.target = "/r" + std::to_string(i);
    Result<http::Response> response = transport.RoundTrip(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->body, "ok");
    // Let the server's close (FIN) land before the next checkout peeks.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  PoolStats stats = transport.pool().stats();
  EXPECT_EQ(stats.connects, 3u);
  EXPECT_GE(stats.stale_closed, 2u);
  EXPECT_GE(stats.reconnects, 2u);
}

TEST(ConnectionPoolTest, WaiterTimesOutWhenPoolIsHeld) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  ConnectionPoolOptions options;
  options.max_connections = 1;
  options.checkout_timeout_micros = 50 * kMicrosPerMilli;
  ConnectionPool pool("127.0.0.1", server.port(), options);

  Result<ConnectionPool::Connection> held = pool.Checkout();
  ASSERT_TRUE(held.ok());
  Result<ConnectionPool::Connection> waiter = pool.Checkout();
  EXPECT_FALSE(waiter.ok());

  PoolStats stats = pool.stats();
  EXPECT_EQ(stats.waiter_timeouts, 1u);
  EXPECT_EQ(stats.wait_queue_depth, 0);
  // One blocked checkout, so its wait is the whole sum.
  EXPECT_EQ(stats.wait_micros.count, 1u);
  EXPECT_GE(stats.wait_micros.sum, 40.0 * kMicrosPerMilli);

  // Returning the held connection makes the pool usable again.
  pool.Checkin(*held, /*reusable=*/true);
  Result<ConnectionPool::Connection> again = pool.Checkout();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->fresh);  // Reused the checked-in connection.
  pool.Checkin(*again, /*reusable=*/true);
  server.Stop();
}

TEST(ConnectionPoolTest, WaiterQueueBoundRejectsImmediately) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  ConnectionPoolOptions options;
  options.max_connections = 1;
  options.max_waiters = 0;
  options.checkout_timeout_micros = kMicrosPerSecond;
  ConnectionPool pool("127.0.0.1", server.port(), options);

  Result<ConnectionPool::Connection> held = pool.Checkout();
  ASSERT_TRUE(held.ok());
  auto start = std::chrono::steady_clock::now();
  Result<ConnectionPool::Connection> rejected = pool.Checkout();
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(rejected.ok());
  // Rejected by the bound, not by waiting out the checkout deadline.
  double elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count();
  EXPECT_LT(elapsed_ms, 500.0);
  EXPECT_EQ(pool.stats().waiter_rejections, 1u);
  pool.Checkin(*held, /*reusable=*/false);
  server.Stop();
}

TEST(ConnectionPoolTest, WaiterIsReleasedByCheckin) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  ConnectionPoolOptions options;
  options.max_connections = 1;
  options.checkout_timeout_micros = 2 * kMicrosPerSecond;
  ConnectionPool pool("127.0.0.1", server.port(), options);

  Result<ConnectionPool::Connection> held = pool.Checkout();
  ASSERT_TRUE(held.ok());
  std::thread releaser([&pool, &held] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    pool.Checkin(*held, /*reusable=*/true);
  });
  Result<ConnectionPool::Connection> waited = pool.Checkout();
  releaser.join();
  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  EXPECT_FALSE(waited->fresh);
  PoolStats stats = pool.stats();
  EXPECT_EQ(stats.waiter_timeouts, 0u);
  EXPECT_GE(stats.wait_micros.count, 1u);
  pool.Checkin(*waited, /*reusable=*/true);
  server.Stop();
}

TEST(ConnectionPoolTest, IdleConnectionsAreReaped) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  ConnectionPoolOptions options;
  options.idle_timeout_micros = 5 * kMicrosPerMilli;
  ConnectionPool pool("127.0.0.1", server.port(), options);

  Result<ConnectionPool::Connection> conn = pool.Checkout();
  ASSERT_TRUE(conn.ok());
  pool.Checkin(*conn, /*reusable=*/true);
  EXPECT_EQ(pool.stats().idle_connections, 1);

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(pool.ReapIdle(), 1);
  PoolStats stats = pool.stats();
  EXPECT_EQ(stats.idle_connections, 0);
  EXPECT_EQ(stats.open_connections, 0);
  EXPECT_EQ(stats.idle_reaped, 1u);
  server.Stop();
}

TEST(ConnectionPoolTest, ConnectFailureSurfacesAndFreesTheSlot) {
  ConnectionPoolOptions options;
  options.max_connections = 1;
  options.connect_retry = {/*max_attempts=*/1, /*initial_backoff=*/0};
  // Port 1 on loopback: nothing listening.
  ConnectionPool pool("127.0.0.1", 1, options);
  EXPECT_FALSE(pool.Checkout().ok());
  PoolStats stats = pool.stats();
  EXPECT_EQ(stats.connect_failures, 1u);
  EXPECT_EQ(stats.open_connections, 0);  // The reserved slot was released.
}

TEST(ConnectionPoolTest, NonReusableCheckinClosesTheConnection) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  ConnectionPool pool("127.0.0.1", server.port());
  Result<ConnectionPool::Connection> conn = pool.Checkout();
  ASSERT_TRUE(conn.ok());
  pool.Checkin(*conn, /*reusable=*/false);
  PoolStats stats = pool.stats();
  EXPECT_EQ(stats.open_connections, 0);
  EXPECT_EQ(stats.idle_connections, 0);
  server.Stop();
}

TEST(ConnectionPoolTest, AllConnectionsStaleAfterOriginRestart) {
  // An origin crash kills every pooled keep-alive connection at once.
  // After a restart on the same port, the pool must notice each dead
  // idle connection at checkout and redial transparently.
  auto server = std::make_unique<TcpServer>(EchoHandler);
  ASSERT_TRUE(server->Start().ok());
  uint16_t port = server->port();

  PooledTransportOptions options;
  options.pool.max_connections = 4;
  PooledClientTransport transport("127.0.0.1", port, options);

  // Open several connections by fanning out concurrent requests.
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&transport, &failures] {
      http::Request request;
      request.target = "/warm";
      if (!transport.RoundTrip(request).ok()) ++failures;
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);
  uint64_t connects_before = transport.pool().stats().connects;
  ASSERT_GE(connects_before, 1u);

  // Crash and restart the origin on the same port.
  server->Stop();
  server = std::make_unique<TcpServer>(EchoHandler, port);
  ASSERT_TRUE(server->Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Every request after the restart succeeds; each one that picked up a
  // dead idle connection replaced it with a fresh dial.
  for (int i = 0; i < 4; ++i) {
    http::Request request;
    request.target = "/after-restart";
    Result<http::Response> response = transport.RoundTrip(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  PoolStats stats = transport.pool().stats();
  EXPECT_GE(stats.stale_closed, connects_before);
  EXPECT_GT(stats.connects, connects_before);
  server->Stop();
}

TEST(ConnectionPoolTest, CheckoutDuringDialBackoffWaitsForTheSlot) {
  // One slot, dead origin, dial policy with a real backoff: while the
  // first checkout sits in its connect backoff it holds the only slot.
  // A second checkout must queue behind it, get the slot once the dial
  // fails, and fail its own dial — no deadlock, no leaked slot.
  ConnectionPoolOptions options;
  options.max_connections = 1;
  options.connect_retry = {/*max_attempts=*/2,
                           /*initial_backoff_micros=*/50 * kMicrosPerMilli};
  options.checkout_timeout_micros = 2 * kMicrosPerSecond;
  // Port 1 on loopback: nothing listening.
  ConnectionPool pool("127.0.0.1", 1, options);

  std::thread first([&pool] { EXPECT_FALSE(pool.Checkout().ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // Lands while the first dial is mid-backoff.
  Result<ConnectionPool::Connection> second = pool.Checkout();
  first.join();
  EXPECT_FALSE(second.ok());

  PoolStats stats = pool.stats();
  EXPECT_EQ(stats.connect_failures, 2u);
  EXPECT_EQ(stats.open_connections, 0);  // Both reserved slots released.
  EXPECT_EQ(stats.wait_queue_depth, 0);

  // The pool still works once an origin appears.
  TcpServer late_origin(EchoHandler);
  ASSERT_TRUE(late_origin.Start().ok());
  ConnectionPool live("127.0.0.1", late_origin.port(), options);
  Result<ConnectionPool::Connection> conn = live.Checkout();
  ASSERT_TRUE(conn.ok());
  live.Checkin(*conn, /*reusable=*/false);
  late_origin.Stop();
}

TEST(ConnectionPoolTest, WaiterTimeoutAccountingUnderManyWaiters) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  ConnectionPoolOptions options;
  options.max_connections = 1;
  options.checkout_timeout_micros = 50 * kMicrosPerMilli;
  ConnectionPool pool("127.0.0.1", server.port(), options);

  Result<ConnectionPool::Connection> held = pool.Checkout();
  ASSERT_TRUE(held.ok());

  constexpr int kWaiters = 3;
  std::atomic<int> timed_out{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&pool, &timed_out] {
      if (!pool.Checkout().ok()) ++timed_out;
    });
  }
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(timed_out.load(), kWaiters);

  PoolStats stats = pool.stats();
  // Every waiter is accounted exactly once: a timeout counter bump and
  // a wait-duration sample, and the queue gauge drains back to zero.
  EXPECT_EQ(stats.waiter_timeouts, static_cast<uint64_t>(kWaiters));
  EXPECT_EQ(stats.wait_micros.count, static_cast<uint64_t>(kWaiters));
  EXPECT_EQ(stats.wait_queue_depth, 0);
  EXPECT_EQ(stats.waiter_rejections, 0u);

  pool.Checkin(*held, /*reusable=*/false);
  server.Stop();
}

TEST(PooledClientTransportTest, RetriesIdempotentRequestAfterServerClose) {
  // Connection 0 is dropped after the request; connection 1 answers. A
  // GET is safe to re-send, so the round trip succeeds transparently.
  ScriptedOrigin server(OneShot(/*respond_from=*/0));
  PooledClientTransport transport("127.0.0.1", server.port());
  http::Request first;
  first.target = "/warm";
  ASSERT_TRUE(transport.RoundTrip(first).ok());
  // The checked-in connection is now dead (server closed it); the next
  // round trip must recover without surfacing an error.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  http::Request second;
  second.target = "/after-close";
  Result<http::Response> response = transport.RoundTrip(second);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body, "ok");
}

TEST(PooledClientTransportTest, DoesNotResendNonIdempotentRequest) {
  ScriptedOrigin server(OneShot(/*respond_from=*/1));
  PooledTransportOptions options;
  options.pool.idle_timeout_micros = 0;
  PooledClientTransport transport("127.0.0.1", server.port(), options);
  http::Request post;
  post.method = "POST";
  post.target = "/charge";
  post.body = "amount=1";
  Result<http::Response> response = transport.RoundTrip(post);
  EXPECT_FALSE(response.ok());
  // One connection, one delivery: the POST was not re-sent even though a
  // second attempt would have succeeded.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(server.connections(), 1);
}

TEST(PooledClientTransportTest, ConnectToClosedPortFails) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  uint16_t port = server.port();
  server.Stop();
  PooledClientTransport transport("127.0.0.1", port);
  EXPECT_FALSE(transport.RoundTrip(http::Request{}).ok());
  PoolStats stats = transport.pool().stats();
  EXPECT_EQ(stats.connect_failures, 1u);
  EXPECT_EQ(stats.open_connections, 0);
}

TEST(PooledClientTransportTest, ReceiveTimeoutFailsFast) {
  // An origin that reads the request and never answers.
  ScriptedOrigin origin(
      [](int, int, const http::Request&) { return ScriptedOrigin::Reply{}; });
  PooledTransportOptions options;
  options.pool.io_timeout_micros = 100 * kMicrosPerMilli;
  PooledClientTransport transport("127.0.0.1", origin.port(), options);
  auto start = std::chrono::steady_clock::now();
  Result<http::Response> response = transport.RoundTrip(http::Request{});
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kIoError);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
  // One timeout, not one per attempt: a fresh connection is never retried.
  EXPECT_EQ(origin.connections(), 1);
  EXPECT_EQ(origin.requests(), 1);
}

// The client's two read paths. Every reuse rule must hold on both: the
// whole-response RoundTrip and a RoundTripStreaming body pulled by hand.
enum class ReadPath { kWhole, kStreamed };

Result<http::Response> Fetch(Transport& transport,
                             const http::Request& request, ReadPath path) {
  if (path == ReadPath::kWhole) return transport.RoundTrip(request);
  Result<StreamingResponse> streaming = transport.RoundTripStreaming(request);
  if (!streaming.ok()) return streaming.status();
  http::Response response = std::move(streaming->head);
  for (;;) {
    Result<common::BufferChain> chunk = streaming->body->Next();
    if (!chunk.ok()) return chunk.status();
    if (chunk->empty()) return response;
    chunk->AppendTo(response.body);
  }
}

http::Request Get(std::string target) {
  http::Request request;
  request.target = std::move(target);
  return request;
}

http::Request RefreshGet(std::string target) {
  http::Request request = Get(std::move(target));
  request.headers.Set(bem::kRefreshHeader, "a1,b2");
  return request;
}

PooledTransportOptions RefreshIsNonIdempotent() {
  PooledTransportOptions options;
  options.non_idempotent_headers = {bem::kRefreshHeader};
  return options;
}

class ReuseRuleTest : public ::testing::TestWithParam<ReadPath> {};

TEST_P(ReuseRuleTest, RefreshAfterConnectionCloseUsesAFreshConnection) {
  // The origin answers with "Connection: close" and closes. The refresh
  // GET that follows may not be re-sent, so it must never be written to
  // the closed connection in the first place.
  ScriptedOrigin origin([](int, int, const http::Request& request) {
    ScriptedOrigin::Reply reply;
    reply.wire = OkWire(request.target, "Connection: close\r\n");
    reply.close = true;
    return reply;
  });
  PooledClientTransport transport("127.0.0.1", origin.port(),
                                  RefreshIsNonIdempotent());
  Result<http::Response> page = Fetch(transport, Get("/page"), GetParam());
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(page->body, "/page");
  Result<http::Response> refreshed =
      Fetch(transport, RefreshGet("/refresh"), GetParam());
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(refreshed->body, "/refresh");
  EXPECT_EQ(transport.pool().stats().connects, 2u);
  EXPECT_EQ(origin.requests(), 2);
}

TEST_P(ReuseRuleTest, StrayResponseIsNeverReturned) {
  // 50 ms after each answer the origin sends a second, unsolicited
  // response on the same connection. The next request must get its own
  // answer: the idle connection carrying the stray is retired at
  // checkout.
  ScriptedOrigin origin([](int, int, const http::Request& request) {
    ScriptedOrigin::Reply reply;
    reply.wire = OkWire(request.target);
    reply.stray = OkWire("stray");
    return reply;
  });
  PooledClientTransport transport("127.0.0.1", origin.port());
  Result<http::Response> first = Fetch(transport, Get("/first"), GetParam());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->body, "/first");
  for (int i = 0; i < 200 && origin.strays_sent() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(origin.strays_sent(), 1);
  // Let the stray's bytes land before the next checkout peeks.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Result<http::Response> second =
      Fetch(transport, Get("/second"), GetParam());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->body, "/second");
  PoolStats stats = transport.pool().stats();
  EXPECT_EQ(stats.connects, 2u);
  EXPECT_EQ(stats.stale_closed, 1u);
}

TEST_P(ReuseRuleTest, TrailingBytesRetireTheConnection) {
  // Each answer's segment carries bytes past the end of its body, so the
  // connection's framing state is unknown and it must not be reused.
  ScriptedOrigin origin([](int, int, const http::Request& request) {
    ScriptedOrigin::Reply reply;
    reply.wire = OkWire(request.target) + "junk";
    return reply;
  });
  PooledClientTransport transport("127.0.0.1", origin.port());
  for (const char* target : {"/one", "/two"}) {
    Result<http::Response> response = Fetch(transport, Get(target), GetParam());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->body, target);
  }
  EXPECT_EQ(transport.pool().stats().connects, 2u);
}

TEST_P(ReuseRuleTest, ChunkedBodyArrivesJoinedAndKeepsTheConnection) {
  ScriptedOrigin origin([](int, int, const http::Request&) {
    ScriptedOrigin::Reply reply;
    reply.wire =
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        "4\r\none \r\n4\r\ntwo \r\n5\r\nthree\r\n0\r\n\r\n";
    return reply;
  });
  PooledClientTransport transport("127.0.0.1", origin.port());
  for (int i = 0; i < 2; ++i) {
    Result<http::Response> response = Fetch(transport, Get("/c"), GetParam());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->body, "one two three");
    if (GetParam() == ReadPath::kWhole) {
      // Framed the way the buffered parser frames a whole chunked wire.
      EXPECT_EQ(response->headers.Get("Content-Length"), "13");
      EXPECT_FALSE(response->headers.Get("Transfer-Encoding").has_value());
    } else {
      // The streamed head keeps the wire's framing.
      EXPECT_EQ(response->headers.Get("Transfer-Encoding"), "chunked");
    }
  }
  // The terminating chunk delimits the body: one connection serves both.
  EXPECT_EQ(transport.pool().stats().connects, 1u);
}

TEST_P(ReuseRuleTest, OnlyIdempotentRequestsAreRetriedOnStaleConnection) {
  // The origin answers the first request on connection 0, then reads the
  // second and closes without answering: the stale keep-alive case. A
  // plain GET is re-sent once on a fresh connection. A POST, or a refresh
  // GET (configured non-idempotent; it triggers invalidations at the
  // origin), may already have run and must not be re-sent.
  auto drop_second = [](int connection, int index,
                        const http::Request& request) {
    ScriptedOrigin::Reply reply;
    if (connection == 0 && index == 1) {
      reply.close = true;
    } else {
      reply.wire = OkWire(request.target);
    }
    return reply;
  };
  {
    ScriptedOrigin origin(drop_second);
    PooledClientTransport transport("127.0.0.1", origin.port(),
                                    RefreshIsNonIdempotent());
    ASSERT_TRUE(Fetch(transport, Get("/warm"), GetParam()).ok());
    Result<http::Response> retried =
        Fetch(transport, Get("/again"), GetParam());
    ASSERT_TRUE(retried.ok()) << retried.status().ToString();
    EXPECT_EQ(retried->body, "/again");
    EXPECT_EQ(origin.requests(), 3);
    EXPECT_EQ(origin.connections(), 2);
  }
  http::Request post = Get("/charge");
  post.method = "POST";
  post.body = "amount=1";
  for (const http::Request& unsafe : {RefreshGet("/refresh"), post}) {
    ScriptedOrigin origin(drop_second);
    PooledClientTransport transport("127.0.0.1", origin.port(),
                                    RefreshIsNonIdempotent());
    ASSERT_TRUE(Fetch(transport, Get("/warm"), GetParam()).ok());
    EXPECT_FALSE(Fetch(transport, unsafe, GetParam()).ok()) << unsafe.method;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(origin.requests(), 2) << unsafe.method;
    EXPECT_EQ(origin.connections(), 1) << unsafe.method;
  }
}

INSTANTIATE_TEST_SUITE_P(BothReadPaths, ReuseRuleTest,
                         ::testing::Values(ReadPath::kWhole,
                                           ReadPath::kStreamed),
                         [](const ::testing::TestParamInfo<ReadPath>& info) {
                           return info.param == ReadPath::kWhole ? "Whole"
                                                                 : "Streamed";
                         });

}  // namespace
}  // namespace dynaprox::net
