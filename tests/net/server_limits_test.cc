#include "net/server_limits.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "http/parser.h"
#include "net/epoll_server.h"
#include "net/tcp.h"

namespace dynaprox::net {
namespace {

http::Response EchoHandler(const http::Request& request) {
  return http::Response::MakeOk("path=" + std::string(request.Path()));
}

// Raw loopback socket so tests can speak malformed / partial / slow HTTP
// that PooledClientTransport would never emit.
class RawClient {
 public:
  explicit RawClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool Send(std::string_view bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  // Reads until the peer closes (or `budget` expires); returns all bytes.
  std::string ReadUntilClose(MicroTime budget = 3 * kMicrosPerSecond) {
    timeval tv{};
    tv.tv_sec = budget / kMicrosPerSecond;
    tv.tv_usec = budget % kMicrosPerSecond;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::string out;
    char buf[4096];
    for (;;) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }

  // Reads exactly one HTTP response off the socket.
  Result<http::Response> ReadResponse(
      MicroTime budget = 3 * kMicrosPerSecond) {
    timeval tv{};
    tv.tv_sec = budget / kMicrosPerSecond;
    tv.tv_usec = budget % kMicrosPerSecond;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    http::ResponseReader reader;
    char buf[4096];
    for (;;) {
      if (auto next = reader.Next()) {
        if (!next->ok()) return next->status();
        return std::move(*next);
      }
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return Status::IoError("connection closed / timed out");
      reader.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

std::string SimpleGet(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n";
}

TEST(ServerLimitsTest, DefaultLimitsChangeNothing) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(SimpleGet("/ok")));
  Result<http::Response> response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  server.Stop();
}

TEST(ServerLimitsTest, TcpShedsOverInflightCap) {
  ServerLimits limits;
  limits.max_inflight = 1;
  limits.retry_after_seconds = 7;
  TcpServer server(
      [](const http::Request&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        return http::Response::MakeOk("slow");
      },
      0, limits);
  ASSERT_TRUE(server.Start().ok());

  RawClient first(server.port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(first.Send(SimpleGet("/a")));
  // Give the first request time to enter the handler and occupy the slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  RawClient second(server.port());
  ASSERT_TRUE(second.connected());
  ASSERT_TRUE(second.Send(SimpleGet("/b")));
  Result<http::Response> shed = second.ReadResponse();
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status_code, 503);
  EXPECT_EQ(shed->headers.Get("Retry-After").value_or(""), "7");

  Result<http::Response> served = first.ReadResponse();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->status_code, 200);
  EXPECT_EQ(server.ingress().shed_503s.load(), 1u);
  server.Stop();
}

TEST(ServerLimitsTest, TcpRejectsOversizeHeaderWith431) {
  ServerLimits limits;
  limits.max_header_bytes = 512;
  TcpServer server(EchoHandler, 0, limits);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("GET / HTTP/1.1\r\nX-Big: " +
                          std::string(2048, 'h') + "\r\n\r\n"));
  Result<http::Response> response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 431);
  EXPECT_EQ(server.ingress().oversize_headers.load(), 1u);
  server.Stop();
}

TEST(ServerLimitsTest, TcpRejectsOversizeDeclaredBodyWith413) {
  ServerLimits limits;
  limits.max_body_bytes = 1024;
  TcpServer server(EchoHandler, 0, limits);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  // The declaration alone must draw the 413 — no body bytes are sent, so
  // a buffering server would instead hang waiting for 100 MB.
  ASSERT_TRUE(client.Send(
      "POST / HTTP/1.1\r\nHost: t\r\nContent-Length: 104857600\r\n\r\n"));
  Result<http::Response> response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 413);
  EXPECT_EQ(server.ingress().oversize_bodies.load(), 1u);
  server.Stop();
}

TEST(ServerLimitsTest, TcpDisconnectsSlowlorisAtHeaderDeadline) {
  ServerLimits limits;
  limits.header_timeout_micros = 150 * kMicrosPerMilli;
  TcpServer server(EchoHandler, 0, limits);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  // Start a request and never finish it.
  ASSERT_TRUE(client.Send("GET /stuck HTTP/1.1\r\nX-Slow: "));
  std::string rest = client.ReadUntilClose();
  EXPECT_TRUE(rest.empty());  // Dropped without a response.
  EXPECT_EQ(server.ingress().header_timeouts.load(), 1u);
  server.Stop();
}

// Drips header bytes at `interval`, each under the header deadline, and
// returns once the server closes the connection (send fails or EOF) or
// `max_drips` are sent. The deadline must bound total time from first
// byte to complete request, so the per-drip resets must not save the
// client.
bool DripUntilClosed(RawClient& client, MicroTime interval_micros,
                     int max_drips) {
  for (int i = 0; i < max_drips; ++i) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(interval_micros));
    if (!client.Send("x")) return true;  // EPIPE: server dropped us.
  }
  return client.ReadUntilClose().empty();
}

TEST(ServerLimitsTest, TcpDisconnectsDrippingSlowloris) {
  // Each drip arrives well inside the deadline; only the total budget
  // from the first byte can catch this client.
  ServerLimits limits;
  limits.header_timeout_micros = 150 * kMicrosPerMilli;
  TcpServer server(EchoHandler, 0, limits);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("GET /drip HTTP/1.1\r\nX-Slow: "));
  EXPECT_TRUE(DripUntilClosed(client, 40 * kMicrosPerMilli, 25));
  EXPECT_EQ(server.ingress().header_timeouts.load(), 1u);
  server.Stop();
}

TEST(ServerLimitsTest, TcpReapsIdleKeepAliveConnections) {
  ServerLimits limits;
  limits.idle_timeout_micros = 150 * kMicrosPerMilli;
  TcpServer server(EchoHandler, 0, limits);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(SimpleGet("/once")));
  Result<http::Response> response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  // Then go quiet between requests: the server reaps the connection.
  std::string rest = client.ReadUntilClose();
  EXPECT_TRUE(rest.empty());
  EXPECT_EQ(server.ingress().idle_timeouts.load(), 1u);
  server.Stop();
}

TEST(ServerLimitsTest, TcpEnforcesConnectionCap) {
  ServerLimits limits;
  limits.max_connections = 1;
  TcpServer server(EchoHandler, 0, limits);
  ASSERT_TRUE(server.Start().ok());

  RawClient occupant(server.port());
  ASSERT_TRUE(occupant.connected());
  ASSERT_TRUE(occupant.Send(SimpleGet("/hold")));
  ASSERT_TRUE(occupant.ReadResponse().ok());  // Admitted and serving.

  RawClient excess(server.port());  // connect() lands in the backlog...
  ASSERT_TRUE(excess.connected());
  excess.Send(SimpleGet("/nope"));
  // ...but accept closes it immediately: EOF, no response.
  std::string rest = excess.ReadUntilClose();
  EXPECT_TRUE(rest.empty());
  EXPECT_GE(server.ingress().connection_limit_rejections.load(), 1u);
  EXPECT_EQ(server.ingress().accepted_total.load(), 1u);
  server.Stop();
}

TEST(ServerLimitsTest, TcpGracefulDrainFinishesInflightRequest) {
  ServerLimits limits;  // Drain needs no other limits configured.
  TcpServer server(
      [](const http::Request&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        return http::Response::MakeOk("finished");
      },
      0, limits);
  ASSERT_TRUE(server.Start().ok());

  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(SimpleGet("/inflight")));
  // Let the request reach the handler, then drain while it is running.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  server.Stop(2 * kMicrosPerSecond);

  Result<http::Response> response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(response->body, "finished");
  EXPECT_EQ(response->headers.Get("Connection").value_or(""), "close");
  EXPECT_EQ(server.ingress().drained_connections.load(), 1u);
}

TEST(ServerLimitsTest, TcpDrainClosesIdleConnectionsQuickly) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  RawClient idle(server.port());
  ASSERT_TRUE(idle.connected());
  ASSERT_TRUE(idle.Send(SimpleGet("/warm")));
  ASSERT_TRUE(idle.ReadResponse().ok());
  // The keep-alive connection is now idle; drain must not wait out the
  // full timeout on it.
  auto start = std::chrono::steady_clock::now();
  server.Stop(5 * kMicrosPerSecond);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
}

TEST(ServerLimitsTest, EpollRejectsOversizeHeaderWith431) {
  ServerLimits limits;
  limits.max_header_bytes = 512;
  EpollServer server(EchoHandler, 0, 1, limits);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("GET / HTTP/1.1\r\nX-Big: " +
                          std::string(2048, 'h') + "\r\n\r\n"));
  Result<http::Response> response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 431);
  EXPECT_EQ(server.ingress().oversize_headers.load(), 1u);
  server.Stop();
}

TEST(ServerLimitsTest, EpollDisconnectsSlowlorisAtHeaderDeadline) {
  ServerLimits limits;
  limits.header_timeout_micros = 150 * kMicrosPerMilli;
  EpollServer server(EchoHandler, 0, 1, limits);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("GET /stuck HTTP/1.1\r\nX-Slow: "));
  std::string rest = client.ReadUntilClose();
  EXPECT_TRUE(rest.empty());
  EXPECT_EQ(server.ingress().header_timeouts.load(), 1u);
  server.Stop();
}

TEST(ServerLimitsTest, EpollDisconnectsDrippingSlowloris) {
  ServerLimits limits;
  limits.header_timeout_micros = 150 * kMicrosPerMilli;
  EpollServer server(EchoHandler, 0, 1, limits);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("GET /drip HTTP/1.1\r\nX-Slow: "));
  EXPECT_TRUE(DripUntilClosed(client, 40 * kMicrosPerMilli, 25));
  EXPECT_EQ(server.ingress().header_timeouts.load(), 1u);
  server.Stop();
}

TEST(ServerLimitsTest, EpollCountsLimitViolationOnce) {
  // Packets arriving after a violation already failed the reader must
  // not re-enter dispatch: one violation, one counter bump, one 431.
  ServerLimits limits;
  limits.max_header_bytes = 512;
  EpollServer server(EchoHandler, 0, 1, limits);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("GET / HTTP/1.1\r\nX-Big: " +
                          std::string(2048, 'h')));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Keep flooding the doomed connection in separate packets.
  for (int i = 0; i < 5 && client.Send(std::string(512, 'h')); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::string wire = client.ReadUntilClose();
  EXPECT_NE(wire.find(" 431 "), std::string::npos);
  // Exactly one response on the wire: a second status line would start
  // after the first response's final CRLF.
  EXPECT_EQ(wire.find(" 431 ", wire.find(" 431 ") + 1),
            std::string::npos);
  EXPECT_EQ(server.ingress().oversize_headers.load(), 1u);
  server.Stop();
}

TEST(ServerLimitsTest, EpollEnforcesConnectionCap) {
  ServerLimits limits;
  limits.max_connections = 1;
  EpollServer server(EchoHandler, 0, 1, limits);
  ASSERT_TRUE(server.Start().ok());

  RawClient occupant(server.port());
  ASSERT_TRUE(occupant.connected());
  ASSERT_TRUE(occupant.Send(SimpleGet("/hold")));
  ASSERT_TRUE(occupant.ReadResponse().ok());

  RawClient excess(server.port());
  ASSERT_TRUE(excess.connected());
  excess.Send(SimpleGet("/nope"));
  std::string rest = excess.ReadUntilClose();
  EXPECT_TRUE(rest.empty());
  EXPECT_GE(server.ingress().connection_limit_rejections.load(), 1u);
  server.Stop();
}

TEST(ServerLimitsTest, EpollShedsOverInflightCap) {
  // One inline worker: the gate trips when a second request arrives
  // while the first still occupies the slot. Force that deterministically
  // by taking the slot from outside the event loop.
  ServerLimits limits;
  limits.max_inflight = 1;
  IngressCounters counters;
  limits.counters = &counters;
  EpollServer server(EchoHandler, 0, 1, limits);
  ASSERT_TRUE(server.Start().ok());

  counters.inflight_requests.fetch_add(1);  // Occupy the only slot.
  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(SimpleGet("/shed-me")));
  Result<http::Response> shed = client.ReadResponse();
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status_code, 503);
  EXPECT_TRUE(shed->headers.Get("Retry-After").has_value());
  EXPECT_EQ(counters.shed_503s.load(), 1u);
  counters.inflight_requests.fetch_sub(1);
  server.Stop();
}

TEST(ServerLimitsTest, EpollGracefulDrainFinishesInflightRequest) {
  EpollServer server(
      [](const http::Request&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        return http::Response::MakeOk("finished");
      },
      0, 1);
  ASSERT_TRUE(server.Start().ok());

  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(SimpleGet("/inflight")));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  server.Stop(2 * kMicrosPerSecond);

  Result<http::Response> response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(response->body, "finished");
}

TEST(ServerLimitsTest, ConnectionCapIsPerServerUnderSharedCounters) {
  // Two servers sharing one IngressCounters (the documented tool setup)
  // must each enforce max_connections against their own connections:
  // an occupant on server A must not consume server B's budget.
  IngressCounters counters;
  ServerLimits limits;
  limits.max_connections = 1;
  limits.counters = &counters;
  TcpServer a(EchoHandler, 0, limits);
  TcpServer b(EchoHandler, 0, limits);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());

  RawClient occupant(a.port());
  ASSERT_TRUE(occupant.connected());
  ASSERT_TRUE(occupant.Send(SimpleGet("/hold")));
  ASSERT_TRUE(occupant.ReadResponse().ok());  // A's only slot is taken.

  RawClient fresh(b.port());  // B is empty; the shared gauge reads 1.
  ASSERT_TRUE(fresh.connected());
  ASSERT_TRUE(fresh.Send(SimpleGet("/unrelated")));
  Result<http::Response> response = fresh.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(counters.connection_limit_rejections.load(), 0u);
  a.Stop();
  b.Stop();
}

TEST(ServerLimitsTest, SharedCountersReachTheCaller) {
  // The tools create one IngressCounters and hand it to both the server
  // (which writes it) and the proxy/origin (which exports it): verify the
  // caller-owned instance is the one the server actually updates.
  IngressCounters counters;
  ServerLimits limits;
  limits.counters = &counters;
  TcpServer server(EchoHandler, 0, limits);
  ASSERT_TRUE(server.Start().ok());
  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(SimpleGet("/counted")));
  ASSERT_TRUE(client.ReadResponse().ok());
  EXPECT_EQ(counters.accepted_total.load(), 1u);
  EXPECT_EQ(&server.ingress(), &counters);
  server.Stop();
}

}  // namespace
}  // namespace dynaprox::net
