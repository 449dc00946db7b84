// Multi-worker EpollServer product test (docs/threading-model.md,
// "Worker model"): N event-loop workers behind SO_REUSEPORT listener
// sharding (or the shared-listener fallback) must be observably
// equivalent to one worker — byte-identical responses, keep-alive
// connections pinned to one worker, zero-loss drain — while the
// per-worker ingress mirrors always sum to the shared totals.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/connection_pool.h"
#include "net/epoll_server.h"
#include "net/server_limits.h"

namespace dynaprox::net {
namespace {

http::Response EchoHandler(const http::Request& request) {
  return http::Response::MakeOk("path=" + std::string(request.Path()));
}

// Every IngressCounters field, for exhaustive sum checks.
std::vector<uint64_t> Snapshot(const IngressCounters& c) {
  return {static_cast<uint64_t>(c.open_connections.load()),
          static_cast<uint64_t>(c.inflight_requests.load()),
          c.accepted_total.load(),
          c.connection_limit_rejections.load(),
          c.shed_503s.load(),
          c.header_timeouts.load(),
          c.idle_timeouts.load(),
          c.write_stall_closes.load(),
          c.oversize_headers.load(),
          c.oversize_bodies.load(),
          c.bad_requests.load(),
          c.drained_connections.load()};
}

void ExpectWorkersSumToTotals(const EpollServer& server) {
  std::vector<uint64_t> totals = Snapshot(server.ingress());
  std::vector<uint64_t> sums(totals.size(), 0);
  for (int w = 0; w < server.worker_count(); ++w) {
    std::vector<uint64_t> slot = Snapshot(server.worker_ingress(w));
    for (size_t i = 0; i < sums.size(); ++i) sums[i] += slot[i];
  }
  EXPECT_EQ(sums, totals);
}

TEST(MultiWorkerTest, PerWorkerCountersSumToTotals) {
  EpollServer server(EchoHandler, 0, /*num_workers=*/4);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.worker_count(), 4);

  constexpr int kClients = 12;
  constexpr int kPerClient = 8;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      PooledClientTransport client("127.0.0.1", server.port());
      for (int i = 0; i < kPerClient; ++i) {
        http::Request request;
        request.target = "/c" + std::to_string(c);
        Result<http::Response> response = client.RoundTrip(request);
        if (!response.ok() ||
            response->body != "path=/c" + std::to_string(c)) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.ingress().accepted_total.load(),
            static_cast<uint64_t>(kClients));
  ExpectWorkersSumToTotals(server);
  // With SO_REUSEPORT sharding the kernel spreads 12 connections; at
  // minimum the accepts must not all land on one worker... but kernel
  // hashing gives no hard guarantee, so only assert the roll-up.
  server.Stop();
  ExpectWorkersSumToTotals(server);
}

TEST(MultiWorkerTest, KeepAliveConnectionStaysPinnedToOneWorker) {
  // Handler answers with its thread id: every request on one keep-alive
  // connection must be served by the same worker loop (connections are
  // owned by the worker that accepted them, never migrated).
  EpollServer server(
      [](const http::Request&) {
        std::ostringstream id;
        id << std::this_thread::get_id();
        return http::Response::MakeOk(id.str());
      },
      0, /*num_workers=*/3);
  ASSERT_TRUE(server.Start().ok());
  PooledClientTransport client("127.0.0.1", server.port());
  std::string first;
  for (int i = 0; i < 25; ++i) {
    Result<http::Response> response = client.RoundTrip(http::Request{});
    ASSERT_TRUE(response.ok());
    if (i == 0) {
      first = response->body;
    } else {
      EXPECT_EQ(response->body, first) << "request " << i
                                       << " migrated workers";
    }
  }
  EXPECT_EQ(server.ingress().accepted_total.load(), 1u);
  server.Stop();
}

TEST(MultiWorkerTest, ByteIdenticalAcrossWorkerCounts) {
  // --workers=N must be invisible on the wire: the same request yields
  // byte-identical responses from a 1-worker and a 4-worker server.
  auto handler = [](const http::Request& request) {
    http::Response response = http::Response::MakeOk(
        "body-for:" + std::string(request.Path()));
    response.headers.Set("X-Fixed", "abc");
    return response;
  };
  EpollServer single(handler, 0, /*num_workers=*/1);
  EpollServer sharded(handler, 0, /*num_workers=*/4);
  ASSERT_TRUE(single.Start().ok());
  ASSERT_TRUE(sharded.Start().ok());
  PooledClientTransport to_single("127.0.0.1", single.port());
  PooledClientTransport to_sharded("127.0.0.1", sharded.port());
  for (int i = 0; i < 10; ++i) {
    http::Request request;
    request.target = "/page" + std::to_string(i);
    Result<http::Response> a = to_single.RoundTrip(request);
    Result<http::Response> b = to_sharded.RoundTrip(request);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->Serialize(), b->Serialize());
  }
  single.Stop();
  sharded.Stop();
}

TEST(MultiWorkerTest, DrainAcrossWorkersLosesNothing) {
  // Six in-flight requests spread over three workers when the drain
  // begins: every client still receives its complete response (with
  // "Connection: close" when it completed during the drain), the drain
  // counters roll up exactly, and nothing is left open.
  EpollServer server(
      [](const http::Request& request) {
        std::this_thread::sleep_for(std::chrono::milliseconds(120));
        return EchoHandler(request);
      },
      0, /*num_workers=*/3);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 6;
  std::vector<std::thread> clients;
  std::atomic<int> complete{0};
  std::atomic<int> closed_marked{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      PooledClientTransport client("127.0.0.1", server.port());
      http::Request request;
      request.target = "/drain" + std::to_string(c);
      Result<http::Response> response = client.RoundTrip(request);
      if (response.ok() &&
          response->body == "path=/drain" + std::to_string(c)) {
        ++complete;
        if (response->headers.Get("Connection").value_or("") == "close") {
          ++closed_marked;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.Stop(/*drain_timeout_micros=*/5 * kMicrosPerSecond);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(complete.load(), kClients) << "drain lost responses";
  // Every request that completed during the drain was answered with
  // Connection: close and counted; the roll-up must agree exactly.
  EXPECT_EQ(server.ingress().drained_connections.load(),
            static_cast<uint64_t>(closed_marked.load()));
  EXPECT_EQ(server.ingress().open_connections.load(), 0);
  ExpectWorkersSumToTotals(server);
}

TEST(MultiWorkerTest, CallerSuppliedWorkerSlotsAreUsed) {
  // ServerLimits::worker_counters lets the embedding process (the tools)
  // allocate the per-worker slots before the server exists, so metric
  // registration can happen first. The server must mirror into exactly
  // those slots.
  constexpr int kWorkers = 3;
  auto slots = std::make_unique<IngressCounters[]>(kWorkers);
  IngressCounters totals;
  ServerLimits limits;
  limits.counters = &totals;
  limits.worker_counters = slots.get();
  limits.worker_counter_count = kWorkers;
  EpollServer server(EchoHandler, 0, kWorkers, limits);
  ASSERT_TRUE(server.Start().ok());
  PooledClientTransport client("127.0.0.1", server.port());
  ASSERT_TRUE(client.RoundTrip(http::Request{}).ok());
  uint64_t sum = 0;
  for (int w = 0; w < kWorkers; ++w) {
    sum += slots[w].accepted_total.load();
    EXPECT_EQ(&server.worker_ingress(w), &slots[w]);
  }
  EXPECT_EQ(sum, 1u);
  EXPECT_EQ(totals.accepted_total.load(), 1u);
  server.Stop();
}

}  // namespace
}  // namespace dynaprox::net
