// The epoll loop's growth rule: a loop adds a thread only while every
// thread it has is inside a BlockingScope, and never touches a connection
// another of its threads is serving.
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <semaphore>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/blocking_scope.h"
#include "net/connection_pool.h"
#include "net/epoll_server.h"

namespace dynaprox::net {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

// A handler whose "/block" requests wait, inside a BlockingScope, until
// Release(); every other path answers at once.
class Gate {
 public:
  Handler handler() {
    return [this](const http::Request& request) {
      if (request.Path() == "/block") {
        BlockingScope blocking;
        entered_.store(true);
        released_.wait_for(seconds(20));
        finished_.store(true);
      }
      return http::Response::MakeOk("ok");
    };
  }

  void WaitEntered() {
    for (int i = 0; i < 2000 && !entered_.load(); ++i) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    ASSERT_TRUE(entered_.load());
  }

  void Release() { release_.set_value(); }
  bool finished() const { return finished_.load(); }

 private:
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
  std::atomic<bool> entered_{false};
  std::atomic<bool> finished_{false};
};

Result<http::Response> Fetch(uint16_t port, const std::string& target) {
  PooledClientTransport client("127.0.0.1", port);
  http::Request request;
  request.target = target;
  return client.RoundTrip(request);
}

TEST(LoopGrowthTest, BlockedHandlerDoesNotDelayAnotherConnection) {
  Gate gate;
  EpollServer server(gate.handler(), 0, /*num_workers=*/1);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.thread_count(), 1);
  std::future<Result<http::Response>> blocked =
      std::async(std::launch::async,
                 [&] { return Fetch(server.port(), "/block"); });
  gate.WaitEntered();

  // Served while the first handler is still blocked, by the thread the
  // loop added for it.
  Result<http::Response> fast = Fetch(server.port(), "/fast");
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_EQ(fast->body, "ok");
  EXPECT_FALSE(gate.finished());
  EXPECT_EQ(server.thread_count(), 2);

  gate.Release();
  Result<http::Response> slow = blocked.get();
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ(slow->body, "ok");
  server.Stop();
}

TEST(LoopGrowthTest, HandlerOutsideAnyScopeKeepsTheLoopOnOneThread) {
  std::mutex mu;
  std::set<std::thread::id> threads;
  EpollServer server(
      [&](const http::Request&) {
        {
          std::lock_guard<std::mutex> lock(mu);
          threads.insert(std::this_thread::get_id());
        }
        // Slow, but not blocked in a scope: the loop must not grow.
        std::this_thread::sleep_for(milliseconds(2));
        return http::Response::MakeOk("ok");
      },
      0, /*num_workers=*/1);
  ASSERT_TRUE(server.Start().ok());
  constexpr int kClients = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      PooledClientTransport client("127.0.0.1", server.port());
      for (int i = 0; i < 10; ++i) {
        Result<http::Response> response = client.RoundTrip(http::Request{});
        if (!response.ok() || response->body != "ok") ++failures;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(threads.size(), 1u);
  EXPECT_EQ(server.thread_count(), 1);
  EXPECT_EQ(server.connections_accepted(), static_cast<uint64_t>(kClients));
  server.Stop();
}

TEST(LoopGrowthTest, StopJoinsAnAddedThreadAndOneBlockedInAHandler) {
  Gate gate;
  EpollServer server(gate.handler(), 0, /*num_workers=*/1);
  ASSERT_TRUE(server.Start().ok());
  std::future<Result<http::Response>> blocked =
      std::async(std::launch::async,
                 [&] { return Fetch(server.port(), "/block"); });
  gate.WaitEntered();
  ASSERT_TRUE(Fetch(server.port(), "/fast").ok());
  ASSERT_EQ(server.thread_count(), 2);

  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    server.Stop();
    stopped.store(true);
  });
  // Stop waits for the handler: it joins the thread inside it.
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(stopped.load());
  gate.Release();
  stopper.join();
  EXPECT_TRUE(gate.finished());
  EXPECT_EQ(server.thread_count(), 0);
  (void)blocked.get();  // Aborted or answered; either way it ends.
}

TEST(LoopGrowthTest, DrainLeavesAServedConnectionToItsThread) {
  Gate gate;
  EpollServer server(gate.handler(), 0, /*num_workers=*/1);
  ASSERT_TRUE(server.Start().ok());
  std::future<Result<http::Response>> blocked =
      std::async(std::launch::async,
                 [&] { return Fetch(server.port(), "/block"); });
  gate.WaitEntered();

  // The drain runs on the added thread while the first one still serves
  // the blocked connection: that connection must keep its request, and
  // its response closes it.
  std::thread stopper([&] { server.Stop(5 * kMicrosPerSecond); });
  std::this_thread::sleep_for(milliseconds(60));
  EXPECT_GE(server.thread_count(), 2);
  gate.Release();
  Result<http::Response> response = blocked.get();
  stopper.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body, "ok");
  EXPECT_EQ(response->headers.Get("Connection").value_or(""), "close");
  EXPECT_EQ(server.ingress().drained_connections.load(), 1u);
}

TEST(LoopGrowthTest, DeadlineSweepSkipsAConnectionItsThreadServes) {
  // Header and idle budgets far shorter than the handler: the sweep that
  // the loop's other thread runs every tick must leave the served
  // connection alone.
  ServerLimits limits;
  limits.header_timeout_micros = 20 * kMicrosPerMilli;
  limits.idle_timeout_micros = 20 * kMicrosPerMilli;
  EpollServer server(
      [](const http::Request& request) {
        if (request.Path() == "/slow") {
          BlockingScope blocking;
          std::this_thread::sleep_for(milliseconds(300));
        }
        return http::Response::MakeOk("ok");
      },
      0, /*num_workers=*/1, limits);
  ASSERT_TRUE(server.Start().ok());
  std::future<Result<http::Response>> slow =
      std::async(std::launch::async,
                 [&] { return Fetch(server.port(), "/slow"); });
  // Keep the other thread sweeping while the slow handler runs.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(Fetch(server.port(), "/fast").ok());
    std::this_thread::sleep_for(milliseconds(10));
  }
  Result<http::Response> response = slow.get();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body, "ok");
  EXPECT_EQ(server.ingress().header_timeouts.load(), 0u);
  server.Stop();
}

TEST(LoopGrowthTest, DeadlineSweepSkipsEventsWaitingInAnotherThreadsBatch) {
  // Every thread the loop may run is blocked while two requests queue up,
  // so the first thread free takes both events in one batch and serves
  // "/spin" (slow, outside any scope) first. The other threads' sweeps
  // must leave the "/fast" connection, whose request already arrived, to
  // that batch instead of closing it as idle.
  ServerLimits limits;
  limits.idle_timeout_micros = 100 * kMicrosPerMilli;
  std::atomic<int> in_scope{0};
  EpollServer server(
      [&](const http::Request& request) {
        const std::string path(request.Path());
        if (path == "/wait-long" || path == "/wait-short") {
          BlockingScope blocking;
          in_scope.fetch_add(1);
          std::this_thread::sleep_for(
              milliseconds(path == "/wait-long" ? 300 : 100));
        } else if (path == "/spin") {
          std::this_thread::sleep_for(milliseconds(400));
        }
        return http::Response::MakeOk("ok");
      },
      0, /*num_workers=*/1, limits);
  ASSERT_TRUE(server.Start().ok());
  auto fetch = [&](const char* target) {
    return std::async(std::launch::async, [&server, target] {
      return Fetch(server.port(), target);
    });
  };
  auto wait_for = [&](auto done) {
    for (int i = 0; i < 2000 && !done(); ++i) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    return done();
  };
  constexpr int kCap = EpollServer::kMaxThreadsPerLoop;
  std::vector<std::future<Result<http::Response>>> pending;
  for (int i = 1; i < kCap; ++i) {
    pending.push_back(fetch("/wait-long"));
    ASSERT_TRUE(wait_for([&] { return in_scope.load() == i; }));
  }
  pending.push_back(fetch("/wait-short"));
  ASSERT_TRUE(wait_for([&] { return in_scope.load() == kCap; }));
  pending.push_back(fetch("/spin"));
  std::this_thread::sleep_for(milliseconds(10));
  pending.push_back(fetch("/fast"));

  for (auto& response_future : pending) {
    Result<http::Response> response = response_future.get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->body, "ok");
  }
  // Answered on its first connection, not retried on a second.
  EXPECT_EQ(server.connections_accepted(), static_cast<uint64_t>(kCap + 2));
  server.Stop();
}

TEST(LoopGrowthTest, GrowsToTheCapAndNoFurther) {
  // Two more connections than the cap, each with a handler that waits in
  // a scope until it gets a permit: the loop grows to the cap, the last
  // two wait for a thread, and one permit lets one of them be served.
  constexpr int kCap = EpollServer::kMaxThreadsPerLoop;
  std::counting_semaphore<> permits(0);
  std::atomic<int> entered{0};
  EpollServer server(
      [&](const http::Request&) {
        BlockingScope blocking;
        entered.fetch_add(1);
        permits.acquire();
        return http::Response::MakeOk("ok");
      },
      0, /*num_workers=*/1);
  ASSERT_TRUE(server.Start().ok());
  auto entered_reaches = [&](int count) {
    for (int i = 0; i < 2000 && entered.load() < count; ++i) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    return entered.load() == count;
  };
  std::vector<std::future<Result<http::Response>>> pending;
  for (int i = 0; i < kCap + 2; ++i) {
    pending.push_back(std::async(std::launch::async, [&server] {
      return Fetch(server.port(), "/block");
    }));
  }
  ASSERT_TRUE(entered_reaches(kCap));
  // Time for a loop that wrongly grows past the cap to do so.
  std::this_thread::sleep_for(milliseconds(100));
  EXPECT_EQ(entered.load(), kCap);
  EXPECT_EQ(server.thread_count(), kCap);

  permits.release(1);
  ASSERT_TRUE(entered_reaches(kCap + 1));
  EXPECT_EQ(server.thread_count(), kCap);

  permits.release(kCap + 1);
  for (auto& response_future : pending) {
    Result<http::Response> response = response_future.get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->body, "ok");
  }
  EXPECT_EQ(server.thread_count(), kCap);
  server.Stop();
}

}  // namespace
}  // namespace dynaprox::net
