// Concurrency integration: the full TCP deployment (clients -> DPC proxy
// server -> TCP upstream -> origin+BEM) hammered from several client
// threads while a writer mutates the data source. Checks that every
// response is well-formed and every page reflects a value the data source
// actually held (no torn or stale-past-invalidation content).

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "appserver/origin_server.h"
#include "appserver/script_registry.h"
#include "bem/monitor.h"
#include "dpc/proxy.h"
#include "net/connection_pool.h"
#include "net/tcp.h"
#include "storage/table.h"
#include "storage/value.h"

namespace dynaprox {
namespace {

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage::Table* counters = repository_.GetOrCreateTable("counters");
    counters->Upsert("value", {{"v", storage::Value(int64_t{0})}});

    registry_.RegisterOrReplace(
        "/counter", [](appserver::ScriptContext& context) {
          return context.CacheableBlock(
              bem::FragmentId("counter"),
              [](appserver::ScriptContext& block) {
                auto row =
                    (*block.repository()->GetTable("counters"))->Get("value");
                if (!row.ok()) return row.status();
                block.DeclareDependency("counters", "value");
                int64_t v = storage::GetInt(*row, "v");
                block.Emit("[v=" + std::to_string(v) + "][v2=" +
                           std::to_string(v) + "]");
                return Status::Ok();
              });
        });

    // A four-block page with layout text between the blocks: exercises
    // page-order splicing when the origin runs miss generators on the
    // block pool (ParallelOriginConcurrencyTest sets block_workers_).
    registry_.RegisterOrReplace(
        "/multi", [](appserver::ScriptContext& context) {
          context.Emit("H0");
          for (int b = 0; b < 4; ++b) {
            if (b > 0) context.Emit("|");
            Status status = context.CacheableBlock(
                bem::FragmentId("multi_b" + std::to_string(b)),
                [b](appserver::ScriptContext& block) {
                  auto row = (*block.repository()->GetTable("counters"))
                                 ->Get("value");
                  if (!row.ok()) return row.status();
                  block.DeclareDependency("counters", "value");
                  block.Emit("[b" + std::to_string(b) + " v=" +
                             std::to_string(storage::GetInt(*row, "v")) +
                             "]");
                  return Status::Ok();
                });
            if (!status.ok()) return status;
          }
          context.Emit("T");
          return Status::Ok();
        });

    bem::BemOptions bem_options;
    bem_options.capacity = 64;
    monitor_ = *bem::BackEndMonitor::Create(bem_options);
    monitor_->AttachRepository(&repository_);
    appserver::OriginOptions origin_options;
    origin_options.block_workers = block_workers_;
    origin_ = std::make_unique<appserver::OriginServer>(
        &registry_, &repository_, monitor_.get(), origin_options);
    origin_server_ = std::make_unique<net::TcpServer>(origin_->AsHandler());
    ASSERT_TRUE(origin_server_->Start().ok());

    // The proxy tool's default pool of 8: upstream round trips overlap,
    // so a GET can overtake the SET a concurrent response carries for a
    // reused slot. Generation-carrying dpcKeys keep every page correct.
    net::PooledTransportOptions upstream_options;
    upstream_options.pool.max_connections = 8;
    to_origin_ = std::make_unique<net::PooledClientTransport>(
        "127.0.0.1", origin_server_->port(), upstream_options);
    dpc::ProxyOptions proxy_options;
    proxy_options.capacity = 64;
    proxy_ = std::make_unique<dpc::DpcProxy>(to_origin_.get(), proxy_options);
    proxy_server_ = std::make_unique<net::TcpServer>(proxy_->AsHandler());
    ASSERT_TRUE(proxy_server_->Start().ok());
  }

  void TearDown() override {
    proxy_server_->Stop();
    origin_server_->Stop();
  }

  int block_workers_ = 0;  // Set by derived fixtures before SetUp runs.
  storage::ContentRepository repository_;
  appserver::ScriptRegistry registry_;
  std::unique_ptr<bem::BackEndMonitor> monitor_;
  std::unique_ptr<appserver::OriginServer> origin_;
  std::unique_ptr<net::TcpServer> origin_server_;
  std::unique_ptr<net::PooledClientTransport> to_origin_;
  std::unique_ptr<dpc::DpcProxy> proxy_;
  std::unique_ptr<net::TcpServer> proxy_server_;
};

TEST_F(ConcurrencyTest, ParallelReadersWithWriterSeeConsistentPages) {
  constexpr int kReaderThreads = 6;
  constexpr int kRequestsPerReader = 120;
  constexpr int kWrites = 40;

  std::atomic<bool> writer_done{false};
  std::atomic<int> malformed{0};
  std::atomic<int> transport_errors{0};
  std::atomic<int> http_errors{0};

  std::thread writer([&] {
    storage::Table* counters = *repository_.GetTable("counters");
    for (int64_t i = 1; i <= kWrites; ++i) {
      counters->Upsert("value", {{"v", storage::Value(i)}});
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&] {
      net::PooledClientTransport client("127.0.0.1", proxy_server_->port());
      http::Request request;
      request.target = "/counter";
      for (int i = 0; i < kRequestsPerReader; ++i) {
        Result<http::Response> response = client.RoundTrip(request);
        if (!response.ok()) {
          ++transport_errors;
          continue;
        }
        if (response->status_code != 200) {
          ++http_errors;
          continue;
        }
        // The fragment writes the same value twice; a torn page would
        // disagree with itself.
        const std::string& body = response->body;
        size_t v1_begin = body.find("[v=");
        size_t v1_end = body.find(']', v1_begin);
        size_t v2_begin = body.find("[v2=", v1_end);
        size_t v2_end = body.find(']', v2_begin);
        if (v1_begin == std::string::npos || v2_begin == std::string::npos) {
          ++malformed;
          continue;
        }
        std::string v1 = body.substr(v1_begin + 3, v1_end - v1_begin - 3);
        std::string v2 = body.substr(v2_begin + 4, v2_end - v2_begin - 4);
        if (v1 != v2) ++malformed;
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  writer.join();

  EXPECT_EQ(transport_errors.load(), 0);
  EXPECT_EQ(http_errors.load(), 0);
  EXPECT_EQ(malformed.load(), 0);

  // After all writes settle, a fresh request must see the final value.
  net::PooledClientTransport client("127.0.0.1", proxy_server_->port());
  http::Request request;
  request.target = "/counter";
  Result<http::Response> final_response = client.RoundTrip(request);
  ASSERT_TRUE(final_response.ok());
  EXPECT_NE(final_response->body.find("[v=" + std::to_string(kWrites) + "]"),
            std::string::npos)
      << final_response->body;
}

TEST_F(ConcurrencyTest, ParallelColdStartAgreesOnOnePage) {
  // Many threads racing the very first request: all must get the same
  // correct page even though SET/GET interleave at the store.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> bodies(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      net::PooledClientTransport client("127.0.0.1", proxy_server_->port());
      http::Request request;
      request.target = "/counter";
      Result<http::Response> response = client.RoundTrip(request);
      bodies[t] = response.ok() ? response->body : "ERROR";
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::set<std::string> unique(bodies.begin(), bodies.end());
  EXPECT_EQ(unique.size(), 1u) << "divergent pages under cold-start race";
  EXPECT_EQ(*unique.begin(), "[v=0][v2=0]");
}

// The same deployment with the origin's block-execution pool enabled:
// miss generators of one page run on 4 workers (--block-workers=4).
class ParallelOriginConcurrencyTest : public ConcurrencyTest {
 protected:
  ParallelOriginConcurrencyTest() { block_workers_ = 4; }
};

TEST_F(ParallelOriginConcurrencyTest, ColdMultiBlockPageIsPageOrdered) {
  // Threads race the very first render of a page whose four miss
  // generators all run on the pool. Every client must get the one
  // correct, page-ordered assembly.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> bodies(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      net::PooledClientTransport client("127.0.0.1", proxy_server_->port());
      http::Request request;
      request.target = "/multi";
      Result<http::Response> response = client.RoundTrip(request);
      bodies[t] = response.ok() ? response->body : "ERROR";
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::set<std::string> unique(bodies.begin(), bodies.end());
  EXPECT_EQ(unique.size(), 1u) << "divergent pages under cold-start race";
  EXPECT_EQ(*unique.begin(), "H0[b0 v=0]|[b1 v=0]|[b2 v=0]|[b3 v=0]T");
  // The generators really went through the pool.
  EXPECT_GT(origin_->stats().parallel_blocks, 0u);
}

TEST_F(ParallelOriginConcurrencyTest, HammerKeepsPagesWellFormed) {
  constexpr int kReaderThreads = 6;
  constexpr int kRequestsPerReader = 80;
  constexpr int kWrites = 30;

  std::atomic<int> malformed{0};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    storage::Table* counters = *repository_.GetTable("counters");
    for (int64_t i = 1; i <= kWrites; ++i) {
      counters->Upsert("value", {{"v", storage::Value(i)}});
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&] {
      net::PooledClientTransport client("127.0.0.1", proxy_server_->port());
      http::Request request;
      request.target = "/multi";
      for (int i = 0; i < kRequestsPerReader; ++i) {
        Result<http::Response> response = client.RoundTrip(request);
        if (!response.ok() || response->status_code != 200) {
          ++failures;
          continue;
        }
        // Blocks may legitimately see different values mid-write (an
        // update between two generators re-renders only the later
        // blocks), but the page structure must always be complete and
        // in page order.
        const std::string& body = response->body;
        size_t at = 0;
        bool ok = body.compare(0, 2, "H0") == 0;
        at = 2;
        for (int b = 0; ok && b < 4; ++b) {
          std::string prefix = (b > 0 ? std::string("|") : std::string()) +
                               "[b" + std::to_string(b) + " v=";
          ok = body.compare(at, prefix.size(), prefix) == 0;
          if (!ok) break;
          size_t close = body.find(']', at + prefix.size());
          ok = close != std::string::npos;
          at = close + 1;
        }
        ok = ok && body.compare(at, std::string::npos, "T") == 0;
        if (!ok) ++malformed;
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  writer.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(malformed.load(), 0);

  // After the writes settle every block re-renders to the final value.
  net::PooledClientTransport client("127.0.0.1", proxy_server_->port());
  http::Request request;
  request.target = "/multi";
  Result<http::Response> final_response = client.RoundTrip(request);
  ASSERT_TRUE(final_response.ok());
  std::string want = "H0";
  for (int b = 0; b < 4; ++b) {
    want += (b > 0 ? "|" : "");
    want += "[b" + std::to_string(b) + " v=" + std::to_string(kWrites) + "]";
  }
  want += "T";
  EXPECT_EQ(final_response->body, want);
}

}  // namespace
}  // namespace dynaprox
