// The full product path over the event-driven server: origin+BEM behind
// an EpollServer, DPC proxy upstreaming over TCP, concurrent clients.

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "appserver/origin_server.h"
#include "appserver/script_registry.h"
#include "bem/monitor.h"
#include "dpc/proxy.h"
#include "net/connection_pool.h"
#include "net/epoll_server.h"
#include "storage/table.h"

namespace dynaprox {
namespace {

TEST(EpollProductTest, DpcOverEpollOriginServesCorrectPages) {
  storage::ContentRepository repository;
  appserver::ScriptRegistry registry;
  registry.RegisterOrReplace(
      "/page", [](appserver::ScriptContext& context) {
        context.Emit("<");
        Status status = context.CacheableBlock(
            bem::FragmentId("f"), [](appserver::ScriptContext& block) {
              block.Emit("fragment");
              return Status::Ok();
            });
        if (!status.ok()) return status;
        context.Emit(">");
        return Status::Ok();
      });

  bem::BemOptions bem_options;
  bem_options.capacity = 16;
  auto monitor = *bem::BackEndMonitor::Create(bem_options);
  appserver::OriginServer origin(&registry, &repository, monitor.get());

  net::EpollServer origin_server(origin.AsHandler(), 0, /*workers=*/2);
  ASSERT_TRUE(origin_server.Start().ok());

  // The proxy tool's default pool of 8: upstream round trips overlap,
  // so a GET can overtake the SET a concurrent response carries for a
  // reused slot. Generation-carrying dpcKeys keep every page correct.
  net::PooledTransportOptions upstream_options;
  upstream_options.pool.max_connections = 8;
  net::PooledClientTransport to_origin("127.0.0.1", origin_server.port(),
                                       upstream_options);
  dpc::ProxyOptions proxy_options;
  proxy_options.capacity = 16;
  dpc::DpcProxy proxy(&to_origin, proxy_options);
  net::EpollServer proxy_server(proxy.AsHandler(), 0, /*workers=*/2);
  ASSERT_TRUE(proxy_server.Start().ok());

  constexpr int kThreads = 6;
  constexpr int kPerThread = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      net::PooledClientTransport client("127.0.0.1", proxy_server.port());
      http::Request request;
      request.target = "/page";
      for (int i = 0; i < kPerThread; ++i) {
        Result<http::Response> response = client.RoundTrip(request);
        if (!response.ok() || response->body != "<fragment>") ++failures;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  bem::DirectoryStats stats = monitor->stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GT(stats.hits, stats.misses);  // Overwhelmingly warm.

  proxy_server.Stop();
  origin_server.Stop();
}

}  // namespace
}  // namespace dynaprox
