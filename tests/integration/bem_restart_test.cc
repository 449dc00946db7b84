// BEM restart semantics: the origin's directory is in-memory state. After a
// BEM restart every lookup misses, so responses carry fresh SETs that
// simply overwrite the DPC's (still populated) slots — correctness is
// preserved by construction, at the cost of one regeneration per fragment.

#include <memory>

#include <gtest/gtest.h>

#include "appserver/origin_server.h"
#include "appserver/script_registry.h"
#include "bem/monitor.h"
#include "common/clock.h"
#include "dpc/proxy.h"
#include "net/transport.h"
#include "storage/table.h"
#include "storage/value.h"

namespace dynaprox {
namespace {

TEST(BemRestartTest, FreshDirectoryOverwritesDpcSlotsCorrectly) {
  SimClock clock;
  storage::ContentRepository repository;
  repository.GetOrCreateTable("kv")->Upsert(
      "row", {{"v", storage::Value(std::string("one"))}});

  appserver::ScriptRegistry registry;
  int generations = 0;
  registry.RegisterOrReplace(
      "/page", [&](appserver::ScriptContext& context) {
        return context.CacheableBlock(
            bem::FragmentId("kv-frag"),
            [&](appserver::ScriptContext& block) {
              ++generations;
              auto row = (*block.repository()->GetTable("kv"))->Get("row");
              block.DeclareDependency("kv", "row");
              block.Emit("[" + storage::GetString(*row, "v") + "]");
              return Status::Ok();
            });
      });

  bem::BemOptions bem_options;
  bem_options.capacity = 8;
  bem_options.clock = &clock;

  auto monitor = *bem::BackEndMonitor::Create(bem_options);
  monitor->AttachRepository(&repository);
  // The origin holds a raw pointer; rebuild it when the BEM "restarts".
  auto origin = std::make_unique<appserver::OriginServer>(
      &registry, &repository, monitor.get());
  auto origin_handler = [&](const http::Request& request) {
    return origin->Handle(request);
  };
  net::DirectTransport upstream(origin_handler);
  dpc::ProxyOptions proxy_options;
  proxy_options.capacity = 8;
  dpc::DpcProxy proxy(&upstream, proxy_options);

  http::Request request;
  request.target = "/page";
  EXPECT_EQ(proxy.Handle(request).BodyText(), "[one]");
  EXPECT_EQ(proxy.Handle(request).BodyText(), "[one]");
  EXPECT_EQ(generations, 1);

  // "Restart" the BEM: new monitor, empty directory; DPC slots still hold
  // the old fragment under key 0.
  (*repository.GetTable("kv"))
      ->Upsert("row", {{"v", storage::Value(std::string("two"))}});
  monitor = *bem::BackEndMonitor::Create(bem_options);
  monitor->AttachRepository(&repository);
  origin = std::make_unique<appserver::OriginServer>(
      &registry, &repository, monitor.get());

  // Every fragment misses in the fresh directory; the SET overwrites the
  // stale slot, so clients see the new value immediately.
  EXPECT_EQ(proxy.Handle(request).BodyText(), "[two]");
  EXPECT_EQ(generations, 2);
  EXPECT_EQ(proxy.Handle(request).BodyText(), "[two]");
  EXPECT_EQ(generations, 2);  // Warm again.
  EXPECT_EQ(proxy.stats().template_errors, 0u);
}

TEST(BemRestartTest, RestartedBemsFirstKeysTakeTheirSlotsWarm) {
  // One slot, so every reassignment is slot 0 one generation on. The old
  // BEM drives the slot to key 2 before it restarts; the new one hands
  // out key 0 again, lower than what the DPC holds.
  SimClock clock;
  storage::ContentRepository repository;
  auto set_value = [&](const char* value) {
    repository.GetOrCreateTable("kv")->Upsert(
        "row", {{"v", storage::Value(std::string(value))}});
  };
  set_value("one");
  appserver::ScriptRegistry registry;
  int generations = 0;
  registry.RegisterOrReplace(
      "/page", [&](appserver::ScriptContext& context) {
        return context.CacheableBlock(
            bem::FragmentId("kv-frag"),
            [&](appserver::ScriptContext& block) {
              ++generations;
              auto row = (*block.repository()->GetTable("kv"))->Get("row");
              block.DeclareDependency("kv", "row");
              block.Emit("[" + storage::GetString(*row, "v") + "]");
              return Status::Ok();
            });
      });
  bem::BemOptions bem_options;
  bem_options.capacity = 1;
  bem_options.clock = &clock;
  auto monitor = *bem::BackEndMonitor::Create(bem_options);
  monitor->AttachRepository(&repository);
  auto origin = std::make_unique<appserver::OriginServer>(
      &registry, &repository, monitor.get());
  net::DirectTransport upstream(
      [&](const http::Request& request) { return origin->Handle(request); });
  dpc::ProxyOptions proxy_options;
  proxy_options.capacity = 1;
  dpc::DpcProxy proxy(&upstream, proxy_options);
  http::Request request;
  request.target = "/page";

  EXPECT_EQ(proxy.Handle(request).BodyText(), "[one]");    // Key 0.
  set_value("two");
  EXPECT_EQ(proxy.Handle(request).BodyText(), "[two]");    // Key 1.
  set_value("three");
  EXPECT_EQ(proxy.Handle(request).BodyText(), "[three]");  // Key 2.
  EXPECT_EQ(generations, 3);

  monitor = *bem::BackEndMonitor::Create(bem_options);
  monitor->AttachRepository(&repository);
  origin = std::make_unique<appserver::OriginServer>(
      &registry, &repository, monitor.get());
  set_value("four");
  EXPECT_EQ(proxy.Handle(request).BodyText(), "[four]");  // Key 0 again.
  EXPECT_EQ(generations, 4);
  // Warm at once: no refresh, no render.
  EXPECT_EQ(proxy.Handle(request).BodyText(), "[four]");
  EXPECT_EQ(generations, 4);
  EXPECT_EQ(proxy.stats().recoveries, 0u);

  // The new BEM reaches key 2 again: its bytes, never the old ones.
  set_value("five");
  EXPECT_EQ(proxy.Handle(request).BodyText(), "[five]");  // Key 1.
  set_value("six");
  EXPECT_EQ(proxy.Handle(request).BodyText(), "[six]");  // Key 2.
  EXPECT_EQ(proxy.Handle(request).BodyText(), "[six]");
  EXPECT_EQ(generations, 6);
  EXPECT_EQ(proxy.stats().recoveries, 0u);
  EXPECT_EQ(proxy.stats().template_errors, 0u);
}

}  // namespace
}  // namespace dynaprox
