// Failure-injection integration tests: DPC restart (cold cache), firewall
// in the path, corrupt templates from a buggy origin.

#include <future>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "appserver/origin_server.h"
#include "appserver/script_registry.h"
#include "bem/monitor.h"
#include "bem/protocol.h"
#include "common/clock.h"
#include "dpc/proxy.h"
#include "firewall/firewall.h"
#include "net/transport.h"
#include "storage/table.h"

namespace dynaprox {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_.RegisterOrReplace(
        "/page", [this](appserver::ScriptContext& context) {
          context.Emit("[");
          Status status = context.CacheableBlock(
              bem::FragmentId("body"),
              [this](appserver::ScriptContext& ctx) {
                ++generations_;
                ctx.Emit("fragment-body");
                return Status::Ok();
              });
          if (!status.ok()) return status;
          context.Emit("]");
          return Status::Ok();
        });

    bem::BemOptions bem_options;
    bem_options.capacity = 8;
    bem_options.clock = &clock_;
    monitor_ = *bem::BackEndMonitor::Create(bem_options);
    origin_ = std::make_unique<appserver::OriginServer>(
        &registry_, &repository_, monitor_.get());
    upstream_ =
        std::make_unique<net::DirectTransport>(origin_->AsHandler());
    dpc::ProxyOptions proxy_options;
    proxy_options.capacity = 8;
    dpc_ = std::make_unique<dpc::DpcProxy>(upstream_.get(), proxy_options);
  }

  http::Response Fetch() {
    http::Request request;
    request.target = "/page";
    return dpc_->Handle(request);
  }

  SimClock clock_;
  storage::ContentRepository repository_;
  appserver::ScriptRegistry registry_;
  std::unique_ptr<bem::BackEndMonitor> monitor_;
  std::unique_ptr<appserver::OriginServer> origin_;
  std::unique_ptr<net::DirectTransport> upstream_;
  std::unique_ptr<dpc::DpcProxy> dpc_;
  int generations_ = 0;
};

TEST_F(RecoveryTest, DpcRestartRecoversTransparently) {
  EXPECT_EQ(Fetch().BodyText(), "[fragment-body]");
  EXPECT_EQ(Fetch().BodyText(), "[fragment-body]");
  EXPECT_EQ(generations_, 1);

  // Crash/restart the DPC: its slots are empty but the BEM still believes
  // the fragment is cached and emits a GET.
  dpc_->ClearCache();
  http::Response recovered = Fetch();
  EXPECT_EQ(recovered.status_code, 200);
  EXPECT_EQ(recovered.BodyText(), "[fragment-body]");
  EXPECT_EQ(dpc_->stats().recoveries, 1u);
  EXPECT_EQ(generations_, 2);  // Regenerated once via refresh.

  // Back to steady state afterwards.
  EXPECT_EQ(Fetch().BodyText(), "[fragment-body]");
  EXPECT_EQ(generations_, 2);
}

TEST_F(RecoveryTest, RepeatedRestartsAlwaysRecover) {
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(Fetch().BodyText(), "[fragment-body]");
    dpc_->ClearCache();
  }
  EXPECT_EQ(Fetch().BodyText(), "[fragment-body]");
  EXPECT_EQ(dpc_->stats().template_errors, 0u);
}

TEST_F(RecoveryTest, OverlappingMissesOfASharedFragmentBothRecover) {
  // A cold DPC in front of a warm BEM: two overlapping responses, for two
  // pages, both GET the shared fragment's key. The first refresh re-keys
  // the fragment into its slot's next generation; the second refresh must
  // still find it by its slot and re-render it into that slot.
  for (const char* page : {"/a", "/b"}) {
    registry_.RegisterOrReplace(
        page, [this, page](appserver::ScriptContext& context) {
          context.Emit(std::string(page) + ":");
          return context.CacheableBlock(
              bem::FragmentId("shared"), [this](appserver::ScriptContext& ctx) {
                ++generations_;
                ctx.Emit("shared-body");
                return Status::Ok();
              });
        });
  }
  auto fetch = [this](dpc::DpcProxy& proxy, const char* target) {
    http::Request request;
    request.target = target;
    return proxy.Handle(request);
  };
  ASSERT_EQ(fetch(*dpc_, "/a").BodyText(), "/a:shared-body");
  dpc_->ClearCache();

  // "/a"'s refresh reaches the origin only after "/b" was rendered with
  // the key both responses miss.
  std::promise<void> a_refreshing;
  std::promise<void> b_rendered;
  std::shared_future<void> b_rendered_future = b_rendered.get_future().share();
  net::DirectTransport gated([&](const http::Request& request) {
    const bool refresh = request.headers.Has(bem::kRefreshHeader);
    if (refresh && request.target == "/a") {
      a_refreshing.set_value();
      b_rendered_future.wait();
    }
    http::Response response = origin_->Handle(request);
    if (!refresh && request.target == "/b") b_rendered.set_value();
    return response;
  });
  dpc::ProxyOptions proxy_options;
  proxy_options.capacity = 8;
  dpc::DpcProxy cold(&gated, proxy_options);
  std::future<http::Response> a =
      std::async(std::launch::async, [&] { return fetch(cold, "/a"); });
  a_refreshing.get_future().wait();
  std::future<http::Response> b =
      std::async(std::launch::async, [&] { return fetch(cold, "/b"); });

  http::Response a_page = a.get();
  http::Response b_page = b.get();
  EXPECT_EQ(a_page.status_code, 200);
  EXPECT_EQ(a_page.BodyText(), "/a:shared-body");
  EXPECT_EQ(b_page.status_code, 200);
  EXPECT_EQ(b_page.BodyText(), "/b:shared-body");
  EXPECT_EQ(cold.stats().recoveries, 2u);
  EXPECT_EQ(cold.stats().template_errors, 0u);
}

TEST_F(RecoveryTest, FirewallBetweenDpcAndOriginStillWorks) {
  firewall::ScanningFirewall firewall(upstream_.get(), {"EVIL"});
  dpc::ProxyOptions proxy_options;
  proxy_options.capacity = 8;
  dpc::DpcProxy guarded(&firewall, proxy_options);

  http::Request request;
  request.target = "/page";
  EXPECT_EQ(guarded.Handle(request).BodyText(), "[fragment-body]");
  EXPECT_EQ(guarded.Handle(request).BodyText(), "[fragment-body]");
  EXPECT_EQ(firewall.stats().blocked, 0u);
  // The firewall scanned request+response for each round trip.
  EXPECT_EQ(firewall.stats().messages, 4u);

  http::Request attack;
  attack.target = "/page";
  attack.body = "EVIL payload";
  // The firewall's 403 passes through the DPC untouched (no template).
  EXPECT_EQ(guarded.Handle(attack).status_code, 403);
  EXPECT_EQ(firewall.stats().blocked, 1u);
}

TEST_F(RecoveryTest, OriginScriptFailurePropagatesAsError) {
  registry_.RegisterOrReplace("/flaky",
                              [](appserver::ScriptContext& context) {
                                return context.CacheableBlock(
                                    bem::FragmentId("flaky"),
                                    [](appserver::ScriptContext&) {
                                      return Status::IoError("db down");
                                    });
                              });
  http::Request request;
  request.target = "/flaky";
  http::Response response = dpc_->Handle(request);
  EXPECT_EQ(response.status_code, 500);
  // The failed fragment was not cached; a fixed script recovers.
  registry_.RegisterOrReplace("/flaky",
                              [](appserver::ScriptContext& context) {
                                return context.CacheableBlock(
                                    bem::FragmentId("flaky"),
                                    [](appserver::ScriptContext& ctx) {
                                      ctx.Emit("ok now");
                                      return Status::Ok();
                                    });
                              });
  EXPECT_EQ(dpc_->Handle(request).BodyText(), "ok now");
}

}  // namespace
}  // namespace dynaprox
