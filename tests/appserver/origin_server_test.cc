#include "appserver/origin_server.h"

#include <gtest/gtest.h>

#include "bem/protocol.h"
#include "common/clock.h"
#include "common/strings.h"

namespace dynaprox::appserver {
namespace {

class OriginServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_.RegisterOrReplace("/hello", [](ScriptContext& context) {
      context.Emit("hello world");
      return Status::Ok();
    });
    registry_.RegisterOrReplace("/boom", [](ScriptContext&) {
      return Status::Internal("script exploded");
    });
    registry_.RegisterOrReplace("/cached", [](ScriptContext& context) {
      return context.CacheableBlock(bem::FragmentId("c"),
                                    [](ScriptContext& ctx) {
                                      ctx.Emit("cacheable!");
                                      return Status::Ok();
                                    });
    });
  }

  std::unique_ptr<bem::BackEndMonitor> MakeMonitor() {
    bem::BemOptions options;
    options.capacity = 8;
    options.clock = &clock_;
    return *bem::BackEndMonitor::Create(options);
  }

  http::Request Get(const std::string& target) {
    http::Request request;
    request.target = target;
    return request;
  }

  SimClock clock_;
  ScriptRegistry registry_;
  storage::ContentRepository repository_;
};

TEST_F(OriginServerTest, ServesScriptOutput) {
  OriginServer server(&registry_, &repository_, nullptr);
  http::Response response = server.Handle(Get("/hello"));
  EXPECT_EQ(response.status_code, 200);
  EXPECT_EQ(response.body, "hello world");
  EXPECT_EQ(server.stats().requests, 1u);
}

TEST_F(OriginServerTest, DispatchNormalizesPaths) {
  OriginServer server(&registry_, &repository_, nullptr);
  EXPECT_EQ(server.Handle(Get("/x/../hello")).body, "hello world");
  EXPECT_EQ(server.Handle(Get("//hello/")).body, "hello world");
  EXPECT_EQ(server.Handle(Get("/hello/./")).body, "hello world");
}

TEST_F(OriginServerTest, UnknownPathIs404) {
  OriginServer server(&registry_, &repository_, nullptr);
  EXPECT_EQ(server.Handle(Get("/nope")).status_code, 404);
  EXPECT_EQ(server.stats().not_found, 1u);
}

TEST_F(OriginServerTest, ScriptErrorIs500) {
  OriginServer server(&registry_, &repository_, nullptr);
  EXPECT_EQ(server.Handle(Get("/boom")).status_code, 500);
  EXPECT_EQ(server.stats().script_errors, 1u);
}

TEST_F(OriginServerTest, TemplateHeaderOnlyWhenTaggingUsed) {
  auto monitor = MakeMonitor();
  OriginServer server(&registry_, &repository_, monitor.get());
  http::Response plain = server.Handle(Get("/hello"));
  EXPECT_FALSE(plain.headers.Has(bem::kTemplateHeader));
  http::Response templated = server.Handle(Get("/cached"));
  EXPECT_TRUE(templated.headers.Has(bem::kTemplateHeader));
  EXPECT_EQ(server.stats().fragment_misses, 1u);
  // Second request hits.
  server.Handle(Get("/cached"));
  EXPECT_EQ(server.stats().fragment_hits, 1u);
}

TEST_F(OriginServerTest, RefreshHeaderInvalidatesKeys) {
  auto monitor = MakeMonitor();
  OriginServer server(&registry_, &repository_, monitor.get());
  server.Handle(Get("/cached"));
  bem::DpcKey key = *monitor->directory().KeyOf(bem::FragmentId("c"));

  http::Request refresh = Get("/cached");
  refresh.headers.Add(bem::kRefreshHeader, ToHex(key));
  http::Response response = server.Handle(refresh);
  EXPECT_EQ(response.status_code, 200);
  EXPECT_EQ(server.stats().refresh_invalidations, 1u);
  // The refreshed response must carry a SET again (miss path).
  EXPECT_EQ(server.stats().fragment_misses, 2u);
}

// The cold-cache recovery race (the PR-4 loadgen A/B's occasional
// cold-round template_error): the DPC refreshes key k, the origin
// invalidates it, but a concurrent request re-inserts the fragment before
// the refresh re-render's lookup. The lookup would then hit and emit GET
// for content whose SET is still in flight inside the *other* response —
// and the DPC's retry fails again. The script below replays that
// interleaving deterministically: the re-insert runs after
// HandleRefreshHeader but before the script's CacheableBlock, exactly
// where the concurrent request's insert lands.
TEST_F(OriginServerTest, RefreshForcesMissDespiteConcurrentReinsert) {
  auto monitor = MakeMonitor();
  bem::BackEndMonitor* raw = monitor.get();
  registry_.RegisterOrReplace("/race", [raw](ScriptContext& context) {
    if (context.request().headers.Has("X-Test-Reinsert")) {
      Result<bem::DpcKey> reinserted =
          raw->InsertFragment(bem::FragmentId("r"));
      EXPECT_TRUE(reinserted.ok());
    }
    return context.CacheableBlock(bem::FragmentId("r"),
                                  [](ScriptContext& ctx) {
                                    ctx.Emit("fresh content");
                                    return Status::Ok();
                                  });
  });
  OriginServer server(&registry_, &repository_, raw);
  EXPECT_EQ(server.Handle(Get("/race")).status_code, 200);  // Cold SET.
  bem::DpcKey key = *raw->directory().KeyOf(bem::FragmentId("r"));

  http::Request refresh = Get("/race");
  refresh.headers.Add(bem::kRefreshHeader, ToHex(key));
  refresh.headers.Add("X-Test-Reinsert", "1");
  http::Response response = server.Handle(refresh);
  EXPECT_EQ(response.status_code, 200);
  EXPECT_EQ(server.stats().refresh_invalidations, 1u);
  // The refresh response must carry the content inline (a SET tag), never
  // a GET for the content the DPC just said it was missing.
  EXPECT_NE(response.body.find("fresh content"), std::string::npos);
}

TEST_F(OriginServerTest, MalformedRefreshKeysIgnored) {
  auto monitor = MakeMonitor();
  OriginServer server(&registry_, &repository_, monitor.get());
  http::Request request = Get("/hello");
  request.headers.Add(bem::kRefreshHeader, "zz,,1ffffffffffffffff");
  EXPECT_EQ(server.Handle(request).status_code, 200);
  EXPECT_EQ(server.stats().refresh_invalidations, 0u);
}

TEST_F(OriginServerTest, HeaderPaddingReachesTarget) {
  OriginOptions options;
  options.pad_headers_to_bytes = 500;
  OriginServer server(&registry_, &repository_, nullptr, options);
  http::Response response = server.Handle(Get("/hello"));
  size_t head_size = response.SerializedSize() - response.body.size();
  EXPECT_EQ(head_size, 500u);
}

TEST_F(OriginServerTest, PaddingSkippedWhenAlreadyLarger) {
  OriginOptions options;
  options.pad_headers_to_bytes = 10;  // Impossible target.
  OriginServer server(&registry_, &repository_, nullptr, options);
  http::Response response = server.Handle(Get("/hello"));
  EXPECT_FALSE(response.headers.Has("X-Pad"));
}

}  // namespace
}  // namespace dynaprox::appserver
