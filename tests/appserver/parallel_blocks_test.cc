// Equivalence tests for parallel block execution: the same script rendered
// through a block pool (0, 1, or 4 workers) must produce a template
// byte-identical to sequential execution — same SET/GET choices, same
// dpcKey assignment — regardless of the order generators finish in.
#include "appserver/script_context.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "bem/protocol.h"
#include "common/clock.h"
#include "common/thread_pool.h"
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

using ScriptFn = std::function<Status(ScriptContext&)>;

// Runs `script` against a fresh context and returns the finished template.
std::string Render(bem::BackEndMonitor* monitor, common::ThreadPool* pool,
                   const ScriptFn& script,
                   RequestFragmentStats* stats_out = nullptr) {
  http::Request request;
  request.target = "/page";
  ScriptContext context(request, nullptr, monitor, nullptr, pool);
  EXPECT_TRUE(script(context).ok());
  EXPECT_TRUE(context.FinishBlocks().ok());
  http::Response response = context.TakeResponse(bem::kTemplateHeader);
  if (stats_out != nullptr) *stats_out = context.fragment_stats();
  return response.body;
}

// A four-block page with one pre-seeded hit and deliberately inverted
// generator latencies, so pool workers finish out of page order.
Status MixedPage(ScriptContext& ctx) {
  ctx.Emit("<header>");
  Status status =
      ctx.CacheableBlock(bem::FragmentId("slow"), [](ScriptContext& c) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        c.Emit("slow-content");
        c.DeclareDependency("t", "r1");
        return Status::Ok();
      });
  if (!status.ok()) return status;
  ctx.Emit("<mid1>");
  status = ctx.CacheableBlock(bem::FragmentId("hot"), [](ScriptContext& c) {
    c.Emit("hot-content");
    return Status::Ok();
  });
  if (!status.ok()) return status;
  ctx.Emit("<mid2>");
  status = ctx.CacheableBlock(bem::FragmentId("fast"), [](ScriptContext& c) {
    c.Emit("fast-content");
    return Status::Ok();
  });
  if (!status.ok()) return status;
  ctx.Emit("<mid3>");
  status = ctx.CacheableBlock(bem::FragmentId("tail"), [](ScriptContext& c) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    c.Emit("tail-content");
    return Status::Ok();
  });
  if (!status.ok()) return status;
  ctx.Emit("<footer>");
  return Status::Ok();
}

TEST(ParallelBlocksTest, ByteIdenticalToSequentialAcrossPoolSizes) {
  SimClock clock;
  // Sequential reference: no pool attached.
  auto sequential_monitor = MakeMonitor(&clock);
  ASSERT_TRUE(
      sequential_monitor->InsertFragment(bem::FragmentId("hot")).ok());
  RequestFragmentStats sequential_stats;
  std::string sequential =
      Render(sequential_monitor.get(), nullptr, MixedPage,
             &sequential_stats);
  EXPECT_EQ(sequential_stats.hits, 1u);
  EXPECT_EQ(sequential_stats.misses, 3u);

  for (int workers : {0, 1, 4}) {
    // Fresh monitor per run with the identical pre-seed, so dpcKey
    // assignment starts from the same state as the reference.
    auto monitor = MakeMonitor(&clock);
    ASSERT_TRUE(monitor->InsertFragment(bem::FragmentId("hot")).ok());
    common::ThreadPool pool(
        {.num_threads = workers, .queue_capacity = 8});
    RequestFragmentStats stats;
    std::string parallel = Render(monitor.get(), &pool, MixedPage, &stats);
    EXPECT_EQ(parallel, sequential) << "workers=" << workers;
    EXPECT_EQ(stats.hits, 1u) << "workers=" << workers;
    EXPECT_EQ(stats.misses, 3u) << "workers=" << workers;
    EXPECT_EQ(stats.parallel_blocks, 3u) << "workers=" << workers;
  }
}

TEST(ParallelBlocksTest, AssembledPagePreservesTagOrder) {
  SimClock clock;
  auto monitor = MakeMonitor(&clock);
  ASSERT_TRUE(monitor->InsertFragment(bem::FragmentId("hot")).ok());
  common::ThreadPool pool({.num_threads = 4, .queue_capacity = 8});
  std::string body = Render(monitor.get(), &pool, MixedPage);

  // The slow first block must still land first: splice order is page
  // order, not completion order.
  dpc::FragmentStore store(16);
  ASSERT_TRUE(store
                  .Set(*monitor->directory().KeyOf(bem::FragmentId("hot")),
                       "hot-content")
                  .ok());
  Result<dpc::AssembledPage> page = dpc::AssemblePage(body, store);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Text(),
            "<header>slow-content<mid1>hot-content<mid2>fast-content"
            "<mid3>tail-content<footer>");
  EXPECT_EQ(page->progress.set_count, 3u);
  EXPECT_EQ(page->progress.get_count, 1u);
}

TEST(ParallelBlocksTest, DuplicateFragmentRunsGeneratorOnceAndEmitsGet) {
  std::atomic<int> runs{0};
  auto page = [&runs](ScriptContext& ctx) {
    Status status =
        ctx.CacheableBlock(bem::FragmentId("dup"), [&runs](ScriptContext& c) {
          runs.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          c.Emit("dup-content");
          return Status::Ok();
        });
    if (!status.ok()) return status;
    ctx.Emit("<between>");
    return ctx.CacheableBlock(bem::FragmentId("dup"),
                              [&runs](ScriptContext& c) {
                                runs.fetch_add(1);
                                c.Emit("dup-content");
                                return Status::Ok();
                              });
  };

  SimClock clock;
  auto sequential_monitor = MakeMonitor(&clock);
  std::string sequential = Render(sequential_monitor.get(), nullptr, page);
  ASSERT_EQ(runs.load(), 1);  // Sequential: second occurrence hits.

  runs.store(0);
  auto monitor = MakeMonitor(&clock);
  common::ThreadPool pool({.num_threads = 4, .queue_capacity = 8});
  RequestFragmentStats stats;
  std::string parallel = Render(monitor.get(), &pool, page, &stats);
  // The duplicate must not dispatch a second generator, and the template
  // must match sequential: one SET, then a GET for the same key.
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(parallel, sequential);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.parallel_blocks, 1u);

  dpc::FragmentStore store(16);
  Result<dpc::AssembledPage> assembled = dpc::AssemblePage(parallel, store);
  ASSERT_TRUE(assembled.ok());
  EXPECT_EQ(assembled->Text(), "dup-content<between>dup-content");
  EXPECT_EQ(assembled->progress.set_count, 1u);
  EXPECT_EQ(assembled->progress.get_count, 1u);
}

TEST(ParallelBlocksTest, FailingGeneratorSurfacesFromFinishBlocks) {
  SimClock clock;
  auto monitor = MakeMonitor(&clock);
  common::ThreadPool pool({.num_threads = 4, .queue_capacity = 8});
  http::Request request;
  request.target = "/page";
  ScriptContext context(request, nullptr, monitor.get(), nullptr, &pool);

  ASSERT_TRUE(context
                  .CacheableBlock(bem::FragmentId("ok1"),
                                  [](ScriptContext& c) {
                                    c.Emit("one");
                                    return Status::Ok();
                                  })
                  .ok());
  // The miss path defers execution, so the failure cannot surface here.
  ASSERT_TRUE(context
                  .CacheableBlock(bem::FragmentId("bad"),
                                  [](ScriptContext& c) {
                                    std::this_thread::sleep_for(
                                        std::chrono::milliseconds(5));
                                    c.Emit("partial");
                                    return Status::IoError("db down");
                                  })
                  .ok());
  ASSERT_TRUE(context
                  .CacheableBlock(bem::FragmentId("ok2"),
                                  [](ScriptContext& c) {
                                    c.Emit("two");
                                    return Status::Ok();
                                  })
                  .ok());

  Status finish = context.FinishBlocks();
  EXPECT_EQ(finish.code(), StatusCode::kIoError);
  EXPECT_EQ(context.FinishBlocks().code(), StatusCode::kIoError);  // Sticky.
  // The failed block cached nothing and leaked no partial content; the
  // healthy blocks still registered.
  EXPECT_FALSE(monitor->LookupFragment(bem::FragmentId("bad")).hit());
  EXPECT_TRUE(monitor->LookupFragment(bem::FragmentId("ok1")).hit());
  EXPECT_TRUE(monitor->LookupFragment(bem::FragmentId("ok2")).hit());
  http::Response response = context.TakeResponse(bem::kTemplateHeader);
  dpc::FragmentStore store(16);
  Result<dpc::AssembledPage> page = dpc::AssemblePage(response.body, store);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Text(), "onetwo");
}

TEST(ParallelBlocksTest, ForcedMissRunsGeneratorInParallelMode) {
  SimClock clock;
  auto monitor = MakeMonitor(&clock);
  ASSERT_TRUE(monitor->InsertFragment(bem::FragmentId("f")).ok());
  common::ThreadPool pool({.num_threads = 2, .queue_capacity = 8});
  http::Request request;
  request.target = "/page";
  ScriptContext context(request, nullptr, monitor.get(), nullptr, &pool);
  context.ForceMiss(bem::FragmentId("f").Canonical());
  bool ran = false;
  ASSERT_TRUE(context
                  .CacheableBlock(bem::FragmentId("f"),
                                  [&ran](ScriptContext& c) {
                                    ran = true;
                                    c.Emit("fresh");
                                    return Status::Ok();
                                  })
                  .ok());
  ASSERT_TRUE(context.FinishBlocks().ok());
  EXPECT_TRUE(ran);
  RequestFragmentStats stats = context.fragment_stats();
  EXPECT_EQ(stats.forced_misses, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  // The refresh response must carry the content inline (SET, not GET).
  http::Response response = context.TakeResponse(bem::kTemplateHeader);
  dpc::FragmentStore store(16);
  Result<dpc::AssembledPage> page = dpc::AssemblePage(response.body, store);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Text(), "fresh");
  EXPECT_EQ(page->progress.set_count, 1u);
}

}  // namespace
}  // namespace dynaprox::appserver
