// Whole-vs-streamed equivalence, full stack: the DPC serves every page
// through one pipeline, whole when the template arrived complete and as a
// committed chunked stream while template bytes are still in flight. The
// same appserver workload fetched both ways must produce byte-identical
// pages on every request — warm, after the streaming proxy's cache is
// wiped (every fragment then recovers inline, mid-stream), and after a
// content update. Each proxy gets its own origin stack (own BEM monitor)
// so the SET/GET handshakes are symmetric.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "appserver/origin_server.h"
#include "appserver/script_registry.h"
#include "bem/monitor.h"
#include "common/clock.h"
#include "dpc/proxy.h"
#include "net/connection_pool.h"
#include "net/tcp.h"
#include "storage/table.h"
#include "storage/value.h"

namespace dynaprox {
namespace {

// Re-frames a whole origin body as three chunks and holds the second and
// third until `released` returns true, so the DPC sees template bytes
// still in flight by construction, however slowly it runs. Every page
// opens with literal text and the first chunk is at least a third of the
// template, so the DPC can commit on the first chunk alone. A hold that
// outlasts kHoldLimit fails the test and releases the chunks.
class PacedChunks : public http::BodyStream {
 public:
  static constexpr auto kHoldLimit = std::chrono::seconds(10);

  PacedChunks(std::string body, std::function<bool()> released)
      : body_(std::move(body)), released_(std::move(released)) {
    step_ = std::max<size_t>(1, (body_.size() + 2) / 3);
  }

  Result<common::BufferChain> Next() override {
    common::BufferChain out;
    if (at_ >= body_.size()) return out;
    if (at_ > 0 && released_ != nullptr) {
      auto deadline = std::chrono::steady_clock::now() + kHoldLimit;
      while (!released_()) {
        if (std::chrono::steady_clock::now() >= deadline) {
          ADD_FAILURE() << "the DPC did not commit a stream within 10 s of "
                           "the template's first chunk";
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      released_ = nullptr;
    }
    out.AppendCopy(std::string_view(body_).substr(at_, step_));
    at_ += step_;
    return out;
  }

 private:
  std::string body_;
  std::function<bool()> released_;
  size_t step_ = 1;
  size_t at_ = 0;
};

// One origin (own BEM) and one DPC. `streamed`: the origin sits behind a
// TcpServer that sends every body in chunks, holding the rest of a
// fetch's template until the DPC has committed that fetch's stream; it is
// reached over a pooled upstream, and clients fetch through the DPC's own
// TcpServer. Otherwise the DPC reaches the origin in process and every
// page arrives whole.
struct Stack {
  Stack(appserver::ScriptRegistry* registry,
        storage::ContentRepository* repository, SimClock* clock,
        bool streamed) {
    bem::BemOptions bem_options;
    bem_options.capacity = 64;
    bem_options.clock = clock;
    monitor = *bem::BackEndMonitor::Create(bem_options);
    monitor->AttachRepository(repository);
    origin = std::make_unique<appserver::OriginServer>(registry, repository,
                                                       monitor.get());
    dpc::ProxyOptions proxy_options;
    proxy_options.capacity = 64;
    if (!streamed) {
      upstream = std::make_unique<net::DirectTransport>(origin->AsHandler());
      proxy = std::make_unique<dpc::DpcProxy>(upstream.get(), proxy_options);
      return;
    }
    origin_server = std::make_unique<net::TcpServer>(
        [this](const http::Request& request) {
          http::Response response = origin->Handle(request);
          // A refresh round trip inside a committed stream is released at
          // once: the fetch's commit has already been counted.
          response.body_stream = std::make_shared<PacedChunks>(
              response.BodyText(), [this] {
                return proxy->stats().streamed >= commit_target.load();
              });
          response.body.clear();
          response.body_chain.Clear();
          return response;
        });
    if (!origin_server->Start().ok()) abort();
    net::PooledTransportOptions pool_options;
    pool_options.pool.max_connections = 2;
    upstream = std::make_unique<net::PooledClientTransport>(
        "127.0.0.1", origin_server->port(), pool_options);
    proxy = std::make_unique<dpc::DpcProxy>(upstream.get(), proxy_options);
    front = std::make_unique<net::TcpServer>(proxy->AsHandler());
    if (!front->Start().ok()) abort();
    client = std::make_unique<net::PooledClientTransport>("127.0.0.1",
                                                          front->port());
  }

  ~Stack() {
    if (front != nullptr) front->Stop();
    if (origin_server != nullptr) origin_server->Stop();
  }

  std::string Fetch(const std::string& target) {
    http::Request request;
    request.target = target;
    if (client == nullptr) {
      http::Response response = proxy->Handle(request);
      if (response.body_stream != nullptr) return "<unexpected stream>";
      return response.BodyText();
    }
    commit_target = proxy->stats().streamed + 1;
    Result<http::Response> response = client->RoundTrip(request);
    if (!response.ok()) return "<transport error>";
    return std::string(response->body);
  }

  std::unique_ptr<bem::BackEndMonitor> monitor;
  std::unique_ptr<appserver::OriginServer> origin;
  std::unique_ptr<net::TcpServer> origin_server;
  std::unique_ptr<net::Transport> upstream;
  std::unique_ptr<dpc::DpcProxy> proxy;
  std::unique_ptr<net::TcpServer> front;
  std::unique_ptr<net::PooledClientTransport> client;
  // The DPC's streamed count once the current fetch has committed.
  std::atomic<uint64_t> commit_target{0};
};

class StreamingEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage::Table* news = repository_.GetOrCreateTable("news");
    news->Upsert("n1", {{"text", storage::Value(std::string(
                                     "Streaming ships today"))}});

    // Three pages sharing fragments: "headlines" appears on two of them,
    // and /big pads its layout past one socket read.
    registry_.RegisterOrReplace(
        "/home", [](appserver::ScriptContext& context) {
          context.Emit("<html><h1>Home</h1>");
          Status status = context.CacheableBlock(
              bem::FragmentId("headlines"),
              [](appserver::ScriptContext& ctx) {
                auto news_table = ctx.repository()->GetTable("news");
                storage::Row row = *(*news_table)->Get("n1");
                ctx.DeclareDependency("news");
                ctx.Emit("<ul><li>" + storage::GetString(row, "text") +
                         "</li></ul>");
                return Status::Ok();
              });
          if (!status.ok()) return status;
          status = context.CacheableBlock(
              bem::FragmentId("promo"), [](appserver::ScriptContext& ctx) {
                ctx.Emit("<p>Deal of the day</p>");
                return Status::Ok();
              });
          if (!status.ok()) return status;
          context.Emit("</html>");
          return Status::Ok();
        });
    registry_.RegisterOrReplace(
        "/news", [](appserver::ScriptContext& context) {
          context.Emit("<html><h1>News</h1>");
          Status status = context.CacheableBlock(
              bem::FragmentId("headlines"),
              [](appserver::ScriptContext& ctx) {
                auto news_table = ctx.repository()->GetTable("news");
                storage::Row row = *(*news_table)->Get("n1");
                ctx.DeclareDependency("news");
                ctx.Emit("<ul><li>" + storage::GetString(row, "text") +
                         "</li></ul>");
                return Status::Ok();
              });
          if (!status.ok()) return status;
          context.Emit("<footer>fin</footer></html>");
          return Status::Ok();
        });
    registry_.RegisterOrReplace(
        "/big", [](appserver::ScriptContext& context) {
          context.Emit("<html>" + std::string(32 * 1024, 'b'));
          Status status = context.CacheableBlock(
              bem::FragmentId("promo"), [](appserver::ScriptContext& ctx) {
                ctx.Emit("<p>Deal of the day</p>");
                return Status::Ok();
              });
          if (!status.ok()) return status;
          context.Emit(std::string(32 * 1024, 'e') + "</html>");
          return Status::Ok();
        });

    whole_ = std::make_unique<Stack>(&registry_, &repository_, &clock_,
                                     /*streamed=*/false);
    streamed_ = std::make_unique<Stack>(&registry_, &repository_, &clock_,
                                        /*streamed=*/true);
  }

  // Fetches every page twice from both stacks; each streamed fetch must
  // commit a stream and match the whole page byte for byte.
  void ExpectWorkloadIdentical(const char* label) {
    for (int round = 0; round < 2; ++round) {
      for (const std::string& target : {std::string("/home"),
                                        std::string("/news"),
                                        std::string("/big")}) {
        std::string expected = whole_->Fetch(target);
        ASSERT_EQ(expected.find("<html>"), 0u) << label << " " << target;
        uint64_t streamed_before = streamed_->proxy->stats().streamed;
        EXPECT_EQ(streamed_->Fetch(target), expected)
            << label << " round=" << round << " target=" << target;
        EXPECT_EQ(streamed_->proxy->stats().streamed, streamed_before + 1)
            << label << " " << target;
      }
    }
    EXPECT_EQ(whole_->proxy->stats().streamed, 0u);
    EXPECT_EQ(streamed_->proxy->stats().stream_aborts, 0u);
  }

  SimClock clock_;
  storage::ContentRepository repository_;
  appserver::ScriptRegistry registry_;
  std::unique_ptr<Stack> whole_;
  std::unique_ptr<Stack> streamed_;
};

TEST_F(StreamingEquivalenceTest, WholeAndStreamedPagesAreByteIdentical) {
  ExpectWorkloadIdentical("warm-up");
  EXPECT_EQ(streamed_->proxy->stats().recoveries, 0u);

  // Wipe the streaming proxy's fragment cache only: its origin still sends
  // GET-style templates, so every fragment is a cold miss recovered inline
  // after the head has been committed — and the pages must STILL match
  // the whole ones byte for byte.
  streamed_->proxy->ClearCache();
  ExpectWorkloadIdentical("post-clear");
  EXPECT_GE(streamed_->proxy->stats().recoveries, 1u);
}

TEST_F(StreamingEquivalenceTest, ContentUpdateReachesWholeAndStreamedPages) {
  ExpectWorkloadIdentical("initial");

  // An origin-side content change rides the repository update bus into
  // both BEM monitors, invalidating the shared "headlines" fragment; both
  // stacks must converge on the new bytes, not serve stale cache.
  storage::Table* news = *repository_.GetTable("news");
  news->Upsert("n1", {{"text", storage::Value(std::string(
                                   "Second edition headline"))}});

  std::string home = whole_->Fetch("/home");
  EXPECT_NE(home.find("Second edition headline"), std::string::npos);
  EXPECT_EQ(streamed_->Fetch("/home"), home);
  ExpectWorkloadIdentical("post-update");
}

}  // namespace
}  // namespace dynaprox
