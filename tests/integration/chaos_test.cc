// Chaos layer end to end (docs/failure-modes.md, "Chaos layer"): a
// 3-node edge cluster with parallel block execution and push-based
// refresh runs a seeded Zipf workload while a deterministic scheduler
// arms and disarms fault points at every seam, and four invariants are
// checked continuously:
//
//   1. Byte-identity — every clean 200 is byte-identical to the
//      fault-free oracle (an independent baseline stack).
//   2. Clean failures — everything else is an honest, classifiable
//      degradation: 502, 503 + Retry-After, stale 200 + Warning, an
//      origin 500 from an injected generator fault, or a truncated
//      chunked stream. Never a corrupt-but-complete-looking page.
//   3. Conservation — every request is classified exactly once, and
//      the tier counters agree with the client's own tally.
//   4. Recovery — once every point is disarmed, the cluster returns to
//      serving only clean 200s with no fresh recoveries.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "appserver/origin_server.h"
#include "appserver/push_engine.h"
#include "appserver/script_registry.h"
#include "bem/monitor.h"
#include "bem/protocol.h"
#include "bem/tag_codec.h"
#include "common/clock.h"
#include "common/fault_point.h"
#include "common/rng.h"
#include "common/strings.h"
#include "dpc/proxy.h"
#include "edge/cluster.h"
#include "edge/edge_fleet.h"
#include "net/byte_meter.h"
#include "net/connection_pool.h"
#include "net/tcp.h"
#include "storage/table.h"

namespace dynaprox {
namespace {

constexpr int kPages = 4;

std::string PagePath(int n) { return "/page/" + std::to_string(n); }

void RegisterPages(appserver::ScriptRegistry* registry) {
  for (int n = 0; n < kPages; ++n) {
    registry->RegisterOrReplace(
        PagePath(n), [n](appserver::ScriptContext& context) {
          context.Emit("[p" + std::to_string(n) + "]");
          Status status = context.CacheableBlock(
              bem::FragmentId("blk", {{"n", std::to_string(n)}}),
              [n](appserver::ScriptContext& ctx) {
                std::string row_key = "item-" + std::to_string(n);
                storage::Row row = *(*ctx.repository()->GetTable("items"))
                                        ->Get(row_key);
                ctx.DeclareDependency("items", row_key);
                ctx.Emit(row_key + "=" +
                         storage::ValueToString(row.at("v")));
                return Status::Ok();
              });
          context.Emit("[/p" + std::to_string(n) + "]");
          return status;
        });
  }
}

// Zipf-ish pick over [0, n): weight 1/(k+1).
int ZipfPick(Rng& rng, int n) {
  double total = 0;
  for (int k = 0; k < n; ++k) total += 1.0 / (k + 1);
  double roll = rng.NextDouble() * total;
  for (int k = 0; k < n; ++k) {
    roll -= 1.0 / (k + 1);
    if (roll <= 0) return k;
  }
  return n - 1;
}

struct Tally {
  uint64_t clean_200 = 0;
  uint64_t stale_200 = 0;   // Warning 110 attached.
  uint64_t origin_500 = 0;  // Injected generator fault, passed through.
  uint64_t error_502 = 0;
  uint64_t shed_503 = 0;  // Always with Retry-After.
  uint64_t other = 0;     // Invariant violation if ever nonzero.

  uint64_t total() const {
    return clean_200 + stale_200 + origin_500 + error_502 + shed_503 +
           other;
  }
};

// Shared-BEM 3-node edge cluster under test plus an independent
// fault-free baseline stack used as the byte-identity oracle.
class ChaosClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    chaos::FaultRegistry::Instance().DisarmAll();
    storage::Table* items = repository_.GetOrCreateTable("items");
    for (int n = 0; n < kPages; ++n) {
      items->Upsert("item-" + std::to_string(n),
                    {{"v", storage::Value(static_cast<double>(n) * 10)}});
    }
    RegisterPages(&registry_);

    bem::BemOptions bem_options;
    bem_options.capacity = 32;
    bem_options.clock = &clock_;
    monitor_ = *bem::BackEndMonitor::Create(bem_options);
    monitor_->AttachRepository(&repository_);

    bem::PushPolicy policy;
    policy.min_score = 1.0;
    engine_ = std::make_unique<appserver::PushEngine>(policy, &clock_);
    monitor_->SetObserver(&engine_->scheduler());

    appserver::OriginOptions origin_options;
    origin_options.clock = &clock_;
    origin_options.push_engine = engine_.get();
    origin_options.block_workers = 2;  // Parallel block execution.
    server_ = std::make_unique<appserver::OriginServer>(
        &registry_, &repository_, monitor_.get(), origin_options);
    engine_->AttachOrigin(server_.get());
    origin_transport_ =
        std::make_unique<net::DirectTransport>(server_->AsHandler());

    edge::EdgeClusterOptions cluster_options;
    cluster_options.proxy.capacity = 32;
    cluster_options.proxy.clock = &clock_;
    cluster_options.peer_meter = &peer_meter_;
    cluster_ = std::make_unique<edge::EdgeCluster>(origin_transport_.get(),
                                                   cluster_options);
    for (const char* node : {"edge-1", "edge-2", "edge-3"}) {
      ASSERT_TRUE(cluster_->AddEdge(node).ok());
    }
    engine_->set_sink([this](const std::string&, bem::DpcKey key,
                             const std::string& body, MicroTime age) {
      return cluster_->ApplyPush(key, body, age);
    });

    // Oracle stack: same scripts and repository, own BEM + origin +
    // proxy, and never any armed fault points (chaos arming is global,
    // so the oracle is only consulted while points are disarmed).
    baseline_monitor_ = *bem::BackEndMonitor::Create(bem_options);
    baseline_monitor_->AttachRepository(&repository_);
    appserver::OriginOptions baseline_origin_options;
    baseline_origin_options.clock = &clock_;
    baseline_server_ = std::make_unique<appserver::OriginServer>(
        &registry_, &repository_, baseline_monitor_.get(),
        baseline_origin_options);
    baseline_transport_ = std::make_unique<net::DirectTransport>(
        baseline_server_->AsHandler());
    dpc::ProxyOptions baseline_options;
    baseline_options.capacity = 32;
    baseline_options.clock = &clock_;
    baseline_ = std::make_unique<dpc::DpcProxy>(baseline_transport_.get(),
                                                baseline_options);
  }

  void TearDown() override { chaos::FaultRegistry::Instance().DisarmAll(); }

  http::Request PageRequest(int page, const std::string& client) {
    http::Request request;
    request.target = PagePath(page);
    request.headers.Add("X-Client", client);
    return request;
  }

  // Fault-free expected bytes per page, from the oracle stack. Only
  // valid while no fault points are armed (arming is process-global).
  std::vector<std::string> ComputeOracle() {
    std::vector<std::string> oracle;
    for (int n = 0; n < kPages; ++n) {
      http::Response response = baseline_->Handle(PageRequest(n, "oracle"));
      EXPECT_EQ(response.status_code, 200) << PagePath(n);
      oracle.push_back(response.BodyText());
    }
    return oracle;
  }

  // Issues one request and classifies the response against invariants
  // 1 and 2. `oracle` may be empty for a page to skip byte-identity.
  void ClassifyOne(const http::Response& response,
                   const std::string& oracle, Tally* tally) {
    switch (response.status_code) {
      case 200:
        if (response.headers.Has("Warning")) {
          ++tally->stale_200;
        } else {
          ++tally->clean_200;
          if (!oracle.empty()) {
            // Invariant 1: clean 200s are byte-identical to fault-free.
            EXPECT_EQ(response.BodyText(), oracle);
          }
        }
        break;
      case 500:
        // Injected block-generator faults surface as an origin 500
        // passed through honestly — an error page, never corrupt 200.
        ++tally->origin_500;
        break;
      case 502:
        ++tally->error_502;
        break;
      case 503:
        // Invariant 2: every 503 carries Retry-After.
        EXPECT_TRUE(response.headers.Has("Retry-After"));
        ++tally->shed_503;
        break;
      default:
        ADD_FAILURE() << "unclassifiable status "
                      << response.status_code;
        ++tally->other;
    }
  }

  // A client whose affinity routes to `node`.
  std::string ClientOn(const std::string& node) {
    for (int i = 0; i < 1000; ++i) {
      std::string client = "client" + std::to_string(i);
      http::Request request = PageRequest(0, client);
      if (*cluster_->ring().Route(edge::EdgeFleet::ClientKey(request)) ==
          node) {
        return client;
      }
    }
    ADD_FAILURE() << "no client routes to " << node;
    return "";
  }

  SimClock clock_;
  storage::ContentRepository repository_;
  appserver::ScriptRegistry registry_;
  net::ByteMeter peer_meter_;
  std::unique_ptr<bem::BackEndMonitor> monitor_;
  std::unique_ptr<appserver::PushEngine> engine_;
  std::unique_ptr<appserver::OriginServer> server_;
  std::unique_ptr<net::DirectTransport> origin_transport_;
  std::unique_ptr<edge::EdgeCluster> cluster_;
  std::unique_ptr<bem::BackEndMonitor> baseline_monitor_;
  std::unique_ptr<appserver::OriginServer> baseline_server_;
  std::unique_ptr<net::DirectTransport> baseline_transport_;
  std::unique_ptr<dpc::DpcProxy> baseline_;
};

// The storm: phases of different armed specs (including fully disarmed
// windows) over a seeded Zipf workload, then full disarm and a recovery
// check. Content stays constant through the storm so the oracle holds
// for every clean 200.
TEST_F(ChaosClusterTest, SeededChaosStormUpholdsInvariants) {
  chaos::FaultRegistry& registry = chaos::FaultRegistry::Instance();
  std::vector<std::string> oracle = ComputeOracle();

  // Phase specs rotate so every seam sees both fault pressure and quiet
  // windows; delay params are 1 ms to keep the test fast.
  const std::vector<std::string> phases = {
      "dpc.upstream=0.15:error,bem.directory.insert=0.1:error,"
      "edge.peer_fetch=0.4:error",
      "",  // Disarmed window.
      "dpc.upstream=0.1:garbage,bem.block.generate=0.15:error,"
      "bem.directory.evict=0.5:error",
      "dpc.upstream=0.05:delay-ms:1,bem.push.admit=0.5:error,"
      "bem.push.post=0.5:error,edge.peer_fetch=0.2:error",
  };

  Rng workload_rng(0xD1CEu);
  std::vector<std::string> clients;
  for (int i = 0; i < 12; ++i) {
    clients.push_back("client" + std::to_string(i));
  }

  Tally tally;
  const int kPerPhase = 150;
  for (size_t phase = 0; phase < phases.size(); ++phase) {
    ASSERT_TRUE(registry.Arm(phases[phase], /*seed=*/77 + phase).ok());
    for (int i = 0; i < kPerPhase; ++i) {
      int page = ZipfPick(workload_rng, kPages);
      const std::string& client =
          clients[workload_rng.NextBounded(clients.size())];
      http::Response response =
          cluster_->Handle(PageRequest(page, client));
      ClassifyOne(response, oracle[page], &tally);
      clock_.AdvanceMicros(500);
    }
    // Push pressure while push seams are armed: dropped pushes degrade
    // to pull, they never corrupt (checked by the continuing identity
    // assertions after the final disarm below).
    if (phase == 3) {
      repository_.GetOrCreateTable("items")->Upsert(
          "item-0", {{"v", storage::Value(111.0)}});
      engine_->Drain();
    }
  }

  // Invariant 3: conservation — one classification per request, and the
  // cluster saw exactly the client's request count.
  const uint64_t sent = phases.size() * kPerPhase;
  EXPECT_EQ(tally.total(), sent);
  EXPECT_EQ(tally.other, 0u);
  EXPECT_EQ(cluster_->stats().requests, sent);
  EXPECT_EQ(cluster_->stats().routing_failures, 0u);
  uint64_t node_requests = 0;
  for (const char* node : {"edge-1", "edge-2", "edge-3"}) {
    node_requests += (*cluster_->NodeProxy(node))->stats().requests;
  }
  EXPECT_EQ(node_requests, sent);
  // The storm actually did something: faults fired and some requests
  // still succeeded.
  EXPECT_GT(tally.clean_200, 0u);
  uint64_t fired_total = 0;
  for (const auto& [point, fired] : registry.FiredCounts()) {
    fired_total += fired;
  }
  EXPECT_GT(fired_total, 0u);

  // Invariant 4: recovery. Disarm everything; content changed above, so
  // recompute the oracle fault-free, then every request must be a clean
  // identical 200 and the second sweep must trigger no new recoveries.
  registry.DisarmAll();
  oracle = ComputeOracle();
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 60; ++i) {
      int page = ZipfPick(workload_rng, kPages);
      const std::string& client =
          clients[workload_rng.NextBounded(clients.size())];
      http::Response response =
          cluster_->Handle(PageRequest(page, client));
      ASSERT_EQ(response.status_code, 200);
      EXPECT_FALSE(response.headers.Has("Warning"));
      EXPECT_EQ(response.BodyText(), oracle[page]);
    }
    if (round == 0) {
      // Warm round done: hit ratio has recovered — the second sweep
      // must add no recoveries (cold-cache refresh round trips).
      uint64_t recoveries = 0;
      for (const char* node : {"edge-1", "edge-2", "edge-3"}) {
        recoveries += (*cluster_->NodeProxy(node))->stats().recoveries;
      }
      for (int i = 0; i < 60; ++i) {
        http::Response response = cluster_->Handle(
            PageRequest(ZipfPick(workload_rng, kPages),
                        clients[workload_rng.NextBounded(clients.size())]));
        ASSERT_EQ(response.status_code, 200);
      }
      uint64_t recoveries_after = 0;
      for (const char* node : {"edge-1", "edge-2", "edge-3"}) {
        recoveries_after +=
            (*cluster_->NodeProxy(node))->stats().recoveries;
      }
      EXPECT_EQ(recoveries_after, recoveries);
      break;
    }
  }
}

// Push replay to a failover owner keeps degrading cleanly when the
// replay link itself is faulted: the replay is skipped (entry stays
// owned by the dead node), nothing corrupts, and serving continues.
TEST_F(ChaosClusterTest, FaultedPushReplayDegradesCleanly) {
  chaos::FaultRegistry& registry = chaos::FaultRegistry::Instance();
  // Build up lookups so the fragment scores above min_score, then
  // invalidate to get a push routed (and recorded for replay).
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(cluster_->Handle(PageRequest(0, "client" + std::to_string(i)))
                  .status_code,
              200);
  }
  repository_.GetOrCreateTable("items")->Upsert(
      "item-0", {{"v", storage::Value(999.0)}});
  ASSERT_GE(engine_->Drain(), 1u);
  ASSERT_GE(cluster_->stats().pushes_routed, 1u);

  chaos::FaultPoint* replay_point =
      chaos::FaultRegistry::Instance().GetPoint("edge.push.replay");
  uint64_t fired_before = replay_point->fired();
  uint64_t replays_before = cluster_->stats().push_replays;

  ASSERT_TRUE(registry.Arm("edge.push.replay=1:error", /*seed=*/5).ok());
  // Mark down whichever node owns the pushed fragment; the replay loop
  // hits the armed point for each orphaned entry and skips the re-send.
  for (const char* node : {"edge-1", "edge-2", "edge-3"}) {
    ASSERT_TRUE(cluster_->MarkDown(node).ok());
    ASSERT_TRUE(cluster_->MarkUp(node).ok());
  }
  EXPECT_GT(replay_point->fired(), fired_before);
  EXPECT_EQ(cluster_->stats().push_replays, replays_before);

  // Replay faults never corrupt serving: disarm, and the cluster still
  // answers clean fresh pages.
  registry.DisarmAll();
  std::vector<std::string> oracle = ComputeOracle();
  for (int i = 0; i < 12; ++i) {
    http::Response response =
        cluster_->Handle(PageRequest(0, "client" + std::to_string(i)));
    ASSERT_EQ(response.status_code, 200);
    EXPECT_EQ(response.BodyText(), oracle[0]);
  }
}

// Acceptance sweep: every seam across all four layers (net, dpc, bem,
// edge) can be armed and actually fires under targeted traffic, with
// the degradation staying in the clean-failure classes.
TEST_F(ChaosClusterTest, EveryFaultPointFiresAcrossAllLayers) {
  chaos::FaultRegistry& registry = chaos::FaultRegistry::Instance();
  std::map<std::string, uint64_t> fired_before;
  auto fired = [&](const std::string& point) {
    return registry.GetPoint(point)->fired();
  };
  auto snapshot = [&](const std::string& point) {
    fired_before[point] = fired(point);
  };

  // --- net layer: a DPC over a pooled TCP upstream -----------------------
  net::TcpServer tcp_origin([](const http::Request&) {
    return http::Response::MakeOk("tcp origin page");
  });
  ASSERT_TRUE(tcp_origin.Start().ok());
  auto tcp_request = [&](const std::string& point,
                         const std::string& spec) {
    snapshot(point);
    ASSERT_TRUE(registry.Arm(spec, /*seed=*/21).ok());
    net::PooledTransportOptions pool_options;
    pool_options.pool.max_connections = 2;
    net::PooledClientTransport upstream("127.0.0.1", tcp_origin.port(),
                                        pool_options);
    dpc::ProxyOptions options;
    options.capacity = 8;
    dpc::DpcProxy proxy(&upstream, options);
    http::Request request;
    request.target = "/tcp";
    http::Response response = proxy.Handle(request);
    // Clean failure classes only; net.close (kills reuse post-response)
    // still serves 200.
    EXPECT_TRUE(response.status_code == 200 ||
                response.status_code == 502 ||
                response.status_code == 503)
        << point << " -> " << response.status_code;
    EXPECT_GT(fired(point), fired_before[point]) << point;
  };
  tcp_request("net.connect", "net.connect=1:error");
  tcp_request("net.pool.checkout", "net.pool.checkout=1:error");
  tcp_request("net.write", "net.write=1:error");
  tcp_request("net.read", "net.read=1:drop-conn");
  tcp_request("net.close", "net.close=1:drop-conn");
  tcp_origin.Stop();
  {
    // net.accept: fires in the shared AcceptGate (both server shells run
    // the same admission path); an injected fault drops the freshly
    // accepted connection before any accounting, so the client sees a
    // clean connection failure, never a half-served request.
    snapshot("net.accept");
    net::TcpServer accept_origin([](const http::Request&) {
      return http::Response::MakeOk("accepted");
    });
    ASSERT_TRUE(accept_origin.Start().ok());
    ASSERT_TRUE(registry.Arm("net.accept=1:error", /*seed=*/25).ok());
    net::PooledTransportOptions starved;
    starved.pool.io_timeout_micros = 300 * kMicrosPerMilli;
    net::PooledClientTransport client("127.0.0.1", accept_origin.port(),
                                      starved);
    http::Request request;
    EXPECT_FALSE(client.RoundTrip(request).ok());
    EXPECT_GT(fired("net.accept"), fired_before["net.accept"]);
    EXPECT_EQ(accept_origin.ingress().accepted_total.load(), 0u);
    registry.DisarmAll();
    accept_origin.Stop();
  }

  // --- dpc layer ---------------------------------------------------------
  {
    snapshot("dpc.upstream");
    ASSERT_TRUE(registry.Arm("dpc.upstream=1:error", 22).ok());
    net::DirectTransport upstream([](const http::Request&) {
      return http::Response::MakeOk("never reached");
    });
    dpc::ProxyOptions options;
    options.capacity = 8;
    dpc::DpcProxy proxy(&upstream, options);
    http::Request request;
    EXPECT_EQ(proxy.Handle(request).status_code, 502);
    EXPECT_GT(fired("dpc.upstream"), fired_before["dpc.upstream"]);
  }
  {
    // dpc.stream.chunk guards every body-chunk boundary, so it needs a
    // template whose body is still in flight: a transport whose streaming
    // path yields multiple chunks. Before commit an injected fault is the
    // clean 502 a failed upstream gets; after commit it truncates.
    class ChunkedTemplateTransport : public net::Transport {
     public:
      Result<http::Response> RoundTrip(const http::Request&) override {
        http::Response response =
            http::Response::MakeOk("<committed><tail>");
        response.headers.Set(bem::kTemplateHeader, "1");
        return response;
      }
      Result<net::StreamingResponse> RoundTripStreaming(
          const http::Request&) override {
        class Chunks : public http::BodyStream {
         public:
          Result<common::BufferChain> Next() override {
            common::BufferChain out;
            if (at_ == 0) out.AppendCopy("<committed>");
            if (at_ == 1) out.AppendCopy("<tail>");
            ++at_;
            return out;
          }

         private:
          int at_ = 0;
        };
        net::StreamingResponse streaming;
        streaming.head = http::Response::MakeOk("");
        streaming.head.headers.Set(bem::kTemplateHeader, "1");
        streaming.body = std::make_unique<Chunks>();
        return streaming;
      }
    } upstream;
    snapshot("dpc.stream.chunk");
    dpc::ProxyOptions options;
    options.capacity = 8;
    dpc::DpcProxy proxy(&upstream, options);
    http::Request request;
    ASSERT_TRUE(registry.Arm("dpc.stream.chunk=1:error", 23).ok());
    http::Response refused = proxy.Handle(request);
    EXPECT_EQ(refused.status_code, 502);
    EXPECT_EQ(refused.body_stream, nullptr);

    registry.DisarmAll();
    http::Response response = proxy.Handle(request);
    ASSERT_NE(response.body_stream, nullptr);
    ASSERT_TRUE(registry.Arm("dpc.stream.chunk=1:error", 24).ok());
    // Drain: the armed chunk seam aborts mid-body — honest truncation.
    Status drained = Status::Ok();
    for (;;) {
      Result<common::BufferChain> chunk = response.body_stream->Next();
      if (!chunk.ok()) {
        drained = chunk.status();
        break;
      }
      if (chunk->empty()) break;
    }
    EXPECT_FALSE(drained.ok());
    EXPECT_EQ(proxy.stats().stream_aborts, 1u);
    EXPECT_GT(fired("dpc.stream.chunk"), fired_before["dpc.stream.chunk"]);
  }

  // --- bem layer: the shared cluster stack -------------------------------
  auto cluster_request = [&](const std::string& point,
                             const std::string& spec, int page,
                             int expect_status) {
    snapshot(point);
    ASSERT_TRUE(registry.Arm(spec, /*seed=*/31).ok());
    http::Response response =
        cluster_->Handle(PageRequest(page, "sweep-client"));
    EXPECT_EQ(response.status_code, expect_status) << point;
    EXPECT_GT(fired(point), fired_before[point]) << point;
  };
  // Generator fault -> origin 500 passed through honestly.
  cluster_request("bem.block.generate", "bem.block.generate=1:error",
                  /*page=*/1, /*expect_status=*/500);
  // Directory insert fault -> uncacheable emit, page still correct.
  cluster_request("bem.directory.insert", "bem.directory.insert=1:error",
                  /*page=*/2, /*expect_status=*/200);
  {
    // Eviction fault: a tiny directory that must evict to admit.
    snapshot("bem.directory.evict");
    ASSERT_TRUE(registry.Arm("bem.directory.evict=1:error", 32).ok());
    bem::BemOptions small;
    small.capacity = 2;
    small.clock = &clock_;
    auto small_monitor = *bem::BackEndMonitor::Create(small);
    appserver::ScriptRegistry many;
    for (int n = 0; n < 6; ++n) {
      many.RegisterOrReplace(
          "/f" + std::to_string(n), [n](appserver::ScriptContext& context) {
            return context.CacheableBlock(
                bem::FragmentId("evict", {{"n", std::to_string(n)}}),
                [n](appserver::ScriptContext& ctx) {
                  ctx.Emit("frag" + std::to_string(n));
                  return Status::Ok();
                });
          });
    }
    appserver::OriginServer evict_origin(&many, &repository_,
                                         small_monitor.get());
    for (int n = 0; n < 6; ++n) {
      http::Request request;
      request.target = "/f" + std::to_string(n);
      // Insert beyond capacity trips EvictOne; the injected fault
      // degrades to an uncached emit — still a correct 200.
      http::Response response = evict_origin.Handle(request);
      EXPECT_EQ(response.status_code, 200);
      // Cached emits wrap the bytes in SET tags; uncached (eviction
      // faulted) emits are plain — either way the payload is intact.
      EXPECT_NE(response.BodyText().find("frag" + std::to_string(n)),
                std::string::npos);
    }
    EXPECT_GT(fired("bem.directory.evict"),
              fired_before["bem.directory.evict"]);
  }
  {
    // Push admission fault: invalidation is dropped to pull.
    snapshot("bem.push.admit");
    for (int i = 0; i < 6; ++i) {
      cluster_->Handle(PageRequest(3, "client" + std::to_string(i)));
    }
    ASSERT_TRUE(registry.Arm("bem.push.admit=1:error", 33).ok());
    repository_.GetOrCreateTable("items")->Upsert(
        "item-3", {{"v", storage::Value(42.0)}});
    EXPECT_GT(fired("bem.push.admit"), fired_before["bem.push.admit"]);
  }
  {
    // Push POST fault: drained push fails, falls back to pull.
    snapshot("bem.push.post");
    registry.DisarmAll();
    for (int i = 0; i < 6; ++i) {
      cluster_->Handle(PageRequest(3, "client" + std::to_string(i)));
    }
    ASSERT_TRUE(registry.Arm("bem.push.post=1:error", 34).ok());
    repository_.GetOrCreateTable("items")->Upsert(
        "item-3", {{"v", storage::Value(43.0)}});
    engine_->Drain();
    EXPECT_GT(fired("bem.push.post"), fired_before["bem.push.post"]);
  }

  // --- edge layer --------------------------------------------------------
  {
    // Peer fetch fault: a node that misses a fragment it does not own
    // asks the owner; the armed point degrades it to origin recovery.
    snapshot("edge.peer_fetch");
    registry.DisarmAll();
    for (const char* node : {"edge-1", "edge-2", "edge-3"}) {
      cluster_->Handle(PageRequest(2, ClientOn(node)));
    }
    ASSERT_TRUE(registry.Arm("edge.peer_fetch=1:error", 35).ok());
    repository_.GetOrCreateTable("items")->Upsert(
        "item-2", {{"v", storage::Value(44.0)}});
    for (const char* node : {"edge-1", "edge-2", "edge-3"}) {
      http::Response response =
          cluster_->Handle(PageRequest(2, ClientOn(node)));
      EXPECT_EQ(response.status_code, 200);
    }
    EXPECT_GT(fired("edge.peer_fetch"), fired_before["edge.peer_fetch"]);
  }
  // edge.push.replay is exercised by FaultedPushReplayDegradesCleanly;
  // count it here too so this sweep documents full coverage.
  registry.DisarmAll();

  // The acceptance bar: >= 10 distinct points, across all 4 layers.
  std::vector<std::string> swept = {
      "net.connect",       "net.pool.checkout",    "net.write",
      "net.read",          "net.close",            "net.accept",
      "dpc.upstream",      "dpc.stream.chunk",     "bem.block.generate",
      "bem.directory.insert", "bem.directory.evict", "bem.push.admit",
      "bem.push.post",     "edge.peer_fetch"};
  std::map<std::string, int> layers;
  int fired_points = 0;
  for (const std::string& point : swept) {
    if (registry.GetPoint(point)->fired() > 0) {
      ++fired_points;
      layers[std::string(StrSplit(point, '.')[0])]++;
    }
  }
  EXPECT_GE(fired_points, 10);
  EXPECT_EQ(layers.size(), 4u) << "net, dpc, bem, edge";
}

// Reproducibility: an identical seed over an identical deterministic
// stack (sequential origin, DirectTransport, one proxy) replays the
// identical injection log and the identical response transcript.
TEST(ChaosReproducibilityTest, SameSeedReplaysSameInjectionLog) {
  auto run = [](uint64_t seed) {
    chaos::FaultRegistry& registry = chaos::FaultRegistry::Instance();
    registry.DisarmAll();

    SimClock clock;
    storage::ContentRepository repository;
    storage::Table* items = repository.GetOrCreateTable("items");
    for (int n = 0; n < kPages; ++n) {
      items->Upsert("item-" + std::to_string(n),
                    {{"v", storage::Value(static_cast<double>(n))}});
    }
    appserver::ScriptRegistry scripts;
    RegisterPages(&scripts);
    bem::BemOptions bem_options;
    bem_options.capacity = 32;
    bem_options.clock = &clock;
    auto monitor = *bem::BackEndMonitor::Create(bem_options);
    monitor->AttachRepository(&repository);
    appserver::OriginOptions origin_options;
    origin_options.clock = &clock;  // block_workers = 0: sequential.
    appserver::OriginServer origin(&scripts, &repository, monitor.get(),
                                   origin_options);
    net::DirectTransport upstream(origin.AsHandler());
    dpc::ProxyOptions options;
    options.capacity = 32;
    options.clock = &clock;
    dpc::DpcProxy proxy(&upstream, options);

    EXPECT_TRUE(registry
                    .Arm("dpc.upstream=0.3:error,"
                         "bem.directory.insert=0.2:error,"
                         "bem.block.generate=0.2:error",
                         seed)
                    .ok());
    Rng workload(0xFEEDu);
    std::vector<int> transcript;
    for (int i = 0; i < 120; ++i) {
      http::Request request;
      request.target = PagePath(ZipfPick(workload, kPages));
      transcript.push_back(proxy.Handle(request).status_code);
    }
    std::pair<std::vector<std::string>, std::vector<int>> out = {
        registry.InjectionLog(), transcript};
    registry.DisarmAll();
    return out;
  };

  auto first = run(12345);
  auto second = run(12345);
  EXPECT_EQ(first.first, second.first);    // Injection log, entry for entry.
  EXPECT_EQ(first.second, second.second);  // Status transcript.
  EXPECT_FALSE(first.first.empty());
  // A different seed produces a different fault pattern.
  auto third = run(99999);
  EXPECT_NE(first.first, third.first);
}

}  // namespace
}  // namespace dynaprox
