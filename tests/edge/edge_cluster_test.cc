#include "edge/cluster.h"

#include <gtest/gtest.h>

#include "appserver/origin_server.h"
#include "appserver/push_engine.h"
#include "common/clock.h"
#include "edge/edge_fleet.h"
#include "net/byte_meter.h"
#include "storage/value.h"

namespace dynaprox::edge {
namespace {

// Shared-BEM edge cluster fixture: three DPC nodes with consistent-hash
// fragment ownership in front of one origin/BEM, plus an independent
// single-DPC stack (own BEM) as the correctness baseline.
class EdgeClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage::Table* quotes = repository_.GetOrCreateTable("quotes");
    quotes->Upsert("IBM", {{"price", storage::Value(100.0)}});

    registry_.RegisterOrReplace(
        "/quote", [](appserver::ScriptContext& context) {
          context.Emit("[head]");
          Status status = context.CacheableBlock(
              bem::FragmentId("quote", {{"sym", "IBM"}}),
              [](appserver::ScriptContext& ctx) {
                storage::Row row =
                    *(*ctx.repository()->GetTable("quotes"))->Get("IBM");
                ctx.DeclareDependency("quotes", "IBM");
                ctx.Emit("IBM@" +
                         storage::ValueToString(row.at("price")));
                return Status::Ok();
              });
          context.Emit("[tail]");
          return status;
        });

    // Cluster stack: one BEM + origin shared by all nodes.
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
    server_ = std::make_unique<appserver::OriginServer>(
        &registry_, &repository_, monitor_.get(), origin_options);
    engine_->AttachOrigin(server_.get());
    origin_transport_ =
        std::make_unique<net::DirectTransport>(server_->AsHandler());

    EdgeClusterOptions cluster_options;
    cluster_options.proxy.capacity = 32;
    cluster_options.proxy.clock = &clock_;
    cluster_options.peer_meter = &peer_meter_;
    cluster_ = std::make_unique<EdgeCluster>(origin_transport_.get(),
                                             cluster_options);
    for (const char* node : {"edge-1", "edge-2", "edge-3"}) {
      ASSERT_TRUE(cluster_->AddEdge(node).ok());
    }
    engine_->set_sink([this](const std::string&, bem::DpcKey key,
                             const std::string& body, MicroTime age) {
      return cluster_->ApplyPush(key, body, age);
    });

    // Baseline stack: its own BEM + origin + single DPC, same scripts and
    // repository, so directory state never crosses between the stacks.
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

  http::Request RequestFromClient(const std::string& client) {
    http::Request request;
    request.target = "/quote";
    request.headers.Add("X-Client", client);
    return request;
  }

  // A client whose affinity routes to `node`.
  std::string ClientOn(const std::string& node) {
    for (int i = 0; i < 1000; ++i) {
      std::string client = "client" + std::to_string(i);
      http::Request request = RequestFromClient(client);
      if (*cluster_->ring().Route(EdgeFleet::ClientKey(request)) == node) {
        return client;
      }
    }
    ADD_FAILURE() << "no client routes to " << node;
    return "";
  }

  // Direct store access for assertions (Get mutates hit counters, so the
  // public surface is const; the test pries it open deliberately).
  dpc::FragmentStore& StoreOf(const std::string& node) {
    return const_cast<dpc::DpcProxy*>(*cluster_->NodeProxy(node))
        ->mutable_store();
  }

  bem::DpcKey QuoteKey() {
    return *monitor_->directory().KeyOf(
        bem::FragmentId("quote", {{"sym", "IBM"}}));
  }

  SimClock clock_;
  storage::ContentRepository repository_;
  appserver::ScriptRegistry registry_;
  net::ByteMeter peer_meter_;
  std::unique_ptr<bem::BackEndMonitor> monitor_;
  std::unique_ptr<appserver::PushEngine> engine_;
  std::unique_ptr<appserver::OriginServer> server_;
  std::unique_ptr<net::DirectTransport> origin_transport_;
  std::unique_ptr<EdgeCluster> cluster_;
  std::unique_ptr<bem::BackEndMonitor> baseline_monitor_;
  std::unique_ptr<appserver::OriginServer> baseline_server_;
  std::unique_ptr<net::DirectTransport> baseline_transport_;
  std::unique_ptr<dpc::DpcProxy> baseline_;
};

TEST_F(EdgeClusterTest, ByteIdenticalToSingleDpcAcrossNodes) {
  // Clients spread across all three nodes must see exactly the bytes the
  // single-DPC baseline serves, whichever node assembles and however the
  // fragment reached it (local SET, replication, or peer fetch).
  for (int i = 0; i < 12; ++i) {
    http::Request request = RequestFromClient("c" + std::to_string(i));
    http::Response from_cluster = cluster_->Handle(request);
    http::Response from_baseline = baseline_->Handle(request);
    ASSERT_EQ(from_cluster.status_code, 200);
    ASSERT_EQ(from_baseline.status_code, 200);
    EXPECT_EQ(from_cluster.BodyText(), from_baseline.BodyText()) << i;
    EXPECT_EQ(from_cluster.BodyText(), "[head]IBM@100.00[tail]");
  }
}

TEST_F(EdgeClusterTest, PeerFetchFillsMissesWithoutOriginRecovery) {
  std::string warm_client = ClientOn("edge-1");
  ASSERT_EQ(cluster_->Handle(RequestFromClient(warm_client)).status_code,
            200);

  // A client on another node misses locally; the fragment must arrive
  // over the peer channel, not via an X-DPC-Refresh origin round trip.
  std::string cold_node;
  for (const char* node : {"edge-2", "edge-3"}) {
    std::string client = ClientOn(node);
    ASSERT_EQ(cluster_->Handle(RequestFromClient(client)).status_code, 200);
    cold_node = node;
  }
  uint64_t peer_fills = 0, recoveries = 0;
  for (const char* node : {"edge-1", "edge-2", "edge-3"}) {
    dpc::ProxyStats stats = (*cluster_->NodeProxy(node))->stats();
    peer_fills += stats.peer_fills;
    recoveries += stats.recoveries;
  }
  // The owner holds the fragment after replication, so every non-owner
  // assembly peer-fetches; nothing re-misses to the BEM.
  EXPECT_GT(peer_fills, 0u) << "cold node " << cold_node;
  EXPECT_EQ(recoveries, 0u);
  EXPECT_GT(peer_meter_.messages(), 0u);
}

TEST_F(EdgeClusterTest, ReplicationPlacesFragmentAtItsOwner) {
  std::string client = ClientOn("edge-1");
  ASSERT_EQ(cluster_->Handle(RequestFromClient(client)).status_code, 200);
  bem::DpcKey key = QuoteKey();
  std::string owner = *cluster_->OwnerOf(key);
  Result<dpc::FragmentRef> at_owner = StoreOf(owner).Get(key);
  ASSERT_TRUE(at_owner.ok()) << "owner " << owner << " missing fragment";
  EXPECT_EQ(**at_owner, "IBM@100.00");
  if (owner != "edge-1") {
    EXPECT_EQ(cluster_->stats().replications, 1u);
  }
}

TEST_F(EdgeClusterTest, SurvivesMarkDownWithZero5xx) {
  // Warm every node.
  for (const char* node : {"edge-1", "edge-2", "edge-3"}) {
    ASSERT_EQ(
        cluster_->Handle(RequestFromClient(ClientOn(node))).status_code,
        200);
  }
  ASSERT_TRUE(cluster_->MarkDown("edge-2").ok());
  // All traffic — including clients whose affinity and whose fragments
  // lived on the dead node — keeps getting correct 200s.
  for (int i = 0; i < 30; ++i) {
    http::Response response =
        cluster_->Handle(RequestFromClient("c" + std::to_string(i)));
    ASSERT_LT(response.status_code, 500) << "request " << i;
    EXPECT_EQ(response.BodyText(), "[head]IBM@100.00[tail]");
  }
  EXPECT_EQ(cluster_->stats().routing_failures, 0u);
}

TEST_F(EdgeClusterTest, ReusedSlotServesTheUpdatedQuoteOnEveryNode) {
  // Every node holds the quote's first incarnation in slot 0. Then 32
  // content-changing updates, each rendered through edge-1 only, walk the
  // quote through every slot of the 32-slot directory and back to slot 0.
  // A node that never saw those renders still holds slot 0's first
  // occupant; it must not splice it for the slot's new key.
  for (const char* node : {"edge-1", "edge-2", "edge-3"}) {
    http::Response warm = cluster_->Handle(RequestFromClient(ClientOn(node)));
    ASSERT_EQ(warm.BodyText(), "[head]IBM@100.00[tail]") << node;
  }
  ASSERT_EQ(QuoteKey(), 0u);
  storage::Table* quotes = *repository_.GetTable("quotes");
  const std::string edge_1_client = ClientOn("edge-1");
  for (int update = 1; update <= 32; ++update) {
    quotes->Upsert("IBM", {{"price", storage::Value(100.0 + update)}});
    http::Response response =
        cluster_->Handle(RequestFromClient(edge_1_client));
    ASSERT_EQ(response.status_code, 200) << "update " << update;
  }
  EXPECT_EQ(QuoteKey() % 32, 0u);  // Back in slot 0.
  for (const char* node : {"edge-1", "edge-2", "edge-3"}) {
    http::Response response =
        cluster_->Handle(RequestFromClient(ClientOn(node)));
    EXPECT_EQ(response.status_code, 200) << node;
    EXPECT_EQ(response.BodyText(), "[head]IBM@132.00[tail]") << node;
  }
}

TEST_F(EdgeClusterTest, PushedInvalidationVisibleWithoutClientMiss) {
  // Warm the cluster and build up a popularity signal.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(cluster_->Handle(RequestFromClient("hot-client")).status_code,
              200);
  }

  // Data-source update invalidates the fragment and admits it for push.
  (*repository_.GetTable("quotes"))
      ->Upsert("IBM", {{"price", storage::Value(250.0)}});
  EXPECT_EQ(engine_->scheduler().queue_depth(), 1u);

  // BEM-side drain re-renders and pushes to the owning edge. No client
  // request has touched the cluster since the invalidation.
  ASSERT_EQ(engine_->Drain(), 1u);
  EXPECT_EQ(cluster_->stats().pushes_routed, 1u);

  bem::DpcKey key = QuoteKey();  // Key of the re-rendered incarnation.
  std::string owner = *cluster_->OwnerOf(key);
  uint64_t misses_before = StoreOf(owner).stats().get_misses;
  Result<dpc::FragmentRef> pushed = StoreOf(owner).Get(key);
  ASSERT_TRUE(pushed.ok());
  EXPECT_EQ(**pushed, "IBM@250.00");

  // A client served by the owner assembles the fresh page with no store
  // miss and no origin recovery: the push arrived ahead of demand.
  dpc::ProxyStats before = (*cluster_->NodeProxy(owner))->stats();
  http::Response response =
      cluster_->Handle(RequestFromClient(ClientOn(owner)));
  EXPECT_EQ(response.BodyText(), "[head]IBM@250.00[tail]");
  dpc::ProxyStats after = (*cluster_->NodeProxy(owner))->stats();
  EXPECT_EQ(after.recoveries, before.recoveries);
  EXPECT_EQ(StoreOf(owner).stats().get_misses, misses_before);
}

TEST_F(EdgeClusterTest, MarkDownReplaysPushesToFailoverOwner) {
  const bem::DpcKey key = 5;
  ASSERT_TRUE(cluster_->ApplyPush(key, "pushed body", 0).ok());
  std::string first_owner = *cluster_->OwnerOf(key);
  ASSERT_TRUE(StoreOf(first_owner).Get(key).ok());

  clock_.AdvanceSeconds(2.0);
  ASSERT_TRUE(cluster_->MarkDown(first_owner).ok());
  std::string failover = *cluster_->OwnerOf(key);
  ASSERT_NE(failover, first_owner);

  // The replayed copy landed on the failover owner, aged by its time on
  // the dead node.
  Result<dpc::FragmentRef> replayed = StoreOf(failover).Get(key);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(**replayed, "pushed body");
  EXPECT_EQ(cluster_->stats().push_replays, 1u);
  Result<MicroTime> age =
      StoreOf(failover).AgeOf(key, clock_.NowMicros());
  ASSERT_TRUE(age.ok());
  EXPECT_EQ(*age, 2 * kMicrosPerSecond);
}

TEST_F(EdgeClusterTest, AllNodesDownIsUnavailableNot5xxStorm) {
  for (const char* node : {"edge-1", "edge-2", "edge-3"}) {
    ASSERT_TRUE(cluster_->MarkDown(node).ok());
  }
  http::Response response = cluster_->Handle(RequestFromClient("c"));
  EXPECT_EQ(response.status_code, 503);
  EXPECT_EQ(cluster_->stats().routing_failures, 1u);
  // Push routing degrades with a clean Unavailable, not a crash.
  Status push = cluster_->ApplyPush(1, "x", 0);
  EXPECT_TRUE(push.IsUnavailable()) << push.ToString();
}

}  // namespace
}  // namespace dynaprox::edge
