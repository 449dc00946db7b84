#include "edge/edge_fleet.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "edge/edge_origin.h"
#include "storage/value.h"

namespace dynaprox::edge {
namespace {

// End-to-end forward-proxy fixture: two edge DPCs in front of one
// EdgeOrigin serving a script with a cacheable fragment backed by the
// repository.
class EdgeFleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage::Table* quotes = repository_.GetOrCreateTable("quotes");
    quotes->Upsert("IBM", {{"price", storage::Value(100.0)}});

    registry_.RegisterOrReplace(
        "/quote", [](appserver::ScriptContext& context) {
          return context.CacheableBlock(
              bem::FragmentId("quote", {{"sym", "IBM"}}),
              [](appserver::ScriptContext& ctx) {
                storage::Row row =
                    *(*ctx.repository()->GetTable("quotes"))->Get("IBM");
                ctx.DeclareDependency("quotes", "IBM");
                ctx.Emit("IBM@" +
                         storage::ValueToString(row.at("price")));
                return Status::Ok();
              });
        });

    bem::BemOptions bem_options;
    bem_options.capacity = 32;
    bem_options.clock = &clock_;
    origin_ = std::make_unique<EdgeOrigin>(&registry_, &repository_,
                                           bem_options);
    origin_transport_ =
        std::make_unique<net::DirectTransport>(origin_->AsHandler());

    EdgeFleetOptions fleet_options;
    fleet_options.proxy_options.capacity = 32;
    fleet_ = std::make_unique<EdgeFleet>(origin_transport_.get(),
                                         fleet_options);
    for (const char* node : {"edge-east", "edge-west"}) {
      ASSERT_TRUE(origin_->AddEdge(node).ok());
      ASSERT_TRUE(fleet_->AddNode(node).ok());
    }
  }

  http::Request RequestFromClient(const std::string& client) {
    http::Request request;
    request.target = "/quote";
    request.headers.Add("X-Client", client);
    return request;
  }

  SimClock clock_;
  storage::ContentRepository repository_;
  appserver::ScriptRegistry registry_;
  std::unique_ptr<EdgeOrigin> origin_;
  std::unique_ptr<net::DirectTransport> origin_transport_;
  std::unique_ptr<EdgeFleet> fleet_;
};

TEST_F(EdgeFleetTest, ServesThroughRoutedEdge) {
  http::Response response = fleet_->Handle(RequestFromClient("c1"));
  EXPECT_EQ(response.status_code, 200);
  EXPECT_EQ(response.BodyText(), "IBM@100.00");
  EXPECT_EQ(fleet_->stats().requests, 1u);
}

TEST_F(EdgeFleetTest, ClientAffinityIsStable) {
  std::string node = *fleet_->RouteFor(RequestFromClient("c1"));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(*fleet_->RouteFor(RequestFromClient("c1")), node);
  }
}

TEST_F(EdgeFleetTest, PerEdgeDirectoriesAreIndependent) {
  // Find clients that land on different edges.
  std::string c_east, c_west;
  for (int i = 0; i < 200 && (c_east.empty() || c_west.empty()); ++i) {
    std::string client = "client" + std::to_string(i);
    std::string node = *fleet_->RouteFor(RequestFromClient(client));
    if (node == "edge-east" && c_east.empty()) c_east = client;
    if (node == "edge-west" && c_west.empty()) c_west = client;
  }
  ASSERT_FALSE(c_east.empty());
  ASSERT_FALSE(c_west.empty());

  // Same fragment requested via both edges: each edge misses once (its own
  // directory) and then hits.
  fleet_->Handle(RequestFromClient(c_east));
  fleet_->Handle(RequestFromClient(c_west));
  fleet_->Handle(RequestFromClient(c_east));
  fleet_->Handle(RequestFromClient(c_west));

  const bem::BackEndMonitor* east = *origin_->MonitorFor("edge-east");
  const bem::BackEndMonitor* west = *origin_->MonitorFor("edge-west");
  EXPECT_EQ(east->stats().misses, 1u);
  EXPECT_EQ(east->stats().hits, 1u);
  EXPECT_EQ(west->stats().misses, 1u);
  EXPECT_EQ(west->stats().hits, 1u);
}

TEST_F(EdgeFleetTest, DataUpdateInvalidatesAllEdges) {
  // Warm both edges.
  std::string c_east, c_west;
  for (int i = 0; i < 200 && (c_east.empty() || c_west.empty()); ++i) {
    std::string client = "client" + std::to_string(i);
    std::string node = *fleet_->RouteFor(RequestFromClient(client));
    if (node == "edge-east" && c_east.empty()) c_east = client;
    if (node == "edge-west" && c_west.empty()) c_west = client;
  }
  http::Response before = fleet_->Handle(RequestFromClient(c_east));
  fleet_->Handle(RequestFromClient(c_west));
  EXPECT_EQ(before.BodyText(), "IBM@100.00");

  // Price change: the update bus fans the invalidation to every edge
  // directory, so both edges serve the fresh value.
  (*repository_.GetTable("quotes"))
      ->Upsert("IBM", {{"price", storage::Value(250.0)}});
  EXPECT_EQ(fleet_->Handle(RequestFromClient(c_east)).BodyText(), "IBM@250.00");
  EXPECT_EQ(fleet_->Handle(RequestFromClient(c_west)).BodyText(), "IBM@250.00");
}

TEST_F(EdgeFleetTest, FailoverServesCorrectContent) {
  http::Request request = RequestFromClient("c-fail");
  std::string primary = *fleet_->RouteFor(request);
  EXPECT_EQ(fleet_->Handle(request).BodyText(), "IBM@100.00");

  ASSERT_TRUE(fleet_->MarkDown(primary).ok());
  std::string backup = *fleet_->RouteFor(request);
  EXPECT_NE(backup, primary);
  // The backup edge has a cold DPC for this client but its own directory
  // at the origin, so the page is still correct.
  EXPECT_EQ(fleet_->Handle(request).BodyText(), "IBM@100.00");

  ASSERT_TRUE(fleet_->MarkUp(primary).ok());
  EXPECT_EQ(*fleet_->RouteFor(request), primary);
}

TEST_F(EdgeFleetTest, AllEdgesDownIs503) {
  ASSERT_TRUE(fleet_->MarkDown("edge-east").ok());
  ASSERT_TRUE(fleet_->MarkDown("edge-west").ok());
  http::Response response = fleet_->Handle(RequestFromClient("c"));
  EXPECT_EQ(response.status_code, 503);
  EXPECT_EQ(fleet_->stats().routing_failures, 1u);
}

TEST_F(EdgeFleetTest, OriginRejectsUnknownEdge) {
  http::Request request;
  request.target = "/quote";
  request.headers.Add(kEdgeHeader, "edge-mars");
  EXPECT_EQ(origin_->Handle(request).status_code, 400);
  http::Request no_edge;
  no_edge.target = "/quote";
  EXPECT_EQ(origin_->Handle(no_edge).status_code, 400);
}

TEST_F(EdgeFleetTest, ClientKeyFallbacks) {
  http::Request with_sid;
  with_sid.target = "/quote?sid=s42";
  EXPECT_EQ(EdgeFleet::ClientKey(with_sid), "s42");
  http::Request bare;
  bare.target = "/quote";
  EXPECT_EQ(EdgeFleet::ClientKey(bare), "/quote");
}

// An inner transport whose 300-byte body arrives in three 100-byte chunks;
// it keeps the last request it saw.
class ThreeChunkTransport : public net::Transport {
 public:
  Result<net::StreamingResponse> RoundTripStreaming(
      const http::Request& request) override {
    last_request = request;
    class Body : public http::BodyStream {
     public:
      Result<common::BufferChain> Next() override {
        common::BufferChain out;
        if (left_-- > 0) out.AppendCopy(std::string(100, 'c'));
        return out;
      }

     private:
      int left_ = 3;
    };
    net::StreamingResponse streaming;
    streaming.head = http::Response::MakeOk("");
    streaming.body = std::make_unique<Body>();
    return streaming;
  }

  http::Request last_request;
};

// The stamp forwards the inner stream: the caller pulls the body in the
// inner transport's three chunks, not as one buffered chunk.
TEST(HeaderStampTransportTest, ForwardsTheInnerStreamChunkByChunk) {
  ThreeChunkTransport inner;
  HeaderStampTransport stamp(&inner, kEdgeHeader, "edge-east");
  Result<net::StreamingResponse> response =
      stamp.RoundTripStreaming(http::Request{});
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(inner.last_request.headers.Get(kEdgeHeader), "edge-east");
  std::vector<size_t> pulls;
  for (;;) {
    Result<common::BufferChain> chunk = response->body->Next();
    ASSERT_TRUE(chunk.ok());
    if (chunk->empty()) break;
    pulls.push_back(chunk->size());
  }
  EXPECT_EQ(pulls, (std::vector<size_t>{100, 100, 100}));
}

}  // namespace
}  // namespace dynaprox::edge
