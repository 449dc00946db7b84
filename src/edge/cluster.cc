#include "edge/cluster.h"

#include <utility>

#include "bem/protocol.h"
#include "common/deadline.h"
#include "common/fault_point.h"
#include "common/logging.h"
#include "common/strings.h"
#include "edge/edge_fleet.h"
#include "net/server_limits.h"

namespace dynaprox::edge {

EdgeCluster::EdgeCluster(net::Transport* origin, EdgeClusterOptions options)
    : origin_(origin),
      options_(std::move(options)),
      clock_(options_.proxy.clock != nullptr ? options_.proxy.clock
                                             : SystemClock::Default()) {
  registry_mx_.RegisterCallbackCounter(
      "dynaprox_edge_cluster_requests_total",
      "Client requests routed through the cluster.",
      [this] { return stats().requests; });
  registry_mx_.RegisterCallbackCounter(
      "dynaprox_edge_cluster_routing_failures_total",
      "Client requests with no live node to route to (503 sent).",
      [this] { return stats().routing_failures; });
  registry_mx_.RegisterCallbackCounter(
      "dynaprox_edge_cluster_pushes_routed_total",
      "BEM control-channel pushes delivered to an owning node.",
      [this] { return stats().pushes_routed; });
  registry_mx_.RegisterCallbackCounter(
      "dynaprox_edge_cluster_push_route_failures_total",
      "BEM pushes that found no routable owner or were refused.",
      [this] { return stats().push_route_failures; });
  registry_mx_.RegisterCallbackCounter(
      "dynaprox_edge_cluster_push_replays_total",
      "Pushes re-sent to a failover owner after a node was marked down.",
      [this] { return stats().push_replays; });
  registry_mx_.RegisterCallbackCounter(
      "dynaprox_edge_cluster_replications_total",
      "Freshly SET fragments copied to their ring owners.",
      [this] { return stats().replications; });
  registry_mx_.RegisterCallbackCounter(
      "dynaprox_edge_cluster_replication_failures_total",
      "Owner copies of freshly SET fragments that failed.",
      [this] { return stats().replication_failures; });
  registry_mx_.RegisterCallbackGauge(
      "dynaprox_edge_cluster_live_nodes", "Ring nodes not marked down.",
      [this] {
        std::lock_guard<std::mutex> lock(mu_);
        return static_cast<double>(ring_.live_node_count());
      });
}

std::string EdgeCluster::OwnerKey(bem::DpcKey key) {
  return "k:" + ToHex(key);
}

Result<std::string> EdgeCluster::OwnerOf(bem::DpcKey key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.Route(OwnerKey(key));
}

Status EdgeCluster::AddEdge(const std::string& node) {
  std::lock_guard<std::mutex> lock(mu_);
  DYNAPROX_RETURN_IF_ERROR(ring_.AddNode(node, options_.ring_vnodes));
  dpc::ProxyOptions proxy_options = options_.proxy;
  proxy_options.enable_push = true;
  if (options_.peer_fetch) {
    // Node names are captured by value; the node entry is looked up at
    // call time (std::map nodes are pointer-stable and never removed).
    proxy_options.miss_resolver = [this, node](bem::DpcKey key) {
      return PeerFetch(node, key).status();
    };
  }
  if (options_.replicate_sets) {
    proxy_options.on_sets = [this,
                             node](const std::vector<bem::DpcKey>& keys) {
      ReplicateSets(node, keys);
    };
  }
  Node entry;
  entry.proxy = std::make_unique<dpc::DpcProxy>(origin_, proxy_options);
  entry.channel = std::make_unique<net::MeteredTransport>(
      std::make_unique<net::DirectTransport>(entry.proxy->AsHandler()),
      options_.peer_meter, options_.peer_meter);
  nodes_.emplace(node, std::move(entry));
  return Status::Ok();
}

http::Response EdgeCluster::Handle(const http::Request& request) {
  dpc::DpcProxy* proxy = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
    Result<std::string> node = ring_.Route(EdgeFleet::ClientKey(request));
    if (!node.ok()) {
      ++stats_.routing_failures;
      DYNAPROX_LOG(kWarning, "edge")
          << "routing failure (all nodes down): " << node.status().ToString();
      return net::MakeUnavailableResponse(
          "no live edge node: " + node.status().ToString(),
          options_.proxy.retry_after_seconds);
    }
    proxy = nodes_.at(*node).proxy.get();
  }
  // Serve outside the routing lock; node proxies are thread-safe and are
  // never removed once added.
  return proxy->Handle(request);
}

net::Handler EdgeCluster::AsHandler() {
  return [this](const http::Request& request) { return Handle(request); };
}

Result<dpc::FragmentRef> EdgeCluster::PeerFetch(const std::string& self,
                                                bem::DpcKey key) {
  // The peer hop shares the client request's end-to-end budget: once it
  // has expired, fail fast into origin recovery (which checks again and
  // degrades) instead of spending more of nothing.
  if (common::CurrentDeadline().expired()) {
    return common::DeadlineExceededError("peer fetch for " + ToHex(key));
  }
  if (Status injected =
          chaos::InjectStatus(DYNAPROX_FAULT_POINT("edge.peer_fetch"));
      !injected.ok()) {
    return injected;  // Degrades to origin recovery, like a dead peer.
  }
  net::Transport* channel = nullptr;
  dpc::DpcProxy* self_proxy = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Result<std::string> owner = ring_.Route(OwnerKey(key));
    if (!owner.ok()) return owner.status();
    if (*owner == self) {
      // This node *is* the owner and doesn't have the fragment: nothing
      // to ask a peer for; fall through to origin recovery.
      return Status::NotFound("fragment owned locally: " + ToHex(key));
    }
    channel = nodes_.at(*owner).channel.get();
    self_proxy = nodes_.at(self).proxy.get();
  }

  http::Request request;
  request.method = "GET";
  request.target = options_.proxy.fragment_path + "?key=" + ToHex(key);
  Result<http::Response> response = channel->RoundTrip(request);
  if (!response.ok()) return response.status();
  if (response->status_code != 200) {
    return Status::NotFound("owner has no fragment " + ToHex(key));
  }
  auto body = std::make_shared<const std::string>(response->BodyText());
  // Preserve the owner-reported age so the local copy never looks fresher
  // than the owner's (RFC 9111 Age semantics carried on the peer channel).
  MicroTime age = 0;
  if (auto header = response->headers.Get(bem::kPushAgeHeader);
      header.has_value()) {
    if (Result<uint64_t> parsed = ParseUint64(*header); parsed.ok()) {
      age = static_cast<MicroTime>(*parsed);
    }
  }
  DYNAPROX_RETURN_IF_ERROR(self_proxy->mutable_store().SetPushed(
      key, body, age, clock_->NowMicros()));
  return dpc::FragmentRef(body);
}

Status EdgeCluster::SendPush(const std::string& node, bem::DpcKey key,
                             const std::string& body,
                             MicroTime age_micros) {
  net::Transport* channel = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = nodes_.find(node);
    if (it == nodes_.end()) {
      return Status::NotFound("unknown node: " + node);
    }
    channel = it->second.channel.get();
  }
  http::Request request;
  request.method = "POST";
  request.target = options_.proxy.push_path;
  request.headers.Set(bem::kPushKeyHeader, ToHex(key));
  request.headers.Set(bem::kPushAgeHeader,
                      std::to_string(age_micros < 0 ? 0 : age_micros));
  request.body = body;
  Result<http::Response> response = channel->RoundTrip(request);
  if (!response.ok()) return response.status();
  if (response->status_code != 204) {
    return Status::Internal("push refused: HTTP " +
                            std::to_string(response->status_code));
  }
  return Status::Ok();
}

void EdgeCluster::ReplicateSets(const std::string& self,
                                const std::vector<bem::DpcKey>& keys) {
  for (bem::DpcKey key : keys) {
    std::string owner;
    dpc::DpcProxy* self_proxy = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Result<std::string> routed = ring_.Route(OwnerKey(key));
      if (!routed.ok()) {
        ++stats_.replication_failures;
        continue;
      }
      if (*routed == self) continue;  // Owner already holds it.
      owner = *routed;
      self_proxy = nodes_.at(self).proxy.get();
    }
    Result<dpc::FragmentRef> body = self_proxy->mutable_store().Get(key);
    if (!body.ok()) continue;  // Evicted between SET and replication.
    Status sent = SendPush(owner, key, **body, /*age_micros=*/0);
    std::lock_guard<std::mutex> lock(mu_);
    if (sent.ok()) {
      ++stats_.replications;
    } else {
      ++stats_.replication_failures;
    }
  }
}

Status EdgeCluster::ApplyPush(bem::DpcKey key, const std::string& body,
                              MicroTime age_micros) {
  std::string owner;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Result<std::string> routed = ring_.Route(OwnerKey(key));
    if (!routed.ok()) {
      ++stats_.push_route_failures;
      return routed.status();
    }
    owner = *routed;
  }
  Status sent = SendPush(owner, key, body, age_micros);
  std::lock_guard<std::mutex> lock(mu_);
  if (!sent.ok()) {
    ++stats_.push_route_failures;
    return sent;
  }
  ++stats_.pushes_routed;
  replay_.push_back(ReplayEntry{key,
                                std::make_shared<const std::string>(body),
                                age_micros, clock_->NowMicros(), owner});
  while (replay_.size() > options_.replay_capacity) replay_.pop_front();
  return Status::Ok();
}

Status EdgeCluster::MarkDown(const std::string& node) {
  std::vector<ReplayEntry*> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DYNAPROX_RETURN_IF_ERROR(ring_.MarkDown(node));
    for (ReplayEntry& entry : replay_) {
      if (entry.owner == node) orphaned.push_back(&entry);
    }
  }
  // Replay pushes that landed on the dead node to their failover owners,
  // aging each body by the time it sat on the dead node. Entries stay
  // pointer-stable: replay_ is only trimmed by ApplyPush, which cannot
  // run concurrently with membership changes in the supported usage
  // (MarkDown is an operator/failover action, pushes come from the BEM
  // drain loop — both are serialized by the caller; racing them at worst
  // re-pushes a fragment, which is idempotent).
  for (ReplayEntry* entry : orphaned) {
    std::string failover;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Result<std::string> routed = ring_.Route(OwnerKey(entry->key));
      if (!routed.ok() || *routed == node) continue;
      failover = *routed;
    }
    MicroTime now = clock_->NowMicros();
    MicroTime age = entry->age_micros + (now - entry->pushed_at);
    Status sent =
        chaos::InjectStatus(DYNAPROX_FAULT_POINT("edge.push.replay"));
    if (sent.ok()) {
      sent = SendPush(failover, entry->key, *entry->body, age);
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (sent.ok()) {
      ++stats_.push_replays;
      entry->owner = failover;
      entry->age_micros = age;
      entry->pushed_at = now;
    }
  }
  return Status::Ok();
}

Status EdgeCluster::MarkUp(const std::string& node) {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.MarkUp(node);
}

Result<const dpc::DpcProxy*> EdgeCluster::NodeProxy(
    const std::string& node) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    return Status::NotFound("unknown node: " + node);
  }
  return static_cast<const dpc::DpcProxy*>(it->second.proxy.get());
}

ClusterStats EdgeCluster::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dynaprox::edge
