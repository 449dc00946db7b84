#ifndef DYNAPROX_EDGE_CLUSTER_H_
#define DYNAPROX_EDGE_CLUSTER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "dpc/proxy.h"
#include "edge/hash_ring.h"
#include "net/byte_meter.h"
#include "net/transport.h"

namespace dynaprox::edge {

struct EdgeClusterOptions {
  // Base options for every node's DPC. The cluster overrides the
  // edge-tier hooks per node (miss_resolver, on_sets, enable_push);
  // everything else is taken as-is. `capacity` must equal the shared
  // BEM's capacity, exactly as for a single DPC.
  dpc::ProxyOptions proxy;
  int ring_vnodes = 40;
  // GET misses consult the fragment's ring owner before falling back to
  // the origin refresh round trip.
  bool peer_fetch = true;
  // After a page assembles, copy each SET fragment to its ring owner so
  // the owner can answer future peer fetches.
  bool replicate_sets = true;
  // Recent control-channel pushes kept per cluster for failover replay:
  // when a node is marked down, pushes that landed there are re-sent to
  // the failover owner. Bounded; oldest entries fall off.
  size_t replay_capacity = 256;
  // Accounts every peer-channel and control-channel message (both
  // directions share the meter); null disables accounting.
  net::ByteMeter* peer_meter = nullptr;
};

struct ClusterStats {
  uint64_t requests = 0;
  uint64_t routing_failures = 0;    // No live node for a client request.
  uint64_t pushes_routed = 0;       // BEM pushes delivered to an owner.
  uint64_t push_route_failures = 0; // BEM pushes with no routable owner.
  uint64_t push_replays = 0;        // Pushes re-sent after a MarkDown.
  uint64_t replications = 0;        // SET bodies copied to ring owners.
  uint64_t replication_failures = 0;
};

// A DPC edge cluster with consistent-hash *fragment* ownership
// (docs/edge-tier.md): N DpcProxy nodes share one origin (one BEM
// directory), and every dpcKey has an owner node chosen by the ring — so
// the cluster behaves as one logical fragment cache. Client requests
// still route by client affinity (any node can assemble any page); what
// the ring decides is where a fragment's bytes authoritatively live:
//
//   - A node missing a GET fragment asks the key's owner over the peer
//     channel (owner's /_dynaprox/fragment endpoint) before re-missing
//     all the way to the BEM — turning N cold caches into one warm one.
//   - Assembled SETs are replicated to their owners, so ownership holds
//     no matter which node's client populated the fragment first.
//   - BEM-initiated pushes (appserver::PushEngine) enter at ApplyPush,
//     which routes the body to the owning node's push endpoint.
//
// This is a deliberate departure from the paper's "no control messages"
// stance; docs/edge-tier.md states the trade and the failure semantics.
// Node death re-shards ownership via MarkDown (ring walk) and replays
// recent pushes that landed on the dead node to their failover owners.
//
// Thread-safe with the same discipline as EdgeFleet: membership changes
// at setup, MarkDown/MarkUp and Handle may race; node proxies are never
// removed once added.
class EdgeCluster {
 public:
  // `origin` carries template traffic to the shared origin site and must
  // outlive the cluster.
  EdgeCluster(net::Transport* origin, EdgeClusterOptions options);

  // Adds a node to the ring and builds its DPC with the cluster hooks.
  Status AddEdge(const std::string& node);

  // Marks a node down, re-routing both its clients and its fragments,
  // then replays its recently pushed fragments to the failover owners.
  Status MarkDown(const std::string& node);
  Status MarkUp(const std::string& node);

  // Serves one client request through the affinity-routed node's DPC.
  http::Response Handle(const http::Request& request);
  net::Handler AsHandler();

  // Control-channel entry for BEM-initiated pushes: routes `body` to the
  // key's owning node and records it for failover replay. Matches
  // appserver::PushEngine::PushSink modulo the unused canonical.
  Status ApplyPush(bem::DpcKey key, const std::string& body,
                   MicroTime age_micros);

  // Ring namespace for fragment ownership ("k:<hex key>"), distinct from
  // the client-affinity namespace so the two route independently.
  static std::string OwnerKey(bem::DpcKey key);
  // The node currently owning `key`'s fragment.
  Result<std::string> OwnerOf(bem::DpcKey key) const;

  Result<const dpc::DpcProxy*> NodeProxy(const std::string& node) const;
  const HashRing& ring() const { return ring_; }
  ClusterStats stats() const;
  // Cluster-level metrics (dynaprox_edge_cluster_*); each node's DPC
  // additionally exposes its own registry.
  const metrics::Registry& metrics_registry() const { return registry_mx_; }

 private:
  struct Node {
    std::unique_ptr<dpc::DpcProxy> proxy;
    // In-process HTTP channel into this node's DPC, metered so peer and
    // control traffic shows up in the byte accounting.
    std::unique_ptr<net::Transport> channel;
  };
  struct ReplayEntry {
    bem::DpcKey key;
    dpc::FragmentRef body;
    MicroTime age_micros;   // Age when originally pushed.
    MicroTime pushed_at;    // For age adjustment at replay time.
    std::string owner;      // Node the push landed on.
  };

  // Peer-fetch hook for `self`'s DPC: fetch `key` from its ring owner and
  // store it locally (age preserved). NotFound when self owns the key or
  // the owner doesn't have it — the DPC then falls back to origin
  // recovery.
  Result<dpc::FragmentRef> PeerFetch(const std::string& self,
                                     bem::DpcKey key);
  // Replication hook for `self`'s DPC: copy each freshly SET fragment to
  // its ring owner's push endpoint.
  void ReplicateSets(const std::string& self,
                     const std::vector<bem::DpcKey>& keys);
  // Sends one push message to `node`'s push endpoint.
  Status SendPush(const std::string& node, bem::DpcKey key,
                  const std::string& body, MicroTime age_micros);

  net::Transport* origin_;
  EdgeClusterOptions options_;
  const Clock* clock_;
  metrics::Registry registry_mx_;

  // Same locking discipline as EdgeFleet: routing state under mu_,
  // serving outside it (nodes are never removed once added).
  mutable std::mutex mu_;
  HashRing ring_;
  std::map<std::string, Node> nodes_;
  std::deque<ReplayEntry> replay_;
  ClusterStats stats_;
};

}  // namespace dynaprox::edge

#endif  // DYNAPROX_EDGE_CLUSTER_H_
