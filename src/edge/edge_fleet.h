#ifndef DYNAPROX_EDGE_EDGE_FLEET_H_
#define DYNAPROX_EDGE_EDGE_FLEET_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "dpc/proxy.h"
#include "edge/edge_origin.h"
#include "edge/hash_ring.h"
#include "net/transport.h"

namespace dynaprox::edge {

// Transport decorator that stamps a fixed header field on every request —
// used so each edge node identifies itself to the origin.
class HeaderStampTransport : public net::Transport {
 public:
  HeaderStampTransport(net::Transport* inner, std::string name,
                       std::string value)
      : inner_(inner), name_(std::move(name)), value_(std::move(value)) {}

  Result<net::StreamingResponse> RoundTripStreaming(
      const http::Request& request) override {
    http::Request stamped = request;
    stamped.headers.Set(name_, value_);
    return inner_->RoundTripStreaming(stamped);
  }

 private:
  net::Transport* inner_;
  std::string name_;
  std::string value_;
};

struct EdgeFleetOptions {
  dpc::ProxyOptions proxy_options;
  int ring_vnodes = 40;
};

struct FleetStats {
  uint64_t requests = 0;
  uint64_t routing_failures = 0;
};

// A fleet of forward-proxy DPC nodes (paper Section 7): clients are routed
// to edge nodes by consistent hashing on a client affinity key, each node
// runs a full DPC, and the origin (an EdgeOrigin) keeps one directory per
// node. Node failure is handled by marking the node down — the ring walks
// to the next node, whose directory at the origin is coherent for *it*, so
// correctness is preserved (at the cost of cold-start misses).
class EdgeFleet {
 public:
  // `origin` carries requests to an EdgeOrigin handler and must outlive
  // the fleet.
  EdgeFleet(net::Transport* origin, EdgeFleetOptions options);

  // Adds a node to the ring and builds its DPC.
  Status AddNode(const std::string& node);

  Status MarkDown(const std::string& node);
  Status MarkUp(const std::string& node);

  // Serves one client request through the routed node's DPC.
  http::Response Handle(const http::Request& request);
  net::Handler AsHandler();

  // Affinity key: "X-Client" header if present, else the session id, else
  // the request path (so anonymous traffic is spread by page).
  static std::string ClientKey(const http::Request& request);

  // The node `request` would route to.
  Result<std::string> RouteFor(const http::Request& request) const;

  Result<const dpc::DpcProxy*> NodeProxy(const std::string& node) const;
  const HashRing& ring() const { return ring_; }
  FleetStats stats() const;

 private:
  struct Node {
    std::unique_ptr<HeaderStampTransport> upstream;
    std::unique_ptr<dpc::DpcProxy> proxy;
  };

  net::Transport* origin_;
  EdgeFleetOptions options_;
  // Ring membership (AddNode) happens at setup; MarkDown/MarkUp and Handle
  // may race, so routing state is guarded.
  mutable std::mutex mu_;
  HashRing ring_;
  std::map<std::string, Node> nodes_;
  FleetStats stats_;
};

}  // namespace dynaprox::edge

#endif  // DYNAPROX_EDGE_EDGE_FLEET_H_
