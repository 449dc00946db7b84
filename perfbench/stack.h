#ifndef DYNAPROX_PERFBENCH_STACK_H_
#define DYNAPROX_PERFBENCH_STACK_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "appserver/origin_server.h"
#include "appserver/script_registry.h"
#include "bem/monitor.h"
#include "common/result.h"
#include "dpc/proxy.h"
#include "net/byte_meter.h"
#include "net/connection_pool.h"
#include "net/epoll_server.h"
#include "net/server_limits.h"
#include "net/transport.h"
#include "storage/table.h"
#include "workload/synthetic_site.h"

namespace perfbench {

// One traffic mix: the synthetic site's shape and the run sizes. README.md
// gives the reason for each workload's numbers.
struct Workload {
  const char* name;
  int pages;
  int fragments_per_page;
  int fragment_size;  // Bytes; every fragment of the site has this size.
  double cacheability;
  double hit_ratio;
  dynaprox::bem::DpcKey capacity;  // BEM directory keys == DPC slots.
  int64_t warmup_requests;
  // Requests measured per second of --seconds. A constant, so every run
  // of a workload serves the same count (peak RSS on churn grows with
  // requests served); set near this workload's rate on a 4-core host.
  int64_t requests_per_second;
};

// Null for an unknown name.
const Workload* FindWorkload(std::string_view name);

// True when `body` is exactly page `page` of the synthetic site: the
// page's length, and at each fragment's offset the fragment's framing
// with its slot id, any version, and its slot's filler bytes. A wrong or
// truncated splice fails.
bool BodyMatchesPage(const Workload& workload, int page,
                     std::string_view body);

// The whole serving stack in one process, wired the way dynaprox_origin
// and dynaprox_proxy wire it by default, except that each tier runs on an
// EpollServer with one event loop:
//
//   client --TCP--> EpollServer -> DpcProxy -> MeteredTransport
//          -> PooledClientTransport
//          --TCP--> EpollServer -> OriginServer + BackEndMonitor
//                   -> SyntheticSite's /page script
//
// The MeteredTransport counts every origin response, head and body, for
// savings_pct. With `traced`, the spans of spans.h are recorded around
// both server handlers, the upstream transport and the /page script.
class Stack {
 public:
  static dynaprox::Result<std::unique_ptr<Stack>> Start(
      const Workload& workload, uint64_t seed, bool traced);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  uint16_t port() const { return dpc_server_->port(); }

  // Stops both servers and joins their loops; the tiers stay readable.
  void StopServing();

  const dynaprox::dpc::DpcProxy& proxy() const { return *proxy_; }
  const dynaprox::appserver::OriginServer& origin() const { return *origin_; }
  const dynaprox::bem::BackEndMonitor& monitor() const { return *monitor_; }
  const dynaprox::net::ConnectionPool& pool() const {
    return upstream_->pool();
  }
  // Origin -> DPC response bytes so far, heads included.
  uint64_t origin_response_bytes() const {
    return origin_responses_.payload_bytes();
  }

 private:
  Stack() = default;

  dynaprox::storage::ContentRepository repository_;
  dynaprox::appserver::ScriptRegistry scripts_;
  std::unique_ptr<dynaprox::workload::SyntheticSite> site_;
  std::unique_ptr<dynaprox::bem::BackEndMonitor> monitor_;
  dynaprox::net::IngressCounters origin_ingress_;
  std::unique_ptr<dynaprox::appserver::OriginServer> origin_;
  std::unique_ptr<dynaprox::net::EpollServer> origin_server_;
  // Owned by metered_upstream_, which meters into origin_responses_.
  dynaprox::net::PooledClientTransport* upstream_ = nullptr;
  dynaprox::net::ByteMeter origin_responses_{
      dynaprox::net::ProtocolModel::PayloadOnly()};
  std::unique_ptr<dynaprox::net::MeteredTransport> metered_upstream_;
  std::unique_ptr<dynaprox::net::Transport> traced_upstream_;
  dynaprox::net::IngressCounters dpc_ingress_;
  std::unique_ptr<dynaprox::dpc::DpcProxy> proxy_;
  std::unique_ptr<dynaprox::net::EpollServer> dpc_server_;
};

}  // namespace perfbench

#endif  // DYNAPROX_PERFBENCH_STACK_H_
