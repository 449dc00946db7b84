#include "stack.h"

#include <array>
#include <string>

#include "analytical/model.h"
#include "bem/protocol.h"
#include "spans.h"

namespace perfbench {
namespace {

using dynaprox::Result;
using dynaprox::Status;
namespace appserver = dynaprox::appserver;
namespace bem = dynaprox::bem;
namespace dpc = dynaprox::dpc;
namespace net = dynaprox::net;

// Why these three, and the layer each one loads, is in README.md.
constexpr std::array<Workload, 3> kWorkloads = {{
    // The paper's Table 2 site, all cacheable and never updated (h = 1):
    // per-request overhead of the two HTTP legs dominates.
    {"hot_small", 10, 4, 1000, 1.0, 1.0, 4096, 2000, 12000},
    // 256 KB pages, 40 % uncacheable, h = 0.9: moving bytes and
    // generating the uncacheable fragments dominate.
    {"large_page", 10, 16, 16384, 0.6, 0.9, 4096, 300, 1300},
    // 1,600 fragment slots over 1,024 keys, h = 0.5: the page script and
    // the BEM dominate, and most lookups miss.
    {"churn", 50, 32, 256, 1.0, 0.5, 1024, 1000, 1600},
}};

// The pool size and origin-link settings dynaprox_proxy uses by default.
constexpr int kUpstreamPoolSize = 8;

}  // namespace

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

bool BodyMatchesPage(const Workload& workload, int page,
                     std::string_view body) {
  const size_t size = static_cast<size_t>(workload.fragment_size);
  if (body.size() != size * workload.fragments_per_page) return false;
  constexpr std::string_view kSuffix = "</div>";
  for (int index = 0; index < workload.fragments_per_page; ++index) {
    // SyntheticSite's layout: slot = page * fragments + index, framed as
    // <div id="s<slot>" v="<version>">, padded with the slot's letter.
    const int slot = page * workload.fragments_per_page + index;
    std::string_view fragment = body.substr(index * size, size);
    const std::string head = "<div id=\"s" + std::to_string(slot) + "\" v=\"";
    if (!fragment.starts_with(head) || !fragment.ends_with(kSuffix)) {
      return false;
    }
    const size_t digits_end = fragment.find_first_not_of("0123456789",
                                                         head.size());
    if (digits_end == head.size() || digits_end == std::string_view::npos ||
        fragment.substr(digits_end, 2) != "\">") {
      return false;
    }
    const size_t pad_begin = digits_end + 2;
    if (pad_begin > size - kSuffix.size()) return false;
    std::string_view pad =
        fragment.substr(pad_begin, size - kSuffix.size() - pad_begin);
    if (pad.find_first_not_of(static_cast<char>('a' + slot % 26)) !=
        std::string_view::npos) {
      return false;
    }
  }
  return true;
}

Result<std::unique_ptr<Stack>> Stack::Start(const Workload& workload,
                                            uint64_t seed, bool traced) {
  std::unique_ptr<Stack> stack(new Stack());

  dynaprox::analytical::ModelParams params =
      dynaprox::analytical::ModelParams::Table2Baseline();
  params.num_pages = workload.pages;
  params.fragments_per_page = workload.fragments_per_page;
  params.fragment_size = workload.fragment_size;
  params.cacheability = workload.cacheability;
  params.hit_ratio = workload.hit_ratio;
  stack->site_ = std::make_unique<dynaprox::workload::SyntheticSite>(
      params, seed, &stack->repository_, &stack->scripts_);

  bem::BemOptions bem_options;
  bem_options.capacity = workload.capacity;
  Result<std::unique_ptr<bem::BackEndMonitor>> monitor =
      bem::BackEndMonitor::Create(bem_options);
  if (!monitor.ok()) return monitor.status();
  stack->monitor_ = std::move(*monitor);
  stack->monitor_->AttachRepository(&stack->repository_);

  if (traced) {
    Result<const appserver::ScriptFn*> page = stack->scripts_.Find("/page");
    if (!page.ok()) return page.status();
    appserver::ScriptFn script = **page;
    stack->scripts_.RegisterOrReplace("/page",
                                      TraceScript(std::move(script)));
  }

  appserver::OriginOptions origin_options;
  origin_options.pad_headers_to_bytes =
      static_cast<size_t>(params.header_size);
  origin_options.enable_status = true;
  origin_options.enable_metrics = true;
  origin_options.ingress = &stack->origin_ingress_;
  stack->origin_ = std::make_unique<appserver::OriginServer>(
      &stack->scripts_, &stack->repository_, stack->monitor_.get(),
      origin_options);
  net::Handler origin_handler = stack->origin_->AsHandler();
  if (traced) {
    origin_handler =
        TraceHandler(SpanName::kOriginHandle, std::move(origin_handler));
  }
  net::ServerLimits origin_limits;
  origin_limits.counters = &stack->origin_ingress_;
  stack->origin_server_ = std::make_unique<net::EpollServer>(
      std::move(origin_handler), /*port=*/0, /*num_workers=*/1,
      origin_limits);
  if (Status started = stack->origin_server_->Start(); !started.ok()) {
    return started;
  }

  net::PooledTransportOptions upstream_options;
  upstream_options.pool.max_connections = kUpstreamPoolSize;
  upstream_options.non_idempotent_headers = {bem::kRefreshHeader};
  auto upstream = std::make_unique<net::PooledClientTransport>(
      "127.0.0.1", stack->origin_server_->port(), upstream_options);
  stack->upstream_ = upstream.get();
  stack->metered_upstream_ = std::make_unique<net::MeteredTransport>(
      std::move(upstream), /*request_meter=*/nullptr,
      &stack->origin_responses_);
  net::Transport* origin_link = stack->metered_upstream_.get();
  if (traced) {
    stack->traced_upstream_ = TraceTransport(origin_link);
    origin_link = stack->traced_upstream_.get();
  }

  dpc::ProxyOptions proxy_options;
  proxy_options.capacity = workload.capacity;
  proxy_options.ingress = &stack->dpc_ingress_;
  proxy_options.enable_status = true;
  proxy_options.enable_metrics = true;
  proxy_options.upstream_pool = &stack->upstream_->pool();
  stack->proxy_ = std::make_unique<dpc::DpcProxy>(origin_link, proxy_options);
  net::Handler dpc_handler = stack->proxy_->AsHandler();
  if (traced) {
    dpc_handler = TraceHandler(SpanName::kDpcHandle, std::move(dpc_handler));
  }
  net::ServerLimits dpc_limits;
  dpc_limits.counters = &stack->dpc_ingress_;
  stack->dpc_server_ = std::make_unique<net::EpollServer>(
      std::move(dpc_handler), /*port=*/0, /*num_workers=*/1, dpc_limits);
  if (Status started = stack->dpc_server_->Start(); !started.ok()) {
    return started;
  }
  return stack;
}

void Stack::StopServing() {
  if (dpc_server_ != nullptr) dpc_server_->Stop();
  if (origin_server_ != nullptr) origin_server_->Stop();
}

Stack::~Stack() { StopServing(); }

}  // namespace perfbench
