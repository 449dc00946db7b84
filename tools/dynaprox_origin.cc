// dynaprox_origin: runs an origin site (application server + BEM) on a TCP
// port, serving the synthetic Table 2 site under /page?id=N. Pair with
// dynaprox_proxy and dynaprox_loadgen for a three-process deployment of
// the paper's Figure 4 testbed.
//
//   ./dynaprox_origin --port=8081 --pages=10 --fragments=4
//       --fragment-size=1000 --hit-ratio=0.8 [--no-bem] [--capacity=4096]
//       [--sweep-interval-ms=1000] [--server=threads|epoll] [--workers=4]
//       [--block-workers=0] [--block-queue=256]
//       [--metrics=true] [--access-log=PATH]
//       [--max-connections=0] [--max-inflight=0]
//       [--header-timeout=0] [--idle-timeout=0] [--write-stall-timeout=0]
//       [--max-header-bytes=0] [--max-body-bytes=0] [--drain-timeout=0]
//       [--push-min-score=0] [--push-queue-capacity=1024]
//       [--push-target-host=127.0.0.1] [--push-target-port=0]
//       [--push-drain-ms=500] [--chaos=SPEC] [--chaos-seed=42]
//
// --chaos arms deterministic fault injection at the origin's seams, e.g.
// --chaos=bem.block.generate=0.01:error,bem.push.post=0.1:error with
// --chaos-seed making runs reproducible (docs/failure-modes.md,
// "Chaos layer"). Malformed specs fail startup.
//
// --push-min-score > 0 attaches the edge-tier push engine
// (docs/edge-tier.md): invalidated fragments whose popularity *
// update-rate score clears the threshold are re-rendered off-request and
// POSTed to --push-target-host:--push-target-port (a dynaprox_proxy
// started with --enable-push) every --push-drain-ms. With no target port
// the engine still scores and exports the dynaprox_bem_push_* metrics,
// but nothing drains — useful for sizing the threshold before enabling
// delivery.
//
// The ingress limits (docs/failure-modes.md) all default to 0 = off and
// apply to whichever --server is selected: --max-connections caps
// concurrent connections, --max-inflight sheds excess concurrent
// requests with 503 + Retry-After, the three timeouts (milliseconds)
// disconnect slowloris/idle/stalled clients, the byte caps answer
// 431/413, and --drain-timeout (milliseconds) drains in-flight requests
// before shutdown.
//
// --block-workers > 0 runs independent cacheable-block miss generators of
// one page concurrently on a shared thread pool (BEM mode only; the
// assembled template is byte-identical to sequential execution).
// --block-queue bounds the pool's task queue; overflow degrades to
// inline (caller-runs) execution. See docs/threading-model.md.
//
// The metrics registry is served as JSON at /_dynaprox/status and (unless
// --metrics=false) as the Prometheus text exposition at /_dynaprox/metrics.
// --access-log=PATH appends one JSON line per request ("-" = stderr);
// lines carry the X-DPC-Request-Id the proxy forwarded, so they join the
// DPC's lines (docs/observability.md).
// Runs until EOF on stdin (or forever when stdin is closed).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <unistd.h>

#include "analytical/model.h"
#include "appserver/origin_server.h"
#include "appserver/push_engine.h"
#include "appserver/script_registry.h"
#include "bem/monitor.h"
#include "bem/protocol.h"
#include "bem/sweeper.h"
#include "common/access_log.h"
#include "common/fault_point.h"
#include "common/flags.h"
#include "common/strings.h"
#include "net/connection_pool.h"
#include "net/epoll_server.h"
#include "net/tcp.h"
#include "storage/table.h"
#include "workload/synthetic_site.h"

using namespace dynaprox;

int main(int argc, char** argv) {
  Result<Flags> flags = Flags::Parse(argc - 1, argv + 1);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }

  analytical::ModelParams params =
      analytical::ModelParams::Table2Baseline();
  Result<int64_t> port = flags->GetInt("port", 8081);
  Result<int64_t> pages = flags->GetInt("pages", params.num_pages);
  Result<int64_t> fragments =
      flags->GetInt("fragments", params.fragments_per_page);
  Result<double> fragment_size =
      flags->GetDouble("fragment-size", params.fragment_size);
  Result<double> hit_ratio = flags->GetDouble("hit-ratio", params.hit_ratio);
  Result<double> cacheability =
      flags->GetDouble("cacheability", params.cacheability);
  Result<int64_t> capacity = flags->GetInt("capacity", 4096);
  Result<int64_t> sweep_ms = flags->GetInt("sweep-interval-ms", 0);
  Result<int64_t> seed = flags->GetInt("seed", 42);
  Result<int64_t> max_connections = flags->GetInt("max-connections", 0);
  Result<int64_t> max_inflight = flags->GetInt("max-inflight", 0);
  Result<int64_t> header_timeout_ms = flags->GetInt("header-timeout", 0);
  Result<int64_t> idle_timeout_ms = flags->GetInt("idle-timeout", 0);
  Result<int64_t> write_stall_ms = flags->GetInt("write-stall-timeout", 0);
  Result<int64_t> max_header_bytes = flags->GetInt("max-header-bytes", 0);
  Result<int64_t> max_body_bytes = flags->GetInt("max-body-bytes", 0);
  Result<int64_t> drain_timeout_ms = flags->GetInt("drain-timeout", 0);
  Result<int64_t> block_workers = flags->GetInt("block-workers", 0);
  Result<int64_t> block_queue = flags->GetInt("block-queue", 256);
  Result<int64_t> push_queue_capacity =
      flags->GetInt("push-queue-capacity", 1024);
  Result<int64_t> push_target_port = flags->GetInt("push-target-port", 0);
  Result<int64_t> push_drain_ms = flags->GetInt("push-drain-ms", 500);
  Result<int64_t> chaos_seed = flags->GetInt("chaos-seed", 42);
  Result<int64_t> workers = flags->GetInt("workers", 2);
  for (const auto* r : {&port, &pages, &fragments, &capacity, &sweep_ms,
                        &seed, &max_connections, &max_inflight,
                        &header_timeout_ms, &idle_timeout_ms,
                        &write_stall_ms, &max_header_bytes, &max_body_bytes,
                        &drain_timeout_ms, &block_workers, &block_queue,
                        &push_queue_capacity, &push_target_port,
                        &push_drain_ms, &chaos_seed, &workers}) {
    if (!r->ok()) {
      std::fprintf(stderr, "%s\n", r->status().ToString().c_str());
      return 2;
    }
  }
  if (std::string chaos_spec = flags->GetString("chaos", "");
      !chaos_spec.empty()) {
    Status armed = chaos::FaultRegistry::Instance().Arm(
        chaos_spec, static_cast<uint64_t>(*chaos_seed));
    if (!armed.ok()) {
      std::fprintf(stderr, "--chaos: %s\n", armed.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "chaos armed: %s (seed %lld)\n",
                 chaos_spec.c_str(), static_cast<long long>(*chaos_seed));
  }
  Result<double> push_min_score = flags->GetDouble("push-min-score", 0.0);
  for (const auto* r :
       {&fragment_size, &hit_ratio, &cacheability, &push_min_score}) {
    if (!r->ok()) {
      std::fprintf(stderr, "%s\n", r->status().ToString().c_str());
      return 2;
    }
  }
  params.num_pages = static_cast<int>(*pages);
  params.fragments_per_page = static_cast<int>(*fragments);
  params.fragment_size = *fragment_size;
  params.hit_ratio = *hit_ratio;
  params.cacheability = *cacheability;

  storage::ContentRepository repository;
  appserver::ScriptRegistry registry;
  workload::SyntheticSite site(params, static_cast<uint64_t>(*seed),
                               &repository, &registry);

  std::unique_ptr<bem::BackEndMonitor> monitor;
  std::unique_ptr<bem::PeriodicSweeper> sweeper;
  if (!flags->GetBool("no-bem")) {
    bem::BemOptions bem_options;
    bem_options.capacity = static_cast<bem::DpcKey>(*capacity);
    Result<std::unique_ptr<bem::BackEndMonitor>> created =
        bem::BackEndMonitor::Create(bem_options);
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
      return 1;
    }
    monitor = std::move(*created);
    monitor->AttachRepository(&repository);
    if (*sweep_ms > 0) {
      sweeper = std::make_unique<bem::PeriodicSweeper>(
          monitor.get(), *sweep_ms * kMicrosPerMilli);
      sweeper->Start();
    }
  }

  std::unique_ptr<AccessLogger> access_log;
  if (std::string log_path = flags->GetString("access-log", "");
      !log_path.empty()) {
    Result<std::unique_ptr<AccessLogger>> opened =
        AccessLogger::Open(log_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 2;
    }
    access_log = std::move(*opened);
  }

  // Edge-tier push engine (docs/edge-tier.md): scores invalidations on
  // the BEM observer feed; a drain thread re-renders admitted fragments
  // and POSTs them to the target DPC's /_dynaprox/push endpoint.
  std::unique_ptr<appserver::PushEngine> push_engine;
  std::unique_ptr<net::PooledClientTransport> push_link;
  if (*push_min_score > 0 && monitor != nullptr) {
    bem::PushPolicy push_policy;
    push_policy.min_score = *push_min_score;
    push_policy.queue_capacity = static_cast<size_t>(*push_queue_capacity);
    push_engine = std::make_unique<appserver::PushEngine>(push_policy);
    monitor->SetObserver(&push_engine->scheduler());
    if (*push_target_port > 0) {
      net::PooledTransportOptions push_link_options;
      push_link_options.pool.max_connections = 2;
      push_link = std::make_unique<net::PooledClientTransport>(
          flags->GetString("push-target-host", "127.0.0.1"),
          static_cast<uint16_t>(*push_target_port), push_link_options);
      push_engine->set_sink([&push_link](const std::string&,
                                         bem::DpcKey key,
                                         const std::string& body,
                                         MicroTime age_micros) {
        http::Request push;
        push.method = "POST";
        push.target = "/_dynaprox/push";
        push.headers.Set(bem::kPushKeyHeader, ToHex(key));
        push.headers.Set(bem::kPushAgeHeader,
                         std::to_string(age_micros < 0 ? 0 : age_micros));
        push.body = body;
        Result<http::Response> response = push_link->RoundTrip(push);
        if (!response.ok()) return response.status();
        if (response->status_code != 204) {
          return Status::Internal("push refused: HTTP " +
                                  std::to_string(response->status_code));
        }
        return Status::Ok();
      });
    }
  }

  std::string server_kind = flags->GetString("server", "threads");
  const int worker_count =
      server_kind == "epoll" ? static_cast<int>(*workers) : 0;

  net::IngressCounters ingress;
  net::ServerLimits limits;
  limits.max_connections = static_cast<int>(*max_connections);
  limits.max_inflight = static_cast<int>(*max_inflight);
  limits.max_header_bytes = static_cast<size_t>(*max_header_bytes);
  limits.max_body_bytes = static_cast<size_t>(*max_body_bytes);
  limits.header_timeout_micros = *header_timeout_ms * kMicrosPerMilli;
  limits.idle_timeout_micros = *idle_timeout_ms * kMicrosPerMilli;
  limits.write_stall_micros = *write_stall_ms * kMicrosPerMilli;
  limits.counters = &ingress;
  // Multi-worker epoll: allocate the per-worker ingress slots here so the
  // origin (constructed before the server) can export the labeled series
  // and the server mirrors into them via ServerLimits.
  std::unique_ptr<net::IngressCounters[]> worker_slots;
  if (worker_count > 1) {
    worker_slots = std::make_unique<net::IngressCounters[]>(
        static_cast<size_t>(worker_count));
    limits.worker_counters = worker_slots.get();
    limits.worker_counter_count = worker_count;
  }

  appserver::OriginOptions origin_options;
  origin_options.pad_headers_to_bytes =
      static_cast<size_t>(params.header_size);
  origin_options.enable_status = true;
  origin_options.enable_metrics = flags->GetBool("metrics", true);
  origin_options.access_log = access_log.get();
  origin_options.ingress = &ingress;
  if (worker_slots != nullptr) {
    origin_options.worker_ingress = worker_slots.get();
    origin_options.worker_ingress_count = worker_count;
  }
  origin_options.block_workers = static_cast<int>(*block_workers);
  origin_options.block_queue_capacity = static_cast<size_t>(*block_queue);
  origin_options.push_engine = push_engine.get();
  appserver::OriginServer origin(&registry, &repository, monitor.get(),
                                 origin_options);

  std::atomic<bool> push_running{true};
  std::thread push_drainer;
  if (push_engine != nullptr) {
    push_engine->AttachOrigin(&origin);
    if (push_link != nullptr) {
      push_drainer = std::thread([&push_engine, &push_running,
                                  interval = *push_drain_ms] {
        while (push_running.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(interval));
          (void)push_engine->Drain();
        }
      });
    }
  }

  std::unique_ptr<net::TcpServer> thread_server;
  std::unique_ptr<net::EpollServer> epoll_server;
  uint16_t bound_port = 0;
  if (server_kind == "epoll") {
    epoll_server = std::make_unique<net::EpollServer>(
        origin.AsHandler(), static_cast<uint16_t>(*port),
        static_cast<int>(*workers), limits);
    Status started = epoll_server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    bound_port = epoll_server->port();
    if (epoll_server->worker_count() > 1) {
      std::printf("epoll workers: %d (%s)\n", epoll_server->worker_count(),
                  epoll_server->reuseport_sharded()
                      ? "SO_REUSEPORT sharded listeners"
                      : "shared listener fallback");
    }
  } else if (server_kind == "threads") {
    thread_server = std::make_unique<net::TcpServer>(
        origin.AsHandler(), static_cast<uint16_t>(*port), limits);
    Status started = thread_server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    bound_port = thread_server->port();
  } else {
    std::fprintf(stderr, "unknown --server '%s' (threads|epoll)\n",
                 server_kind.c_str());
    return 2;
  }
  std::printf("origin listening on 127.0.0.1:%u (%s, %s server, %d pages "
              "x %d fragments of %.0fB)\n",
              bound_port, monitor ? "BEM enabled" : "no-cache baseline",
              server_kind.c_str(), params.num_pages,
              params.fragments_per_page, params.fragment_size);
  if (push_engine != nullptr) {
    std::printf("push engine on: min-score %.1f, %s\n", *push_min_score,
                push_link != nullptr ? "draining to target DPC"
                                     : "scoring only (no target)");
  }
  std::fflush(stdout);

  // Serve until stdin closes (Ctrl-D or pipe end).
  char buf[256];
  while (::read(STDIN_FILENO, buf, sizeof(buf)) > 0) {
  }
  push_running.store(false, std::memory_order_relaxed);
  if (push_drainer.joinable()) push_drainer.join();
  const MicroTime drain_micros = *drain_timeout_ms * kMicrosPerMilli;
  if (thread_server != nullptr) thread_server->Stop(drain_micros);
  if (epoll_server != nullptr) epoll_server->Stop(drain_micros);
  appserver::OriginStats stats = origin.stats();
  std::printf("served %llu requests (%llu hits, %llu misses, %llu refresh "
              "invalidations)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.fragment_hits),
              static_cast<unsigned long long>(stats.fragment_misses),
              static_cast<unsigned long long>(stats.refresh_invalidations));
  if (push_engine != nullptr) {
    appserver::PushEngineStats push_stats = push_engine->stats();
    bem::PushSchedulerStats sched_stats =
        push_engine->scheduler().stats();
    std::printf(
        "push: %llu enqueued, %llu skipped cold, %llu dropped, %llu "
        "pushed, %llu failures\n",
        static_cast<unsigned long long>(sched_stats.enqueued),
        static_cast<unsigned long long>(sched_stats.skipped_cold),
        static_cast<unsigned long long>(sched_stats.dropped),
        static_cast<unsigned long long>(push_stats.pushed),
        static_cast<unsigned long long>(push_stats.push_failures));
  }
  std::printf(
      "ingress: %llu accepted, %llu conn-limit rejections, %llu shed "
      "503s, %llu header timeouts, %llu idle timeouts, %llu oversize "
      "(431+413), %llu drained\n",
      static_cast<unsigned long long>(ingress.accepted_total.load()),
      static_cast<unsigned long long>(
          ingress.connection_limit_rejections.load()),
      static_cast<unsigned long long>(ingress.shed_503s.load()),
      static_cast<unsigned long long>(ingress.header_timeouts.load()),
      static_cast<unsigned long long>(ingress.idle_timeouts.load()),
      static_cast<unsigned long long>(ingress.oversize_headers.load() +
                                      ingress.oversize_bodies.load()),
      static_cast<unsigned long long>(ingress.drained_connections.load()));
  return 0;
}
