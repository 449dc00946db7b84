// dynaprox_proxy: runs a Dynamic Proxy Cache (reverse proxy) on a TCP
// port, assembling templates from an upstream dynaprox_origin. The origin
// link is a keep-alive connection pool so concurrent client requests fan
// out instead of serializing on one socket (docs/upstream-pooling.md).
//
//   ./dynaprox_proxy --port=8080 --origin-host=127.0.0.1
//       --origin-port=8081 [--capacity=4096] [--pool-size=8]
//       [--server=threads|epoll] [--workers=2]
//       [--static-cache] [--debug] [--enable-push]
//       [--breaker] [--breaker-window=32] [--breaker-error-threshold=0.5]
//       [--breaker-cooldown-ms=1000]
//       [--serve-stale] [--stale-capacity=256] [--max-stale-sec=0]
//       [--metrics=true] [--access-log=PATH]
//       [--max-connections=0] [--max-inflight=0]
//       [--header-timeout=0] [--idle-timeout=0] [--write-stall-timeout=0]
//       [--max-header-bytes=0] [--max-body-bytes=0] [--drain-timeout=0]
//       [--request-budget-ms=0] [--chaos=SPEC] [--chaos-seed=42]
//
// --request-budget-ms gives every request an end-to-end deadline budget:
// once spent, recovery retries stop and the request degrades (503 +
// Retry-After, or stale with --serve-stale) instead of stacking
// timeouts (docs/failure-modes.md, "Deadline budgets").
//
// --chaos arms deterministic fault injection at the proxy's seams, e.g.
// --chaos=net.read=0.01:error,dpc.stream.chunk=0.001:error with
// --chaos-seed making runs reproducible (docs/failure-modes.md,
// "Chaos layer"). Malformed specs fail startup.
//
// --breaker puts a circuit breaker on the origin link so a dead origin
// fast-fails instead of eating a dial timeout per request; --serve-stale
// answers failed GETs from the last assembled copy of the page
// (docs/failure-modes.md).
//
// --enable-push opens the edge-tier control surface (docs/edge-tier.md):
// POST /_dynaprox/push accepts BEM-pushed fragment bodies (pair with
// dynaprox_origin --push-min-score) and GET /_dynaprox/fragment?key=hex
// serves owned fragments to ring peers.
//
// Every response runs one scan-and-splice pipeline
// (docs/architecture.md): a page whose template arrived whole is served
// with Content-Length; one whose template is still arriving is flushed to
// the client, chunked, as it assembles.
//
// --server picks the ingress engine: "threads" (default) is the blocking
// thread-per-connection server, "epoll" the event-loop server. With
// --server=epoll and --workers > 1 the DPC runs N event-loop workers,
// each with its own SO_REUSEPORT listener when the kernel supports it
// (docs/threading-model.md); per-worker ingress counters appear as
// dynaprox_ingress_worker_*{worker=N} series (docs/observability.md).
//
// The ingress limits (docs/failure-modes.md) all default to 0 = off:
// --max-connections caps concurrent client connections, --max-inflight
// sheds excess concurrent requests with 503 + Retry-After,
// --header-timeout/--idle-timeout/--write-stall-timeout (milliseconds)
// disconnect slowloris/idle/stalled clients, --max-header-bytes and
// --max-body-bytes reject oversized requests with 431/413, and
// --drain-timeout (milliseconds) makes shutdown drain gracefully:
// accepting stops and in-flight requests finish before the listener
// closes.
//
// The metrics registry is served as JSON at /_dynaprox/status and (unless
// --metrics=false) as the Prometheus text exposition at /_dynaprox/metrics.
// --access-log=PATH appends one JSON line per proxied request ("-" =
// stderr); see docs/observability.md for the field reference.
//
// Runs until EOF on stdin.

#include <cstdio>
#include <memory>
#include <unistd.h>

#include "bem/protocol.h"
#include "common/access_log.h"
#include "common/fault_point.h"
#include "common/flags.h"
#include "dpc/proxy.h"
#include "net/circuit_breaker.h"
#include "net/connection_pool.h"
#include "net/epoll_server.h"
#include "net/tcp.h"

using namespace dynaprox;

int main(int argc, char** argv) {
  Result<Flags> flags = Flags::Parse(argc - 1, argv + 1);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  Result<int64_t> port = flags->GetInt("port", 8080);
  Result<int64_t> origin_port = flags->GetInt("origin-port", 8081);
  Result<int64_t> capacity = flags->GetInt("capacity", 4096);
  Result<int64_t> pool_size = flags->GetInt("pool-size", 8);
  Result<int64_t> breaker_window = flags->GetInt("breaker-window", 32);
  Result<int64_t> breaker_cooldown_ms =
      flags->GetInt("breaker-cooldown-ms", 1000);
  Result<int64_t> stale_capacity = flags->GetInt("stale-capacity", 256);
  Result<int64_t> max_stale_sec = flags->GetInt("max-stale-sec", 0);
  Result<int64_t> max_connections = flags->GetInt("max-connections", 0);
  Result<int64_t> max_inflight = flags->GetInt("max-inflight", 0);
  Result<int64_t> header_timeout_ms = flags->GetInt("header-timeout", 0);
  Result<int64_t> idle_timeout_ms = flags->GetInt("idle-timeout", 0);
  Result<int64_t> write_stall_ms = flags->GetInt("write-stall-timeout", 0);
  Result<int64_t> max_header_bytes = flags->GetInt("max-header-bytes", 0);
  Result<int64_t> max_body_bytes = flags->GetInt("max-body-bytes", 0);
  Result<int64_t> drain_timeout_ms = flags->GetInt("drain-timeout", 0);
  Result<int64_t> request_budget_ms = flags->GetInt("request-budget-ms", 0);
  Result<int64_t> chaos_seed = flags->GetInt("chaos-seed", 42);
  Result<int64_t> workers = flags->GetInt("workers", 2);
  for (const auto* r : {&port, &origin_port, &capacity, &pool_size,
                        &breaker_window, &breaker_cooldown_ms,
                        &stale_capacity, &max_stale_sec, &max_connections,
                        &max_inflight, &header_timeout_ms, &idle_timeout_ms,
                        &write_stall_ms, &max_header_bytes, &max_body_bytes,
                        &drain_timeout_ms, &request_budget_ms,
                        &chaos_seed, &workers}) {
    if (!r->ok()) {
      std::fprintf(stderr, "%s\n", r->status().ToString().c_str());
      return 2;
    }
  }
  Result<double> breaker_error_threshold =
      flags->GetDouble("breaker-error-threshold", 0.5);
  if (!breaker_error_threshold.ok()) {
    std::fprintf(stderr, "%s\n",
                 breaker_error_threshold.status().ToString().c_str());
    return 2;
  }
  std::string origin_host = flags->GetString("origin-host", "127.0.0.1");
  bool enable_breaker = flags->GetBool("breaker");
  bool serve_stale = flags->GetBool("serve-stale");

  if (std::string chaos_spec = flags->GetString("chaos", "");
      !chaos_spec.empty()) {
    Status armed = chaos::FaultRegistry::Instance().Arm(
        chaos_spec, static_cast<uint64_t>(*chaos_seed));
    if (!armed.ok()) {
      std::fprintf(stderr, "--chaos: %s\n", armed.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "chaos armed: %s (seed %lld)\n",
                 chaos_spec.c_str(),
                 static_cast<long long>(*chaos_seed));
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

  net::PooledTransportOptions upstream_options;
  upstream_options.pool.max_connections = static_cast<int>(*pool_size);
  // A refreshed GET invalidates fragments at the BEM; never re-send one
  // whose bytes may already have reached the origin.
  upstream_options.non_idempotent_headers = {bem::kRefreshHeader};
  net::PooledClientTransport upstream(
      origin_host, static_cast<uint16_t>(*origin_port), upstream_options);

  // Optional circuit breaker between the DPC and the pool: a dead
  // origin trips it and subsequent requests fast-fail (then serve
  // stale) instead of paying a dial timeout each.
  net::Transport* origin_link = &upstream;
  std::unique_ptr<net::CircuitBreakerTransport> guarded;
  if (enable_breaker) {
    net::CircuitBreakerTransportOptions breaker_options;
    breaker_options.breaker.window = static_cast<int>(*breaker_window);
    breaker_options.breaker.error_threshold = *breaker_error_threshold;
    breaker_options.breaker.cooldown.initial_backoff_micros =
        *breaker_cooldown_ms * kMicrosPerMilli;
    guarded = std::make_unique<net::CircuitBreakerTransport>(
        &upstream, breaker_options);
    origin_link = guarded.get();
  }

  std::string server_kind = flags->GetString("server", "threads");
  if (server_kind != "threads" && server_kind != "epoll") {
    std::fprintf(stderr, "unknown --server '%s' (threads|epoll)\n",
                 server_kind.c_str());
    return 2;
  }
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
  // proxy (constructed before the server) can export the labeled series
  // and the server mirrors into them via ServerLimits.
  std::unique_ptr<net::IngressCounters[]> worker_slots;
  if (worker_count > 1) {
    worker_slots = std::make_unique<net::IngressCounters[]>(
        static_cast<size_t>(worker_count));
    limits.worker_counters = worker_slots.get();
    limits.worker_counter_count = worker_count;
  }

  dpc::ProxyOptions options;
  options.capacity = static_cast<bem::DpcKey>(*capacity);
  options.ingress = &ingress;
  if (worker_slots != nullptr) {
    options.worker_ingress = worker_slots.get();
    options.worker_ingress_count = worker_count;
  }
  options.add_debug_header = flags->GetBool("debug");
  options.enable_static_cache = flags->GetBool("static-cache");
  options.enable_push = flags->GetBool("enable-push");
  options.enable_status = true;
  options.enable_metrics = flags->GetBool("metrics", true);
  options.access_log = access_log.get();
  options.upstream_pool = &upstream.pool();
  options.serve_stale = serve_stale;
  options.stale_cache.capacity = static_cast<size_t>(*stale_capacity);
  options.max_stale_micros = *max_stale_sec * kMicrosPerSecond;
  options.request_budget_micros = *request_budget_ms * kMicrosPerMilli;
  if (guarded != nullptr) options.upstream_breaker = &guarded->breaker();
  dpc::DpcProxy proxy(origin_link, options);

  std::unique_ptr<net::TcpServer> thread_server;
  std::unique_ptr<net::EpollServer> epoll_server;
  uint16_t bound_port = 0;
  if (server_kind == "epoll") {
    epoll_server = std::make_unique<net::EpollServer>(
        proxy.AsHandler(), static_cast<uint16_t>(*port),
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
  } else {
    thread_server = std::make_unique<net::TcpServer>(
        proxy.AsHandler(), static_cast<uint16_t>(*port), limits);
    Status started = thread_server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    bound_port = thread_server->port();
  }
  std::printf("DPC listening on 127.0.0.1:%u -> upstream %s:%lld "
              "(capacity %lld, pool %lld%s%s%s%s)\n",
              bound_port, origin_host.c_str(),
              static_cast<long long>(*origin_port),
              static_cast<long long>(*capacity),
              static_cast<long long>(*pool_size),
              options.enable_static_cache ? ", static cache on" : "",
              enable_breaker ? ", breaker on" : "",
              serve_stale ? ", serve-stale on" : "",
              options.enable_push ? ", push endpoint on" : "");
  std::fflush(stdout);

  char buf[256];
  while (::read(STDIN_FILENO, buf, sizeof(buf)) > 0) {
  }
  const MicroTime drain_micros = *drain_timeout_ms * kMicrosPerMilli;
  if (thread_server != nullptr) thread_server->Stop(drain_micros);
  if (epoll_server != nullptr) epoll_server->Stop(drain_micros);
  dpc::ProxyStats stats = proxy.stats();
  net::PoolStats pool_stats = upstream.pool().stats();
  std::printf(
      "served %llu requests: %llu assembled, %llu passthrough, %llu "
      "recoveries, %llu static hits; %llu B from origin, %llu B to "
      "clients (%.1f%% origin-link savings)\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.assembled),
      static_cast<unsigned long long>(stats.passthrough),
      static_cast<unsigned long long>(stats.recoveries),
      static_cast<unsigned long long>(stats.static_hits),
      static_cast<unsigned long long>(stats.bytes_from_upstream),
      static_cast<unsigned long long>(stats.bytes_to_clients),
      stats.bytes_to_clients == 0
          ? 0.0
          : 100.0 * (1.0 - static_cast<double>(stats.bytes_from_upstream) /
                               static_cast<double>(stats.bytes_to_clients)));
  std::printf(
      "upstream pool: %llu checkouts over %llu connections (%llu "
      "reconnects, %llu stale closed, %llu waiter timeouts)\n",
      static_cast<unsigned long long>(pool_stats.checkouts),
      static_cast<unsigned long long>(pool_stats.connects),
      static_cast<unsigned long long>(pool_stats.reconnects),
      static_cast<unsigned long long>(pool_stats.stale_closed),
      static_cast<unsigned long long>(pool_stats.waiter_timeouts));
  if (options.enable_push) {
    std::printf(
        "edge tier: %llu pushes applied, %llu peer serves\n",
        static_cast<unsigned long long>(stats.pushes_applied),
        static_cast<unsigned long long>(stats.peer_serves));
  }
  if (serve_stale || guarded != nullptr) {
    std::printf(
        "degraded mode: %llu stale pages served, %llu breaker "
        "rejections, %llu 503s\n",
        static_cast<unsigned long long>(stats.stale_served),
        static_cast<unsigned long long>(stats.breaker_rejections),
        static_cast<unsigned long long>(stats.degraded_503s));
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
