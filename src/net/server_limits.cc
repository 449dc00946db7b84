#include "net/server_limits.h"

#include "common/metrics.h"

namespace dynaprox::net {

http::Response MakeUnavailableResponse(const std::string& reason,
                                       int64_t retry_after_seconds) {
  http::Response response =
      http::Response::MakeError(503, "Service Unavailable", reason);
  response.headers.Set("Retry-After", std::to_string(retry_after_seconds));
  return response;
}

http::Response MakeShedResponse(int64_t retry_after_seconds) {
  return MakeUnavailableResponse("server over capacity, retry later",
                                 retry_after_seconds);
}

http::Response ResponseForReaderError(
    http::RequestReader::LimitViolation violation, const Status& error,
    IngressCounters& counters, IngressCounters* worker) {
  auto bump = [&](std::atomic<uint64_t> IngressCounters::*field) {
    (counters.*field).fetch_add(1, std::memory_order_relaxed);
    if (worker != nullptr) {
      (worker->*field).fetch_add(1, std::memory_order_relaxed);
    }
  };
  switch (violation) {
    case http::RequestReader::LimitViolation::kHeaderBytes:
      bump(&IngressCounters::oversize_headers);
      return http::Response::MakeError(431, "Request Header Fields Too Large",
                                       error.ToString());
    case http::RequestReader::LimitViolation::kBodyBytes:
      bump(&IngressCounters::oversize_bodies);
      return http::Response::MakeError(413, "Content Too Large",
                                       error.ToString());
    case http::RequestReader::LimitViolation::kNone:
      break;
  }
  bump(&IngressCounters::bad_requests);
  return http::Response::MakeError(400, "Bad Request", error.ToString());
}

http::Response DispatchAdmitted(const Handler& handler,
                                const http::Request& request,
                                const ServerLimits& limits,
                                IngressCounters& counters,
                                IngressCounters* worker) {
  // The admission decision reads the *shared* gauge: max_inflight is a
  // global cap across every worker of the server (and every server
  // sharing the counters), not a per-worker budget.
  int64_t inflight =
      counters.inflight_requests.fetch_add(1, std::memory_order_relaxed) + 1;
  if (worker != nullptr) {
    worker->inflight_requests.fetch_add(1, std::memory_order_relaxed);
  }
  http::Response response;
  if (limits.max_inflight > 0 && inflight > limits.max_inflight) {
    counters.shed_503s.fetch_add(1, std::memory_order_relaxed);
    if (worker != nullptr) {
      worker->shed_503s.fetch_add(1, std::memory_order_relaxed);
    }
    response = MakeShedResponse(limits.retry_after_seconds);
  } else {
    response = handler(request);
  }
  counters.inflight_requests.fetch_sub(1, std::memory_order_relaxed);
  if (worker != nullptr) {
    worker->inflight_requests.fetch_sub(1, std::memory_order_relaxed);
  }
  return response;
}

void RegisterIngressMetrics(metrics::Registry& registry,
                            const std::string& prefix,
                            const IngressCounters* counters) {
  auto gauge = [&](const char* name, const char* help,
                   const std::atomic<int64_t>* value) {
    registry.RegisterCallbackGauge(prefix + "ingress_" + name, help, [value] {
      return static_cast<double>(value->load(std::memory_order_relaxed));
    });
  };
  auto counter = [&](const char* name, const char* help,
                     const std::atomic<uint64_t>* value) {
    registry.RegisterCallbackCounter(
        prefix + "ingress_" + name, help,
        [value] { return value->load(std::memory_order_relaxed); });
  };
  gauge("open_connections", "Client connections currently open.",
        &counters->open_connections);
  gauge("inflight_requests", "Requests currently inside handlers.",
        &counters->inflight_requests);
  counter("accepted_total", "Client connections admitted.",
          &counters->accepted_total);
  counter("connection_limit_rejections_total",
          "Connections closed at accept by the connection cap.",
          &counters->connection_limit_rejections);
  counter("shed_503_total",
          "Requests shed with 503 + Retry-After by the in-flight cap.",
          &counters->shed_503s);
  counter("header_timeouts_total",
          "Connections dropped at the header-read deadline (slowloris).",
          &counters->header_timeouts);
  counter("idle_timeouts_total",
          "Keep-alive connections reaped at the idle deadline.",
          &counters->idle_timeouts);
  counter("write_stall_closes_total",
          "Connections dropped at the write-stall deadline.",
          &counters->write_stall_closes);
  counter("oversize_headers_total",
          "Requests rejected 431 by the header byte cap.",
          &counters->oversize_headers);
  counter("oversize_bodies_total",
          "Requests rejected 413 by the body byte cap.",
          &counters->oversize_bodies);
  counter("bad_requests_total",
          "Requests rejected 400 as malformed or ambiguously framed.",
          &counters->bad_requests);
  counter("drained_connections_total",
          "Connections that completed during graceful drain.",
          &counters->drained_connections);
  counter("accept_fd_exhaustion_episodes_total",
          "Episodes of EMFILE/ENFILE at accept (one per sustained outage).",
          &counters->accept_fd_exhaustion_episodes);
}

void RegisterWorkerIngressMetrics(metrics::Registry& registry,
                                  const std::string& prefix,
                                  const IngressCounters* workers,
                                  int count) {
  const size_t n = count < 0 ? 0 : static_cast<size_t>(count);
  auto gauge = [&](const char* name, const char* help,
                   std::atomic<int64_t> IngressCounters::*field) {
    registry.RegisterCallbackGaugeVec(
        prefix + "ingress_worker_" + name, help, "worker", n,
        [workers, field](size_t i) {
          return static_cast<double>(
              (workers[i].*field).load(std::memory_order_relaxed));
        });
  };
  auto counter = [&](const char* name, const char* help,
                     std::atomic<uint64_t> IngressCounters::*field) {
    registry.RegisterCallbackCounterVec(
        prefix + "ingress_worker_" + name, help, "worker",
        [workers, field, n] {
          std::vector<std::pair<std::string, uint64_t>> samples;
          samples.reserve(n);
          for (size_t i = 0; i < n; ++i) {
            samples.emplace_back(
                std::to_string(i),
                (workers[i].*field).load(std::memory_order_relaxed));
          }
          return samples;
        });
  };
  gauge("open_connections",
        "Client connections currently open, by accepting worker.",
        &IngressCounters::open_connections);
  gauge("inflight_requests",
        "Requests currently inside handlers, by serving worker.",
        &IngressCounters::inflight_requests);
  counter("accepted_total", "Client connections admitted, by worker.",
          &IngressCounters::accepted_total);
  counter("connection_limit_rejections_total",
          "Connections closed at accept by the connection cap, by worker.",
          &IngressCounters::connection_limit_rejections);
  counter("shed_503_total",
          "Requests shed with 503 + Retry-After, by serving worker.",
          &IngressCounters::shed_503s);
  counter("header_timeouts_total",
          "Header-deadline (slowloris) disconnects, by worker.",
          &IngressCounters::header_timeouts);
  counter("idle_timeouts_total",
          "Keep-alive idle reaps, by worker.",
          &IngressCounters::idle_timeouts);
  counter("write_stall_closes_total",
          "Write-stall disconnects, by worker.",
          &IngressCounters::write_stall_closes);
  counter("oversize_headers_total",
          "431 rejections by the header byte cap, by worker.",
          &IngressCounters::oversize_headers);
  counter("oversize_bodies_total",
          "413 rejections by the body byte cap, by worker.",
          &IngressCounters::oversize_bodies);
  counter("bad_requests_total",
          "400 rejections of malformed or ambiguously framed requests, "
          "by worker.",
          &IngressCounters::bad_requests);
  counter("drained_connections_total",
          "Connections completed during graceful drain, by worker.",
          &IngressCounters::drained_connections);
}

}  // namespace dynaprox::net
