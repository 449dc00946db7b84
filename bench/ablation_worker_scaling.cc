// Ablation: multi-worker epoll ingress (docs/threading-model.md,
// "Worker model"). Sweeps --workers over {1, 2, 4, 8} with a storm of
// short-lived and keep-alive connections and proves the scaling story
// with counters, not wall-clock — this host may well be a single core,
// where N event loops cannot beat one on latency, but the *sharding*
// properties the worker model promises are load-independent:
//
//   1. Every response is correct at every worker count (the worker model
//      is invisible on the wire).
//   2. The kernel spreads accepts across the SO_REUSEPORT listeners —
//      reported as each worker's share of connections and the
//      max-worker/ideal ratio (1.00 = perfectly even).
//   3. Requests stay pinned: a keep-alive connection is served start to
//      finish by the worker that accepted it, so the number of distinct
//      serving threads never exceeds the worker count.
//   4. The per-worker ingress mirrors sum to the shared totals, field by
//      field, while the storm is running and after it drains.
//
// Exits non-zero if any invariant fails, so the sweep doubles as a
// regression harness for the ingress tier.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "appserver/origin_server.h"
#include "appserver/script_registry.h"
#include "bem/monitor.h"
#include "bench_util.h"
#include "common/metrics.h"
#include "net/connection_pool.h"
#include "net/epoll_server.h"
#include "net/server_limits.h"
#include "storage/table.h"

using namespace dynaprox;

namespace {

constexpr int kClientThreads = 6;
constexpr int kConnsPerThread = 8;   // Fresh connection each -> accepts.
constexpr int kRequestsPerConn = 4;  // Keep-alive requests per connection.

struct SweepResult {
  bool sharded = false;
  uint64_t requests_ok = 0;
  uint64_t requests_bad = 0;
  std::vector<uint64_t> accepts_per_worker;
  size_t serving_threads = 0;  // Distinct handler threads observed.
  bool rollup_exact = false;
};

// Every IngressCounters field, so the roll-up check is exhaustive.
std::vector<uint64_t> Snapshot(const net::IngressCounters& c) {
  return {static_cast<uint64_t>(c.open_connections.load()),
          static_cast<uint64_t>(c.inflight_requests.load()),
          c.accepted_total.load(),
          c.connection_limit_rejections.load(),
          c.shed_503s.load(),
          c.header_timeouts.load(),
          c.idle_timeouts.load(),
          c.write_stall_closes.load(),
          c.oversize_headers.load(),
          c.oversize_bodies.load(),
          c.bad_requests.load(),
          c.drained_connections.load()};
}

bool WorkersSumToTotals(const net::EpollServer& server) {
  std::vector<uint64_t> totals = Snapshot(server.ingress());
  std::vector<uint64_t> sums(totals.size(), 0);
  for (int w = 0; w < server.worker_count(); ++w) {
    std::vector<uint64_t> slot = Snapshot(server.worker_ingress(w));
    for (size_t i = 0; i < sums.size(); ++i) sums[i] += slot[i];
  }
  return sums == totals;
}

SweepResult RunConfig(int workers) {
  // The handler records which thread served each request; with
  // connections pinned to their accepting worker, the distinct-thread
  // count is bounded by the worker count.
  std::mutex mu;
  std::map<std::thread::id, uint64_t> served_by;
  net::EpollServer server(
      [&](const http::Request& request) {
        {
          std::lock_guard<std::mutex> lock(mu);
          ++served_by[std::this_thread::get_id()];
        }
        return http::Response::MakeOk("echo:" +
                                      std::string(request.Path()));
      },
      0, workers);
  SweepResult out;
  if (!server.Start().ok()) return out;
  out.sharded = server.reuseport_sharded();

  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int c = 0; c < kConnsPerThread; ++c) {
        net::PooledClientTransport client("127.0.0.1", server.port());
        for (int r = 0; r < kRequestsPerConn; ++r) {
          http::Request request;
          request.target =
              "/t" + std::to_string(t) + "c" + std::to_string(c);
          Result<http::Response> response = client.RoundTrip(request);
          if (response.ok() &&
              response->body == "echo:" + std::string(request.target)) {
            ++ok;
          } else {
            ++bad;
          }
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();

  const bool mid_storm_rollup = WorkersSumToTotals(server);
  server.Stop(/*drain_timeout_micros=*/kMicrosPerSecond);
  out.requests_ok = ok.load();
  out.requests_bad = bad.load();
  for (int w = 0; w < server.worker_count(); ++w) {
    out.accepts_per_worker.push_back(
        server.worker_ingress(w).accepted_total.load());
  }
  out.serving_threads = served_by.size();
  out.rollup_exact = mid_storm_rollup && WorkersSumToTotals(server) &&
                     server.ingress().open_connections.load() == 0;
  return out;
}

// Section 2: upstream_concurrency's load shape (concurrent client
// threads, per-request latency histogram) against a real BEM-backed
// origin, so parallel pages on different ingress workers exercise the
// striped cache directory — the contended-lock counters say whether the
// striping holds up, which wall-clock on a small host cannot.
constexpr int kLoadClients = 8;
constexpr int kLoadRequestsPerClient = 40;
constexpr int kLoadPages = 8;

void RunContentionSection() {
  std::printf(
      "\n=== Worker sweep under upstream_concurrency load shape ===\n");
  std::printf(
      "%d client threads x %d keep-alive requests against a BEM-backed "
      "origin (%d pages, one cacheable block each); latency is reported "
      "for context, contention counters are the evidence\n\n",
      kLoadClients, kLoadRequestsPerClient, kLoadPages);
  std::printf("%8s %8s %10s %10s %10s %10s %10s %8s\n", "workers", "ok",
              "mean(ms)", "p99(ms)", "dir hits", "stripe c", "policy c",
              "races");
  for (int workers : {1, 2, 4, 8}) {
    storage::ContentRepository repository;
    appserver::ScriptRegistry scripts;
    for (int p = 0; p < kLoadPages; ++p) {
      scripts.RegisterOrReplace(
          "/page/" + std::to_string(p),
          [p](appserver::ScriptContext& ctx) {
            ctx.Emit("[p]");
            Status status = ctx.CacheableBlock(
                bem::FragmentId("wrk", {{"n", std::to_string(p)}}),
                [](appserver::ScriptContext& c) {
                  c.Emit("fragment-body");
                  return Status::Ok();
                });
            ctx.Emit("[/p]");
            return status;
          });
    }
    bem::BemOptions bem_options;
    bem_options.capacity = 64;
    auto monitor = *bem::BackEndMonitor::Create(bem_options);
    monitor->AttachRepository(&repository);
    appserver::OriginServer origin(&scripts, &repository, monitor.get(),
                                   {});
    net::EpollServer server(
        [&origin](const http::Request& request) {
          return origin.Handle(request);
        },
        0, workers);
    if (!server.Start().ok()) {
      std::fprintf(stderr, "Start failed at workers=%d\n", workers);
      return;
    }
    metrics::LatencyHistogram latencies(benchutil::LatencyMsBounds());
    std::atomic<uint64_t> ok{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kLoadClients; ++c) {
      clients.emplace_back([&, c] {
        net::PooledClientTransport client("127.0.0.1", server.port());
        for (int i = 0; i < kLoadRequestsPerClient; ++i) {
          http::Request request;
          request.target =
              "/page/" + std::to_string((c + i) % kLoadPages);
          auto start = std::chrono::steady_clock::now();
          Result<http::Response> response = client.RoundTrip(request);
          auto elapsed = std::chrono::steady_clock::now() - start;
          if (response.ok() && response->status_code == 200) {
            ++ok;
            latencies.Observe(
                std::chrono::duration<double, std::milli>(elapsed)
                    .count());
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    server.Stop();
    metrics::LatencyHistogram::Snapshot h = latencies.snapshot();
    bem::CacheDirectory::ConcurrencyStats dir =
        monitor->directory().concurrency_stats();
    std::printf(
        "%8d %8llu %10.2f %10.2f %10llu %10llu %10llu %8llu\n", workers,
        static_cast<unsigned long long>(ok.load()), h.mean(),
        h.Percentile(0.99),
        static_cast<unsigned long long>(
            monitor->directory().stats().hits),
        static_cast<unsigned long long>(dir.stripe_contentions),
        static_cast<unsigned long long>(dir.policy_contentions),
        static_cast<unsigned long long>(dir.insert_races));
  }
  std::printf(
      "\nlatency flat across worker counts on a small host is expected "
      "(one core serializes the loops); stripe contentions staying near "
      "zero while hits climb is the striping evidence — the directory "
      "is not what stops worker scaling.\n");
}

}  // namespace

int main() {
  constexpr uint64_t kTotalConns = kClientThreads * kConnsPerThread;
  constexpr uint64_t kTotalRequests = kTotalConns * kRequestsPerConn;
  std::printf("=== Ablation: epoll worker scaling (counter proof) ===\n");
  std::printf(
      "%llu connections x %d keep-alive requests per config; counters "
      "prove sharding, pinning, and roll-up (wall-clock would only "
      "measure this host's core count)\n\n",
      static_cast<unsigned long long>(kTotalConns), kRequestsPerConn);
  std::printf("%8s %8s %6s %6s %8s %10s %10s  %s\n", "workers", "sharded",
              "ok", "bad", "threads", "max/ideal", "rollup",
              "accepts per worker");
  bool all_ok = true;
  for (int workers : {1, 2, 4, 8}) {
    SweepResult result = RunConfig(workers);
    uint64_t max_accepts = 0;
    std::string spread;
    for (uint64_t a : result.accepts_per_worker) {
      if (a > max_accepts) max_accepts = a;
      spread += (spread.empty() ? "[" : " ") + std::to_string(a);
    }
    spread += "]";
    const double ideal =
        static_cast<double>(kTotalConns) / static_cast<double>(workers);
    const double max_over_ideal =
        ideal > 0 ? static_cast<double>(max_accepts) / ideal : 0;
    const bool config_ok =
        result.requests_ok == kTotalRequests && result.requests_bad == 0 &&
        result.serving_threads <= static_cast<size_t>(workers) &&
        result.rollup_exact;
    all_ok = all_ok && config_ok;
    std::printf("%8d %8s %6llu %6llu %8zu %10.2f %10s  %s\n", workers,
                result.sharded ? "yes" : "no",
                static_cast<unsigned long long>(result.requests_ok),
                static_cast<unsigned long long>(result.requests_bad),
                result.serving_threads, max_over_ideal,
                result.rollup_exact ? "exact" : "BROKEN", spread.c_str());
  }
  std::printf(
      "\nthreads <= workers is connection pinning; max/ideal near 1.00 "
      "means the kernel hash spread accepts evenly (it guarantees no "
      "bound, so the ratio is reported, not asserted); rollup=exact "
      "means every per-worker mirror summed to the shared totals field "
      "by field, mid-storm and after the drain.\n");
  RunContentionSection();
  if (!all_ok) {
    std::fprintf(stderr, "worker-scaling invariants FAILED\n");
    return 1;
  }
  return 0;
}
