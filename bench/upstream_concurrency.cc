// Upstream head-of-line blocking: client-observed response time at
// 1/4/16 concurrent clients against a slow (5 ms) origin, comparing a
// PooledClientTransport with a pool of one (every round trip serializes
// on one keep-alive connection) with a pool of 16 (concurrent round trips
// fan out over keep-alive connections). The acceptance bar for the pool
// is a >=4x p99 improvement at 16 clients.
//
// A second section measures FragmentStore contention: aggregate Get/Set
// throughput at 16 threads for the striped store versus a single-mutex
// baseline, since every assembly worker hits the store on the hot path.

#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "dpc/fragment_store.h"
#include "net/connection_pool.h"
#include "net/tcp.h"

namespace {

using dynaprox::kMicrosPerMilli;
using dynaprox::metrics::LatencyHistogram;

constexpr int kOriginDelayMs = 5;
constexpr int kRequestsPerClient = 40;

dynaprox::http::Response SlowOrigin(const dynaprox::http::Request& request) {
  std::this_thread::sleep_for(std::chrono::milliseconds(kOriginDelayMs));
  return dynaprox::http::Response::MakeOk("origin:" +
                                          std::string(request.Path()));
}

// Runs `clients` threads sharing `transport`, each issuing
// kRequestsPerClient round trips, all observing into one shared
// lock-free LatencyHistogram (the same type the proxy exports at
// /_dynaprox/metrics — no per-thread histograms to merge); returns its
// snapshot in milliseconds.
LatencyHistogram::Snapshot Drive(dynaprox::net::Transport& transport,
                                 int clients) {
  LatencyHistogram latencies(dynaprox::benchutil::LatencyMsBounds());
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&transport, &latencies, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        dynaprox::http::Request request;
        request.target = "/c" + std::to_string(c) + "/r" + std::to_string(i);
        auto start = std::chrono::steady_clock::now();
        auto response = transport.RoundTrip(request);
        auto elapsed = std::chrono::steady_clock::now() - start;
        if (!response.ok()) {
          std::fprintf(stderr, "round trip failed: %s\n",
                       response.status().ToString().c_str());
          continue;
        }
        latencies.Observe(
            std::chrono::duration<double, std::milli>(elapsed).count());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return latencies.snapshot();
}

// What FragmentStore looked like before lock striping: one mutex in
// front of the slot array, stats maintained under the same lock. Kept
// inline as the bench baseline.
class GlobalLockStore {
 public:
  explicit GlobalLockStore(dynaprox::bem::DpcKey capacity)
      : slots_(capacity) {}

  void Set(dynaprox::bem::DpcKey key, std::string content) {
    auto fresh = std::make_shared<const std::string>(std::move(content));
    std::lock_guard<std::mutex> lock(mu_);
    slots_[key] = std::move(fresh);
    ++stats_.sets;
  }

  dynaprox::dpc::FragmentRef Get(dynaprox::bem::DpcKey key) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.gets;
    if (slots_[key] == nullptr) ++stats_.get_misses;
    return slots_[key];
  }

 private:
  std::mutex mu_;
  std::vector<dynaprox::dpc::FragmentRef> slots_;
  dynaprox::dpc::StoreStats stats_;
};

constexpr int kStoreThreads = 16;
constexpr int kStoreOpsPerThread = 200000;
constexpr dynaprox::bem::DpcKey kStoreCapacity = 4096;

// 16 threads hammer disjoint key ranges, 1 Set per 8 Gets (the DPC is
// read-heavy: one Set per fragment update, one Get per page reference).
// Returns aggregate ops/second.
template <typename Store>
double DriveStore(Store& store) {
  for (dynaprox::bem::DpcKey k = 0; k < kStoreCapacity; ++k) {
    store.Set(k, "fragment body for slot " + std::to_string(k));
  }
  std::vector<std::thread> threads;
  auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < kStoreThreads; ++t) {
    threads.emplace_back([&store, t] {
      dynaprox::bem::DpcKey base =
          static_cast<dynaprox::bem::DpcKey>(t) *
          (kStoreCapacity / kStoreThreads);
      for (int i = 0; i < kStoreOpsPerThread; ++i) {
        dynaprox::bem::DpcKey key =
            base + static_cast<dynaprox::bem::DpcKey>(
                       i % (kStoreCapacity / kStoreThreads));
        if (i % 8 == 7) {
          store.Set(key, "updated fragment body");
        } else {
          (void)store.Get(key);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return kStoreThreads * static_cast<double>(kStoreOpsPerThread) / elapsed;
}

void RunStoreContentionSection() {
  unsigned cores = std::thread::hardware_concurrency();
  std::printf("=== FragmentStore contention: %d threads, %d ops/thread, "
              "1 set per 8 gets, %u cores ===\n",
              kStoreThreads, kStoreOpsPerThread, cores);
  GlobalLockStore global_lock(kStoreCapacity);
  double baseline = DriveStore(global_lock);
  dynaprox::dpc::FragmentStore striped(kStoreCapacity);
  double striped_ops = DriveStore(striped);
  std::printf("%-14s %14.0f ops/s\n", "global-lock", baseline);
  std::printf("%-14s %14.0f ops/s (%.1fx)\n", "striped-16", striped_ops,
              baseline == 0 ? 0.0 : striped_ops / baseline);
  std::printf("expectation: on multi-core hosts the striped store "
              "outscales the single global mutex at 16 threads; on a "
              "single core the two are equivalent (no parallel lock "
              "acquisition to win back)\n\n");
}

}  // namespace

int main() {
  dynaprox::net::TcpServer origin(SlowOrigin);
  if (dynaprox::Status started = origin.Start(); !started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }

  std::printf("=== Upstream concurrency: %d ms origin, %d requests/client "
              "===\n",
              kOriginDelayMs, kRequestsPerClient);
  std::printf("%-14s %8s %10s %10s %10s %10s %10s\n", "transport",
              "clients", "requests", "mean(ms)", "p50(ms)", "p99(ms)",
              "p100(ms)");

  double single_p99_at_16 = 0;
  double pooled_p99_at_16 = 0;
  for (int clients : {1, 4, 16}) {
    dynaprox::net::PooledTransportOptions options;
    options.pool.max_connections = 1;
    dynaprox::net::PooledClientTransport single("127.0.0.1", origin.port(),
                                                options);
    LatencyHistogram::Snapshot h = Drive(single, clients);
    dynaprox::benchutil::PrintLatencyRow("single-socket", clients, h);
    if (clients == 16) single_p99_at_16 = h.Percentile(0.99);
  }
  for (int clients : {1, 4, 16}) {
    dynaprox::net::PooledTransportOptions options;
    options.pool.max_connections = 16;
    dynaprox::net::PooledClientTransport pooled("127.0.0.1", origin.port(),
                                                options);
    LatencyHistogram::Snapshot h = Drive(pooled, clients);
    dynaprox::benchutil::PrintLatencyRow("pooled", clients, h);
    if (clients == 16) pooled_p99_at_16 = h.Percentile(0.99);
    dynaprox::net::PoolStats stats = pooled.pool().stats();
    std::printf("  pool: %llu checkouts, %llu connects, %d open at end\n",
                static_cast<unsigned long long>(stats.checkouts),
                static_cast<unsigned long long>(stats.connects),
                stats.open_connections);
  }

  std::printf("p99 @16 clients: single-socket %.2f ms, pooled %.2f ms "
              "(%.1fx)\n",
              single_p99_at_16, pooled_p99_at_16,
              pooled_p99_at_16 == 0 ? 0.0
                                    : single_p99_at_16 / pooled_p99_at_16);
  std::printf("expectation: pooled p99 at 16 clients improves by >=4x over "
              "the serialized single socket\n\n");
  origin.Stop();

  RunStoreContentionSection();
  return 0;
}
