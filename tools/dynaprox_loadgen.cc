// dynaprox_loadgen: WebLoad-style closed-loop load generator. Drives a
// Zipf page workload (or replays a trace) against a dynaprox_proxy or
// dynaprox_origin over TCP and reports throughput, status counts, and a
// wall-clock latency histogram.
//
//   ./dynaprox_loadgen --port=8080 --requests=10000 --pages=10
//       [--alpha=1.0] [--threads=4] [--trace=replay.txt]
//       [--record=out.txt] [--seed=1]

#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/flags.h"
#include "common/histogram.h"
#include "net/connection_pool.h"
#include "workload/request_stream.h"
#include "workload/trace.h"

using namespace dynaprox;

namespace {

struct SharedResults {
  std::mutex mu;
  Histogram latency_ms;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t transport_errors = 0;
  uint64_t body_bytes = 0;
};

void RunWorker(const std::string& host, uint16_t port,
               std::vector<http::Request> requests, SharedResults* results) {
  net::PooledClientTransport client(host, port);
  SystemClock clock;
  Histogram local_latency;
  uint64_t ok = 0, errors = 0, transport_errors = 0, body_bytes = 0;
  for (const http::Request& request : requests) {
    MicroTime start = clock.NowMicros();
    Result<http::Response> response = client.RoundTrip(request);
    double elapsed_ms =
        static_cast<double>(clock.NowMicros() - start) / kMicrosPerMilli;
    local_latency.Record(elapsed_ms);
    if (!response.ok()) {
      ++transport_errors;
    } else if (response->status_code >= 200 &&
               response->status_code < 300) {
      ++ok;
      body_bytes += response->body.size();
    } else {
      ++errors;
    }
  }
  std::lock_guard<std::mutex> lock(results->mu);
  results->latency_ms.Merge(local_latency);
  results->ok += ok;
  results->errors += errors;
  results->transport_errors += transport_errors;
  results->body_bytes += body_bytes;
}

}  // namespace

int main(int argc, char** argv) {
  Result<Flags> flags = Flags::Parse(argc - 1, argv + 1);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  Result<int64_t> port = flags->GetInt("port", 8080);
  Result<int64_t> requests = flags->GetInt("requests", 10'000);
  Result<int64_t> pages = flags->GetInt("pages", 10);
  Result<int64_t> threads = flags->GetInt("threads", 1);
  Result<int64_t> seed = flags->GetInt("seed", 1);
  Result<double> alpha = flags->GetDouble("alpha", 1.0);
  for (const auto* r : {&port, &requests, &pages, &threads, &seed}) {
    if (!r->ok()) {
      std::fprintf(stderr, "%s\n", r->status().ToString().c_str());
      return 2;
    }
  }
  if (!alpha.ok() || *threads < 1 || *requests < 1) {
    std::fprintf(stderr, "bad --alpha/--threads/--requests\n");
    return 2;
  }
  std::string host = flags->GetString("host", "127.0.0.1");
  std::string trace_path = flags->GetString("trace");
  std::string record_path = flags->GetString("record");

  // Pre-generate the request list (so threads don't contend on the RNG
  // and a --record run captures exactly what was sent).
  std::vector<http::Request> all_requests;
  all_requests.reserve(static_cast<size_t>(*requests));
  if (!trace_path.empty()) {
    Result<std::vector<workload::TraceEntry>> trace =
        workload::LoadTrace(trace_path);
    if (!trace.ok()) {
      std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
      return 1;
    }
    workload::TraceStream stream(*trace, /*loop=*/true);
    for (int64_t i = 0; i < *requests; ++i) {
      Result<http::Request> request = stream.Next();
      if (!request.ok()) break;
      all_requests.push_back(std::move(*request));
    }
  } else {
    workload::RequestStream stream(static_cast<int>(*pages), *alpha,
                                   static_cast<uint64_t>(*seed));
    for (int64_t i = 0; i < *requests; ++i) {
      all_requests.push_back(stream.Next());
    }
  }
  if (!record_path.empty()) {
    std::vector<workload::TraceEntry> entries;
    entries.reserve(all_requests.size());
    for (const http::Request& request : all_requests) {
      entries.push_back(workload::TraceEntry::FromRequest(request));
    }
    Status saved = workload::SaveTrace(record_path, entries);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
  }

  // Shard across worker threads.
  SharedResults results;
  std::vector<std::thread> workers;
  size_t per_thread =
      (all_requests.size() + static_cast<size_t>(*threads) - 1) /
      static_cast<size_t>(*threads);
  SystemClock clock;
  MicroTime start = clock.NowMicros();
  for (int64_t t = 0; t < *threads; ++t) {
    size_t begin = static_cast<size_t>(t) * per_thread;
    if (begin >= all_requests.size()) break;
    size_t end = std::min(begin + per_thread, all_requests.size());
    workers.emplace_back(RunWorker, host, static_cast<uint16_t>(*port),
                         std::vector<http::Request>(
                             all_requests.begin() + begin,
                             all_requests.begin() + end),
                         &results);
  }
  for (std::thread& worker : workers) worker.join();
  double wall_seconds =
      static_cast<double>(clock.NowMicros() - start) / kMicrosPerSecond;

  std::printf("requests: %zu in %.2fs (%.0f req/s, %lld thread(s))\n",
              all_requests.size(), wall_seconds,
              all_requests.size() / std::max(wall_seconds, 1e-9),
              static_cast<long long>(*threads));
  std::printf("status: %llu ok, %llu http errors, %llu transport errors\n",
              static_cast<unsigned long long>(results.ok),
              static_cast<unsigned long long>(results.errors),
              static_cast<unsigned long long>(results.transport_errors));
  std::printf("bytes received: %llu\n",
              static_cast<unsigned long long>(results.body_bytes));
  std::printf("latency ms: mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f\n",
              results.latency_ms.mean(), results.latency_ms.Percentile(0.5),
              results.latency_ms.Percentile(0.95),
              results.latency_ms.Percentile(0.99), results.latency_ms.max());
  return results.transport_errors == 0 ? 0 : 1;
}
