// perfbench: the whole dynaprox stack in one process over loopback TCP,
// driven by a closed loop of keep-alive connections (README.md).
//
//   perfbench --workload hot_small|large_page|churn --seed N --seconds S
//             --trace 0|1 [--span-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// every layer's entry points, writes them to DIR/<workload>.csv and prints
// the per-layer metrics. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; stderr carries the run's
// context (host probes, sample counts, set-up times).

#include <sys/resource.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/metrics.h"
#include "loadgen.h"
#include "net/socket_util.h"
#include "spans.h"
#include "stack.h"

namespace perfbench {
namespace {

using dynaprox::Result;
using dynaprox::Status;

// One load-generator thread and connection per core of the 4-core host
// the benchmark was built on.
constexpr int kConnections = 4;
// Set-ups per run; setup_s is their median. Over ten seeds one set-up
// alone spread by up to 0.28 of its median, the median of three by 0.24.
constexpr int kSetups = 3;
// The traced run alternates untraced and traced phases of equal request
// count, so tracing overhead is measured against the same stack state.
constexpr int kTracedPhases = 4;
// Requests per window of the windowed medians: at least 10 samples lie
// beyond each window's p99. Short windows keep a brief stall from moving
// more than a few of them.
constexpr int64_t kWindowRequests = 1000;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

// Nearest-rank percentile of sorted values.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * sorted.size()));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

// Microseconds to the last body byte, or to the first with `ttfb`. A
// failed request counts as missing any latency limit.
double ClientMicros(const Sample& sample, bool ttfb) {
  if (sample.failed) return HUGE_VAL;
  return ttfb ? sample.ttfb_us : sample.latency_us;
}

int64_t ProcessCpuNanos() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto nanos = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return nanos(usage.ru_utime) + nanos(usage.ru_stime);
}

// VmHWM: the process's peak resident set, in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// The machine's CPU time in clock ticks, from /proc/stat: all of it, and
// the part the hypervisor ran other guests on this guest's CPUs (steal).
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;  // "cpu": user nice system idle iowait irq softirq steal.
  CpuTicks ticks;
  uint64_t value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

// A fixed CPU loop: the median of 7 timings, in microseconds.
double CpuProbeMicros() {
  std::vector<double> timings;
  for (int run = 0; run < 7; ++run) {
    const int64_t start = NowNanos();
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 2'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    volatile uint64_t sink = x;
    (void)sink;
    timings.push_back((NowNanos() - start) / 1e3);
  }
  return Median(timings);
}

// One-byte echo over a raw loopback TCP connection: the median of 2,000
// round trips, in microseconds.
Result<double> LoopbackRttMicros() {
  uint16_t port = 0;
  Result<int> listener = dynaprox::net::OpenLoopbackListener(&port);
  if (!listener.ok()) return listener.status();
  std::thread echo([fd = *listener] {
    int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) return;
    int one = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    char byte;
    while (::recv(conn, &byte, 1, 0) == 1) {
      if (::send(conn, &byte, 1, 0) != 1) break;
    }
    ::close(conn);
  });
  Result<int> client = dynaprox::net::DialTcp(
      "127.0.0.1", port, 5 * dynaprox::kMicrosPerSecond);
  std::vector<double> rtts;
  if (client.ok()) {
    char byte = 'x';
    for (int i = 0; i < 2000; ++i) {
      const int64_t start = NowNanos();
      if (::send(*client, &byte, 1, 0) != 1 ||
          ::recv(*client, &byte, 1, 0) != 1) {
        break;
      }
      rtts.push_back((NowNanos() - start) / 1e3);
    }
    ::close(*client);
  } else {
    ::shutdown(*listener, SHUT_RDWR);
  }
  echo.join();
  ::close(*listener);
  if (rtts.size() != 2000) return Status::IoError("loopback echo failed");
  return Median(rtts);
}

// The unlabeled samples of a registry's Prometheus exposition.
using Scrape = std::map<std::string, double>;

Scrape ScrapeRegistry(const dynaprox::metrics::Registry& registry) {
  Scrape values;
  std::istringstream exposition(registry.RenderPrometheus());
  std::string line;
  while (std::getline(exposition, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    std::string name = line.substr(0, space);
    if (name.find('{') != std::string::npos) continue;
    values[name] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return values;
}

// Looks metrics up by name and remembers the ones a tier does not export,
// so a renamed metric fails the run instead of reading as zero.
class MetricReader {
 public:
  double At(const Scrape& scrape, const std::string& name) {
    auto it = scrape.find(name);
    if (it == scrape.end()) {
      missing_.push_back(name);
      return 0;
    }
    return it->second;
  }
  double Delta(const Scrape& before, const Scrape& after,
               const std::string& name) {
    return At(after, name) - At(before, name);
  }
  const std::vector<std::string>& missing() const { return missing_; }

 private:
  std::vector<std::string> missing_;
};

struct WindowedStats {
  double throughput_rps = 0;
  double p99_us = 0;
  int64_t windows = 0;
  int64_t window_size = 0;
  std::vector<double> rates;  // Per window, in completion order.
  std::vector<double> p99s;
};

// Medians over equal request-count windows of the phase, in completion
// order, so a single stall moves one window rather than the whole run.
WindowedStats Windowed(std::vector<Sample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.done_ns < b.done_ns;
            });
  const int64_t n = static_cast<int64_t>(samples.size());
  WindowedStats stats;
  stats.windows = std::max<int64_t>(1, n / kWindowRequests);
  stats.window_size = n / stats.windows;
  std::vector<double>& rates = stats.rates;
  std::vector<double>& p99s = stats.p99s;
  for (int64_t w = 0; w < stats.windows; ++w) {
    const int64_t begin = w * stats.window_size;
    const int64_t end =
        w == stats.windows - 1 ? n : begin + stats.window_size;
    const int64_t since = begin == 0 ? 0 : samples[begin - 1].done_ns;
    const double seconds = (samples[end - 1].done_ns - since) / 1e9;
    if (seconds > 0) rates.push_back((end - begin) / seconds);
    std::vector<double> latencies;
    for (int64_t i = begin; i < end; ++i) {
      latencies.push_back(ClientMicros(samples[i], /*ttfb=*/false));
    }
    std::sort(latencies.begin(), latencies.end());
    p99s.push_back(Percentile(latencies, 0.99));
  }
  stats.throughput_rps = Median(rates);
  stats.p99_us = Median(p99s);
  return stats;
}

// Percentile `p` over the whole phase.
double PhasePercentile(const std::vector<Sample>& samples, double p,
                       bool ttfb) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const Sample& sample : samples) {
    values.push_back(ClientMicros(sample, ttfb));
  }
  std::sort(values.begin(), values.end());
  return Percentile(values, p);
}

std::string FormatNumber(double value) {
  // JSON has no infinity; a failed request's latency prints as 1e12.
  if (!std::isfinite(value)) value = 1e12;
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  (void)ec;
  return std::string(buffer, end);
}

// `values`, each times `scale`, comma-separated.
std::string JoinNumbers(const std::vector<double>& values, double scale) {
  std::string joined;
  for (double value : values) {
    if (!joined.empty()) joined += ',';
    joined += FormatNumber(value * scale);
  }
  return joined;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  int64_t seconds = 0;
  bool trace = false;
  std::string span_dir;
};

Result<Options> ParseOptions(int argc, char** argv) {
  Result<dynaprox::Flags> flags = dynaprox::Flags::Parse(argc - 1, argv + 1);
  if (!flags.ok()) return flags.status();
  Options options;
  options.workload = FindWorkload(flags->GetString("workload"));
  if (options.workload == nullptr) {
    return Status::InvalidArgument(
        "--workload must be hot_small, large_page or churn");
  }
  Result<int64_t> seed = flags->GetInt("seed", -1);
  Result<int64_t> seconds = flags->GetInt("seconds", 0);
  Result<int64_t> trace = flags->GetInt("trace", 0);
  if (!seed.ok() || *seed < 0) {
    return Status::InvalidArgument("--seed must be a whole number >= 0");
  }
  if (!seconds.ok() || *seconds < 1 || *seconds > 60) {
    return Status::InvalidArgument("--seconds must be 1..60");
  }
  if (!trace.ok() || (*trace != 0 && *trace != 1)) {
    return Status::InvalidArgument("--trace must be 0 or 1");
  }
  options.seed = static_cast<uint64_t>(*seed);
  options.seconds = *seconds;
  options.trace = *trace == 1;
  options.span_dir = flags->GetString("span-dir", ".");
  return options;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
  return 1;
}

// Counters read at the start and at the end of the measured phase.
struct Counters {
  Scrape dpc;
  Scrape origin;
  dynaprox::bem::BackEndMonitor::ConcurrencyStats bem;
  uint64_t origin_response_bytes = 0;
};

Counters ReadCounters(const Stack& stack) {
  return {ScrapeRegistry(stack.proxy().metrics_registry()),
          ScrapeRegistry(stack.origin().metrics_registry()),
          stack.monitor().concurrency_stats(),
          stack.origin_response_bytes()};
}

// The measured phase, split by whether requests were traced.
struct Phases {
  PhaseResult untraced;
  PhaseResult traced;
  int64_t untraced_cpu_ns = 0;  // Process CPU over the untraced phases.
  int64_t traced_cpu_ns = 0;
};

struct HostProbes {
  double cpu_probe_us = 0;
  double loopback_rtt_us = 0;
  double steal_pct = 0;  // Over the measured phase.
};

std::vector<Metric> EndToEndMetrics(const std::vector<Sample>& samples,
                                    const Counters& before,
                                    const Counters& after,
                                    const Phases& phases, double peak_rss_mb,
                                    const std::vector<double>& setup_seconds) {
  const WindowedStats windowed = Windowed(samples);
  const double n = static_cast<double>(samples.size());
  // Response bytes, heads included, on each leg: B_C against B_NC.
  const double from_origin = static_cast<double>(
      after.origin_response_bytes - before.origin_response_bytes);
  const double to_clients =
      static_cast<double>(phases.untraced.response_bytes);
  std::fprintf(stderr,
               "context: requests=%zu windows=%lld window_size=%lld\n"
               "context: window_rps=%s\ncontext: window_p99_ms=%s\n",
               samples.size(), static_cast<long long>(windowed.windows),
               static_cast<long long>(windowed.window_size),
               JoinNumbers(windowed.rates, 1).c_str(),
               JoinNumbers(windowed.p99s, 1e-3).c_str());
  return {
      {"throughput_rps", windowed.throughput_rps, "1/s"},
      {"latency_p50_ms",
       PhasePercentile(samples, 0.5, /*ttfb=*/false) / 1e3, "ms"},
      {"latency_p99_ms", windowed.p99_us / 1e3, "ms"},
      {"ttfb_p50_ms", PhasePercentile(samples, 0.5, /*ttfb=*/true) / 1e3,
       "ms"},
      {"cpu_us_per_req",
       (phases.untraced_cpu_ns - phases.untraced.client_cpu_ns) / 1e3 / n,
       "us"},
      {"savings_pct",
       to_clients > 0 ? 100.0 * (1.0 - from_origin / to_clients) : 0.0, "%"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"setup_s", Median(setup_seconds), "s"},
  };
}

std::vector<Metric> PerLayerMetrics(const Stack& stack,
                                    const LayerTimes& layers,
                                    const Counters& before,
                                    const Counters& after,
                                    const Phases& phases,
                                    const HostProbes& host,
                                    MetricReader& reader) {
  const double n = static_cast<double>(phases.untraced.attempted +
                                       phases.traced.attempted);
  auto per_request = [&](const Scrape& from, const Scrape& to,
                         const std::string& name) {
    return reader.Delta(from, to, name) / n;
  };
  // A latency histogram's seconds, in microseconds per request.
  auto micros_per_request = [&](const Scrape& from, const Scrape& to,
                                const std::string& histogram) {
    return per_request(from, to, histogram + "_sum") * 1e6;
  };
  auto contentions = [](const auto& stats) {
    return static_cast<double>(
        stats.stripe_contentions + stats.policy_contentions +
        stats.free_list_contentions + stats.registry_contentions);
  };
  auto rate = [](const PhaseResult& phase) {
    return phase.attempted / (phase.wall_ns / 1e9);
  };
  // Checkout waits over the stack's whole life: the pool keeps no
  // per-phase histogram.
  const dynaprox::net::PoolStats pool = stack.pool().stats();
  const double net_cpu_us =
      (phases.traced_cpu_ns - phases.traced.client_cpu_ns) / 1e3 /
          static_cast<double>(phases.traced.attempted) -
      layers.dpc_cpu_us - layers.origin_cpu_us;
  const double hits = reader.Delta(before.origin, after.origin,
                                   "dynaprox_bem_directory_hits_total");
  const double misses = reader.Delta(before.origin, after.origin,
                                     "dynaprox_bem_directory_misses_total");
  return {
      {"net.dpc_wait_us", layers.dpc_wait_us, "us"},
      {"net.dpc_return_us", layers.dpc_return_us, "us"},
      {"net.upstream_wait_us", layers.upstream_wait_us, "us"},
      {"net.upstream_return_us", layers.upstream_return_us, "us"},
      {"net.cpu_us_per_req", net_cpu_us, "us"},
      {"net.pool_wait_p99_us", pool.wait_micros.Percentile(0.99), "us"},
      {"net.upstream_connects",
       reader.Delta(before.dpc, after.dpc,
                    "dynaprox_upstream_pool_connects_total"),
       "count"},
      {"dpc.self_us", layers.dpc_self_us, "us"},
      {"dpc.handler_cpu_us", layers.dpc_cpu_us, "us"},
      {"dpc.scan_us",
       micros_per_request(before.dpc, after.dpc,
                          "dynaprox_scan_duration_seconds"),
       "us"},
      {"dpc.splice_us",
       micros_per_request(before.dpc, after.dpc,
                          "dynaprox_splice_duration_seconds"),
       "us"},
      {"dpc.upstream_calls_per_req",
       per_request(before.dpc, after.dpc,
                   "dynaprox_upstream_fetch_duration_seconds_count"),
       "1/req"},
      {"dpc.sets_per_req",
       per_request(before.dpc, after.dpc, "dynaprox_store_sets_total"),
       "1/req"},
      {"dpc.gets_per_req",
       per_request(before.dpc, after.dpc, "dynaprox_store_gets_total"),
       "1/req"},
      {"dpc.template_bytes_per_req",
       per_request(before.dpc, after.dpc,
                   "dynaprox_bytes_from_upstream_total"),
       "B/req"},
      {"dpc.bytes_copied_per_req",
       per_request(before.dpc, after.dpc,
                   "dynaprox_dpc_body_bytes_copied_total"),
       "B/req"},
      {"dpc.store_mb",
       reader.At(after.dpc, "dynaprox_store_content_bytes") / (1 << 20),
       "MB"},
      {"appserver.origin_self_us", layers.origin_self_us, "us"},
      {"appserver.script_us", layers.script_us, "us"},
      {"appserver.handler_cpu_us", layers.origin_cpu_us, "us"},
      {"appserver.blocks_generated_per_req",
       per_request(before.origin, after.origin,
                   "dynaprox_origin_fragment_misses_total"),
       "1/req"},
      {"bem.lookup_us_per_req",
       micros_per_request(before.origin, after.origin,
                          "dynaprox_bem_directory_lookup_duration_seconds"),
       "us"},
      {"bem.block_exec_us_per_req",
       micros_per_request(before.origin, after.origin,
                          "dynaprox_bem_block_execution_duration_seconds"),
       "us"},
      {"bem.tag_emit_us_per_req",
       micros_per_request(before.origin, after.origin,
                          "dynaprox_bem_tag_emission_duration_seconds"),
       "us"},
      {"bem.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
       "ratio"},
      {"bem.evictions_per_req",
       per_request(before.origin, after.origin,
                   "dynaprox_bem_directory_evictions_total"),
       "1/req"},
      {"bem.contentions_per_req",
       (contentions(after.bem) - contentions(before.bem)) / n, "1/req"},
      {"bem.dependency_fragments",
       static_cast<double>(stack.monitor().dependencies().fragment_count()),
       "count"},
      {"bem.directory_entries",
       static_cast<double>(stack.monitor().directory().valid_count()),
       "count"},
      {"trace.unattributed_pct", layers.unattributed_pct, "%"},
      {"trace.overhead_pct",
       100.0 * (1.0 - rate(phases.traced) / rate(phases.untraced)), "%"},
      {"host.cpu_probe_us", host.cpu_probe_us, "us"},
      {"host.loopback_rtt_us", host.loopback_rtt_us, "us"},
      {"host.steal_pct", host.steal_pct, "%"},
  };
}

int RunBenchmark(const Options& options) {
  const Workload& workload = *options.workload;

  // Host context, recorded and never used to adjust a metric.
  HostProbes host;
  host.cpu_probe_us = CpuProbeMicros();
  Result<double> loopback_rtt_us = LoopbackRttMicros();
  if (!loopback_rtt_us.ok()) return Fail(loopback_rtt_us.status());
  host.loopback_rtt_us = *loopback_rtt_us;

  // The same request count in every run of a workload.
  const int64_t requests = options.seconds * workload.requests_per_second;
  std::vector<Sample> samples(static_cast<size_t>(requests));

  std::unique_ptr<Stack> stack;
  std::unique_ptr<LoadGenerator> load;
  std::vector<double> setup_seconds;
  int64_t warmup_failed = 0;
  for (int setup = 0; setup < kSetups; ++setup) {
    load.reset();
    stack.reset();
    const int64_t start = NowNanos();
    Result<std::unique_ptr<Stack>> started =
        Stack::Start(workload, options.seed, options.trace);
    if (!started.ok()) return Fail(started.status());
    stack = std::move(*started);
    Result<std::unique_ptr<LoadGenerator>> connected = LoadGenerator::Connect(
        workload, options.seed, stack->port(), kConnections);
    if (!connected.ok()) return Fail(connected.status());
    load = std::move(*connected);
    warmup_failed += load->Run(workload.warmup_requests, 'w', nullptr).failed;
    setup_seconds.push_back((NowNanos() - start) / 1e9);
  }

  // One untraced phase, or untraced and traced phases alternating.
  const Counters before = ReadCounters(*stack);
  const CpuTicks ticks_before = ReadCpuTicks();
  const int phase_count = options.trace ? kTracedPhases : 1;
  Phases phases;
  int64_t done = 0;
  for (int phase = 0; phase < phase_count; ++phase) {
    const bool traced = options.trace && phase % 2 == 1;
    const int64_t count = phase == phase_count - 1
                              ? requests - done
                              : requests / phase_count;
    const int64_t cpu_start = ProcessCpuNanos();
    PhaseResult result =
        load->Run(count, traced ? 't' : 'u', samples.data() + done);
    (traced ? phases.traced_cpu_ns : phases.untraced_cpu_ns) +=
        ProcessCpuNanos() - cpu_start;
    PhaseResult& total = traced ? phases.traced : phases.untraced;
    total.attempted += result.attempted;
    total.failed += result.failed;
    total.wall_ns += result.wall_ns;
    total.client_cpu_ns += result.client_cpu_ns;
    total.response_bytes += result.response_bytes;
    done += count;
  }
  const double peak_rss_mb = PeakRssMb();
  const CpuTicks ticks_after = ReadCpuTicks();
  const Counters after = ReadCounters(*stack);
  const uint64_t ticks = ticks_after.total - ticks_before.total;
  host.steal_pct =
      ticks == 0 ? 0.0
                 : 100.0 * (ticks_after.steal - ticks_before.steal) / ticks;

  MetricReader reader;
  const int64_t failed = phases.untraced.failed + phases.traced.failed;
  const double template_errors =
      reader.At(after.dpc, "dynaprox_template_errors_total");
  const double upstream_errors =
      reader.At(after.dpc, "dynaprox_upstream_errors_total");
  const bool correct = failed == 0 && warmup_failed == 0 &&
                       template_errors == 0 && upstream_errors == 0;
  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = EndToEndMetrics(samples, before, after, phases, peak_rss_mb,
                              setup_seconds);
  } else {
    stack->StopServing();
    std::vector<Span> spans = CollectSpans();
    const LayerTimes layers = AnalyzeSpans(&spans);
    const std::string span_path =
        options.span_dir + "/" + workload.name + ".csv";
    if (Status written = WriteSpans(spans, span_path); !written.ok()) {
      return Fail(written);
    }
    std::fprintf(stderr,
                 "context: requests=%lld traced=%lld spans=%zu "
                 "span_file=%s\n",
                 static_cast<long long>(requests),
                 static_cast<long long>(layers.requests), spans.size(),
                 span_path.c_str());
    metrics = PerLayerMetrics(*stack, layers, before, after, phases, host,
                              reader);
  }
  std::fprintf(stderr,
               "context: workload=%s seed=%llu connections=%d "
               "host.cpu_probe_us=%.1f host.loopback_rtt_us=%.2f "
               "host.steal_pct=%.2f setup_s=%s warmup_failed=%lld "
               "template_errors=%.0f upstream_errors=%.0f\n",
               workload.name, static_cast<unsigned long long>(options.seed),
               kConnections, host.cpu_probe_us, host.loopback_rtt_us,
               host.steal_pct,
               JoinNumbers(setup_seconds, 1).c_str(),
               static_cast<long long>(warmup_failed), template_errors,
               upstream_errors);
  if (!reader.missing().empty()) {
    for (const std::string& name : reader.missing()) {
      std::fprintf(stderr, "perfbench: metric %s is not exported\n",
                   name.c_str());
    }
    return 1;
  }
  load.reset();
  stack.reset();
  PrintResult(correct, requests, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  dynaprox::Result<perfbench::Options> options =
      perfbench::ParseOptions(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 options.status().ToString().c_str());
    return 2;
  }
  return perfbench::RunBenchmark(*options);
}
