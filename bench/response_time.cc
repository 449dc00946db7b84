// Deployment-claim bench: "order-of-magnitude reductions in ... end-to-end
// response times" (Sections 1/8). Prints the latency-model comparison of
// no-cache vs DPC response times across hit ratios, for both the
// server-side view (what the financial-institution deployment measured)
// and a WAN-inclusive end-user view.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analytical/model.h"
#include "bem/protocol.h"
#include "bem/tag_codec.h"
#include "bench_util.h"
#include "common/buffer_chain.h"
#include "dpc/proxy.h"
#include "net/connection_pool.h"
#include "net/tcp.h"
#include "sim/latency.h"

namespace {

void PrintSeries(const char* label, dynaprox::sim::LatencyParams latency,
                 dynaprox::analytical::ModelParams params) {
  std::printf("--- %s ---\n", label);
  std::printf("%10s %14s %14s %10s %12s %12s\n", "hitRatio", "noCache(ms)",
              "withDpc(ms)", "speedup", "p50 speedup", "p99 speedup");
  for (double h : {0.0, 0.5, 0.8, 0.9, 0.95, 0.98, 1.0}) {
    params.hit_ratio = h;
    double no_cache =
        dynaprox::sim::ExpectedResponseTimeNoCacheMs(latency, params);
    double with_cache =
        dynaprox::sim::ExpectedResponseTimeWithCacheMs(latency, params);
    // Percentiles come from the same bucketed histograms the servers
    // export at /_dynaprox/metrics, so a bench speedup and a PromQL
    // histogram_quantile() ratio are computed the same way.
    dynaprox::metrics::LatencyHistogram no_cache_hist(
        dynaprox::benchutil::LatencyMsBounds());
    dynaprox::metrics::LatencyHistogram with_cache_hist(
        dynaprox::benchutil::LatencyMsBounds());
    dynaprox::sim::SampleResponseTimesInto(latency, params, 20000, 42,
                                           &no_cache_hist, &with_cache_hist);
    auto no_cache_snap = no_cache_hist.snapshot();
    auto with_cache_snap = with_cache_hist.snapshot();
    std::printf("%10.2f %14.2f %14.2f %9.1fx %11.1fx %11.1fx\n", h,
                no_cache, with_cache, no_cache / with_cache,
                no_cache_snap.Percentile(0.5) /
                    with_cache_snap.Percentile(0.5),
                no_cache_snap.Percentile(0.99) /
                    with_cache_snap.Percentile(0.99));
  }
}

// --- Measured TTFB: the DPC's scan-and-splice pipeline ------------------
//
// A paced origin emits a template in 16KB chunks, ~250us apart (a stand-in
// for generation time at the application server). The DPC flushes
// assembled head bytes as they resolve, so time-to-first-byte stays at
// roughly one chunk regardless of size, while the last byte arrives with
// the last chunk.

// Origin body stream: the template in paced chunks.
class PacedTemplateStream : public dynaprox::http::BodyStream {
 public:
  PacedTemplateStream(dynaprox::common::Buffer wire, size_t chunk_bytes,
                      dynaprox::MicroTime pace_micros)
      : wire_(std::move(wire)),
        chunk_bytes_(chunk_bytes),
        pace_micros_(pace_micros) {}

  dynaprox::Result<dynaprox::common::BufferChain> Next() override {
    if (at_ >= wire_->size()) return dynaprox::common::BufferChain();
    if (at_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(pace_micros_));
    }
    std::string_view bytes(*wire_);
    dynaprox::common::BufferChain out;
    out.Append(wire_, bytes.substr(at_, chunk_bytes_));
    at_ += std::min(chunk_bytes_, wire_->size() - at_);
    return out;
  }

 private:
  dynaprox::common::Buffer wire_;
  size_t chunk_bytes_;
  dynaprox::MicroTime pace_micros_;
  size_t at_ = 0;
};

// Client-measured time from sending the request to the first body byte,
// and to the last, via the streaming client.
struct TtfbSample {
  double ttfb_ms = 0;
  double total_ms = 0;
  size_t body_bytes = 0;
};

TtfbSample MeasureOnce(dynaprox::net::Transport& client,
                       const dynaprox::http::Request& request) {
  using Clock = std::chrono::steady_clock;
  TtfbSample sample;
  auto start = Clock::now();
  auto streaming = client.RoundTripStreaming(request);
  if (!streaming.ok()) abort();
  bool first = true;
  for (;;) {
    auto chunk = streaming->body->Next();
    if (!chunk.ok()) abort();
    if (chunk->empty()) break;
    if (first) {
      sample.ttfb_ms = std::chrono::duration<double, std::milli>(
                           Clock::now() - start)
                           .count();
      first = false;
    }
    sample.body_bytes += chunk->size();
  }
  sample.total_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  return sample;
}

constexpr size_t kChunkBytes = 16 * 1024;
constexpr dynaprox::MicroTime kPaceMicros = 250;

void PrintTtfbSweep() {
  std::printf(
      "--- measured TTFB: DPC scan-and-splice pipeline ---\n"
      "(origin paces the template at 16KB per %lldus; loopback sockets)\n",
      static_cast<long long>(kPaceMicros));
  std::printf("%12s %14s %14s\n", "template", "first byte(ms)",
              "last byte(ms)");

  for (size_t size : {size_t{4} << 10, size_t{64} << 10, size_t{256} << 10,
                      size_t{1} << 20}) {
    // Template: literal head, one SET fragment, literal tail — the scan
    // and splice run for real, but the page is mostly literal bytes.
    std::string wire = "<html><head>ttfb sweep</head><body>";
    dynaprox::bem::TagCodec::AppendSet(1, std::string(512, 'f'), wire);
    while (wire.size() < size) {
      wire.append(std::string(std::min(size - wire.size(), size_t{1024}),
                              'p'));
    }
    wire += "</body></html>";
    dynaprox::common::Buffer shared_wire =
        dynaprox::common::MakeBuffer(std::move(wire));

    dynaprox::net::TcpServer origin([shared_wire](
                                        const dynaprox::http::Request&) {
      dynaprox::http::Response response;
      response.headers.Set(dynaprox::bem::kTemplateHeader, "1");
      response.body_stream = std::make_shared<PacedTemplateStream>(
          shared_wire, kChunkBytes, kPaceMicros);
      return response;
    });
    if (!origin.Start().ok()) abort();

    dynaprox::net::PooledTransportOptions pool_options;
    pool_options.pool.max_connections = 2;
    dynaprox::net::PooledClientTransport upstream("127.0.0.1", origin.port(),
                                                  pool_options);
    dynaprox::dpc::ProxyOptions options;
    options.capacity = 64;
    dynaprox::dpc::DpcProxy proxy(&upstream, options);
    dynaprox::net::TcpServer front(proxy.AsHandler());
    if (!front.Start().ok()) abort();
    dynaprox::net::PooledClientTransport client("127.0.0.1", front.port());
    dynaprox::http::Request request;
    request.target = "/ttfb";
    constexpr int kRounds = 5;
    double best_ttfb = 1e9, best_total = 1e9;
    for (int round = 0; round < kRounds; ++round) {
      TtfbSample sample = MeasureOnce(client, request);
      best_ttfb = std::min(best_ttfb, sample.ttfb_ms);
      best_total = std::min(best_total, sample.total_ms);
    }
    front.Stop();
    origin.Stop();

    char label[32];
    std::snprintf(label, sizeof(label), "%zuKB", size >> 10);
    std::printf("%12s %14.2f %14.2f\n", label, best_ttfb, best_total);
  }
  std::printf(
      "expectation: first byte stays ~flat at one chunk's pacing; last "
      "byte grows ~linearly with template size (it is the full "
      "transfer)\n");
}

}  // namespace

int main() {
  using dynaprox::analytical::ModelParams;
  ModelParams params = ModelParams::Table2Baseline();
  params.cacheability = 1.0;  // The deployment tagged its whole page set.
  dynaprox::benchutil::PrintHeader(
      "Response-time claim",
      "End-to-end latency, no-cache vs DPC (latency model)", params);

  dynaprox::sim::LatencyParams server_side;
  server_side.wan_rtt_ms = 0;
  server_side.wan_bytes_per_ms = 0;
  PrintSeries("server-side latency (deployment metric)", server_side,
              params);

  dynaprox::sim::LatencyParams end_user;  // Defaults include the WAN leg.
  PrintSeries("end-user latency (reverse proxy: WAN leg unchanged)",
              end_user, params);

  std::printf(
      "expectation: server-side speedup exceeds 10x as h -> 1; end-user "
      "speedup is WAN-bounded (the paper's motivation for forward-proxy "
      "mode, Section 7)\n");

  PrintTtfbSweep();
  dynaprox::benchutil::PrintFooter();
  return 0;
}
