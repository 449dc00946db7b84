#include "loadgen.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <thread>

#include "bem/protocol.h"
#include "common/strings.h"
#include "http/parser.h"
#include "net/socket_util.h"
#include "spans.h"

namespace perfbench {
namespace {

using dynaprox::Result;
using dynaprox::Status;

// Bounds a stalled exchange; run.py's limit on a whole run is longer.
constexpr dynaprox::MicroTime kClientIoTimeoutMicros =
    30 * dynaprox::kMicrosPerSecond;
constexpr size_t kReadBufferBytes = 64 * 1024;
constexpr int kFailuresLogged = 5;

Result<int> Dial(uint16_t port) {
  return dynaprox::net::DialTcp("127.0.0.1", port, kClientIoTimeoutMicros);
}

void CloseFd(int* fd) {
  if (*fd >= 0) ::close(*fd);
  *fd = -1;
}

}  // namespace

LoadGenerator::LoadGenerator(const Workload& workload, uint64_t seed,
                             uint16_t port)
    : workload_(workload),
      port_(port),
      stream_(workload.pages, /*alpha=*/1.0, seed) {}

Result<std::unique_ptr<LoadGenerator>> LoadGenerator::Connect(
    const Workload& workload, uint64_t seed, uint16_t port,
    int connections) {
  std::unique_ptr<LoadGenerator> generator(
      new LoadGenerator(workload, seed, port));
  for (int i = 0; i < connections; ++i) {
    Result<int> fd = Dial(port);
    if (!fd.ok()) return fd.status();
    generator->fds_.push_back(*fd);
  }
  return generator;
}

LoadGenerator::~LoadGenerator() {
  for (int& fd : fds_) CloseFd(&fd);
}

Status LoadGenerator::Exchange(int* fd, int page, const std::string& wire,
                               std::vector<char>& buffer, int64_t* start_ns,
                               int64_t* first_byte_ns, int64_t* end_ns,
                               int64_t* received) {
  *start_ns = NowNanos();
  *first_byte_ns = *end_ns = *start_ns;
  if (*fd < 0) {
    Result<int> redialled = Dial(port_);
    if (!redialled.ok()) return redialled.status();
    *fd = *redialled;
  }
  if (Status sent = dynaprox::net::SendAll(*fd, wire); !sent.ok()) {
    CloseFd(fd);
    return sent;
  }
  dynaprox::http::StreamingResponseReader reader;
  std::optional<int> status;
  std::string body;
  body.reserve(static_cast<size_t>(workload_.fragment_size) *
               workload_.fragments_per_page);
  while (!status.has_value() || !reader.body_complete()) {
    ssize_t n = ::recv(*fd, buffer.data(), buffer.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      CloseFd(fd);
      return Status::IoError(n == 0 ? "connection closed mid-response"
                                    : "recv failed");
    }
    const int64_t now = NowNanos();
    *received += n;
    reader.Feed(std::string_view(buffer.data(), static_cast<size_t>(n)));
    if (!status.has_value()) {
      std::optional<Result<dynaprox::http::Response>> head =
          reader.NextHead();
      if (!head.has_value()) continue;
      if (!head->ok()) {
        CloseFd(fd);
        return head->status();
      }
      status = (*head)->status_code;
    }
    std::string chunk = reader.TakeBody();
    if (!chunk.empty()) {
      if (body.empty()) *first_byte_ns = now;
      body += chunk;
    }
    if (reader.failed()) {
      CloseFd(fd);
      return reader.status();
    }
    *end_ns = now;
  }
  if (reader.excess_bytes() != 0) {
    CloseFd(fd);
    return Status::Corruption("bytes beyond the response");
  }
  if (*status != 200) {
    return Status::Internal("HTTP " + std::to_string(*status));
  }
  if (!BodyMatchesPage(workload_, page, body)) {
    return Status::Corruption("body is not page " + std::to_string(page) +
                              " (" + std::to_string(body.size()) +
                              " bytes)");
  }
  return Status::Ok();
}

PhaseResult LoadGenerator::Run(int64_t count, char id_tag,
                               Sample* samples) {
  PhaseResult result;
  result.attempted = count;
  int64_t claimed = 0;
  std::mutex result_mu;
  const int64_t phase_start = NowNanos();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < fds_.size(); ++c) {
    threads.emplace_back([&, c] {
      std::vector<char> buffer(kReadBufferBytes);
      int64_t failed = 0;
      int64_t received = 0;
      for (;;) {
        int64_t slot;
        uint64_t index;
        dynaprox::http::Request request;
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (claimed == count) break;
          slot = claimed++;
          index = drawn_++;
          request = stream_.Next();
        }
        Result<uint64_t> page =
            dynaprox::ParseUint64(request.QueryParams()["id"]);
        request.headers.Set(dynaprox::bem::kRequestIdHeader,
                            RequestIdValue(id_tag, index));
        int64_t start_ns = NowNanos();
        int64_t first_byte_ns = start_ns;
        int64_t end_ns = start_ns;
        const Status status =
            !page.ok() ? page.status()
                       : Exchange(&fds_[c], static_cast<int>(*page),
                                  request.Serialize(), buffer, &start_ns,
                                  &first_byte_ns, &end_ns, &received);
        const bool ok = status.ok();
        if (!ok) {
          ++failed;
          if (failures_logged_.fetch_add(1) < kFailuresLogged) {
            std::fprintf(stderr, "perfbench: request %s failed: %s\n",
                         RequestIdValue(id_tag, index).c_str(),
                         status.ToString().c_str());
          }
        }
        if (samples != nullptr) {
          Sample& sample = samples[slot];
          sample.done_ns = end_ns - phase_start;
          sample.latency_us = static_cast<float>((end_ns - start_ns) / 1e3);
          sample.ttfb_us =
              static_cast<float>((first_byte_ns - start_ns) / 1e3);
          sample.failed = !ok;
        }
        if (id_tag == 't') {
          Span span;
          span.request = index;
          span.name = SpanName::kClient;
          span.start_ns = start_ns;
          span.end_ns = end_ns;
          RecordSpan(span);
        }
      }
      const int64_t cpu = ThreadCpuNanos();
      std::lock_guard<std::mutex> lock(result_mu);
      result.failed += failed;
      result.client_cpu_ns += cpu;
      result.response_bytes += received;
    });
  }
  for (std::thread& thread : threads) thread.join();
  result.wall_ns = NowNanos() - phase_start;
  return result;
}

}  // namespace perfbench
