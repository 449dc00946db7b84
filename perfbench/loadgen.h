#ifndef DYNAPROX_PERFBENCH_LOADGEN_H_
#define DYNAPROX_PERFBENCH_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "stack.h"
#include "workload/request_stream.h"

namespace perfbench {

// One request as the client saw it.
struct Sample {
  int64_t done_ns = 0;   // Last body byte, from the phase start.
  float latency_us = 0;  // Request write -> last body byte.
  float ttfb_us = 0;     // Request write -> first body byte.
  bool failed = false;
};

struct PhaseResult {
  int64_t attempted = 0;
  // Transport error, non-200 status, or a body that fails
  // BodyMatchesPage. Counted, never retried.
  int64_t failed = 0;
  int64_t wall_ns = 0;
  int64_t client_cpu_ns = 0;  // The load-generator threads' own CPU.
  // DPC -> client response bytes as received, heads included.
  int64_t response_bytes = 0;
};

// Closed-loop load: one thread per keep-alive connection, each sending
// its next request only when the previous response has fully arrived.
// All threads draw pages lazily from one Zipf(1) RequestStream, so a seed
// fixes the sequence of pages whichever connection sends each one.
class LoadGenerator {
 public:
  static dynaprox::Result<std::unique_ptr<LoadGenerator>> Connect(
      const Workload& workload, uint64_t seed, uint16_t port,
      int connections);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  // Sends the stream's next `count` requests and returns when all have
  // completed. Request ids carry `id_tag` ('t' = traced: the client span
  // is recorded too). `samples`, when set, has room for `count` entries,
  // stored in the order the requests were drawn.
  PhaseResult Run(int64_t count, char id_tag, Sample* samples);

 private:
  LoadGenerator(const Workload& workload, uint64_t seed, uint16_t port);

  // Runs one request on `*fd`, redialling first when it is closed, and
  // adds the bytes it receives to `*received`. A transport failure also
  // closes `*fd`.
  dynaprox::Status Exchange(int* fd, int page, const std::string& wire,
                            std::vector<char>& buffer, int64_t* start_ns,
                            int64_t* first_byte_ns, int64_t* end_ns,
                            int64_t* received);

  const Workload& workload_;
  const uint16_t port_;
  std::mutex mu_;
  dynaprox::workload::RequestStream stream_;  // Guarded by mu_.
  uint64_t drawn_ = 0;                        // Guarded by mu_.
  std::vector<int> fds_;
  // Failures reported on stderr so far; the first few are, with reasons.
  std::atomic<int> failures_logged_{0};
};

}  // namespace perfbench

#endif  // DYNAPROX_PERFBENCH_LOADGEN_H_
