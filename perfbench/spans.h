#ifndef DYNAPROX_PERFBENCH_SPANS_H_
#define DYNAPROX_PERFBENCH_SPANS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "appserver/script_registry.h"
#include "common/status.h"
#include "http/message.h"
#include "net/transport.h"

namespace perfbench {

// Span recording for the traced run. The benchmark wraps each layer's
// public entry point from its own code; nothing inside the program is
// instrumented. A request is traced when its X-DPC-Request-Id (set by the
// client, forwarded by the DPC) carries the tag 't', so one request's
// spans join across both tiers by id.

enum class SpanName : uint8_t {
  kClient,        // Load generator: request write to last body byte.
  kDpcHandle,     // The net::Handler given to the DPC's server.
  kUpstream,      // net::Transport::RoundTrip on the DPC's origin link.
  kOriginHandle,  // The net::Handler given to the origin's server.
  kScript,        // The origin's /page script.
};

struct Span {
  uint64_t request = 0;
  SpanName name = SpanName::kClient;
  int64_t start_ns = 0;  // Steady clock.
  int64_t end_ns = 0;
  // The recording thread's CPU time over the span; handler spans only.
  int64_t cpu_ns = 0;
  // Index of the causing span in the analysed vector; -1 for a root.
  // Filled in by AnalyzeSpans.
  int64_t parent = -1;
};

int64_t NowNanos();
int64_t ThreadCpuNanos();

// The X-DPC-Request-Id value the client sends: `tag` ('t' marks a
// traced request) followed by the request's index in hex.
std::string RequestIdValue(char tag, uint64_t index);

// Appends to the calling thread's buffer without locking; the buffers
// live until the process exits.
void RecordSpan(const Span& span);

// Every span recorded so far. Call only once every recording thread has
// been joined.
std::vector<Span> CollectSpans();

// Entry-point wrappers a traced Stack installs. Untraced requests pass
// straight through.
dynaprox::net::Handler TraceHandler(SpanName name,
                                    dynaprox::net::Handler inner);
dynaprox::appserver::ScriptFn TraceScript(
    dynaprox::appserver::ScriptFn inner);
// Decorates `inner` (not owned), forwarding RoundTripStreaming too; a
// streamed round trip's span ends when its body is drained or dropped.
std::unique_ptr<dynaprox::net::Transport> TraceTransport(
    dynaprox::net::Transport* inner);

// Mean microseconds per traced request. A layer's self time is its span
// minus the part of it that its child spans cover; the waits are the
// gaps between a span and its child on the next tier. When every span
// of a request is present and nested, the layers sum to the client time.
struct LayerTimes {
  int64_t requests = 0;  // Traced requests (client spans).
  double client_us = 0;
  double dpc_wait_us = 0;        // Client write -> DPC handler entry.
  double dpc_self_us = 0;        // DPC handler minus its round trips.
  double dpc_return_us = 0;      // DPC handler return -> last byte.
  double upstream_wait_us = 0;   // RoundTrip start -> origin handler.
  double origin_self_us = 0;     // Origin handler minus the script.
  double script_us = 0;          // The /page script.
  double upstream_return_us = 0; // Origin handler return -> RoundTrip end.
  double dpc_cpu_us = 0;         // DPC handler thread CPU.
  double origin_cpu_us = 0;      // Origin handler thread CPU.
  // Share of the client mean the layers above leave uncovered.
  double unattributed_pct = 0;
};

// Sorts `spans` by request, fills in their parent links and returns the
// layer times.
LayerTimes AnalyzeSpans(std::vector<Span>* spans);

// Writes analysed spans as CSV: id,parent,request,name,start_ns,end_ns,
// cpu_ns.
dynaprox::Status WriteSpans(const std::vector<Span>& spans,
                            const std::string& path);

}  // namespace perfbench

#endif  // DYNAPROX_PERFBENCH_SPANS_H_
