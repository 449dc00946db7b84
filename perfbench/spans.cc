#include "spans.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "bem/protocol.h"
#include "common/strings.h"

namespace perfbench {
namespace {

using dynaprox::Result;
using dynaprox::Status;
namespace http = dynaprox::http;
namespace net = dynaprox::net;

struct SpanBuffers {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;  // Guarded by mu.
};

SpanBuffers& AllBuffers() {
  static SpanBuffers buffers;
  return buffers;
}

thread_local std::vector<Span>* thread_spans = nullptr;

constexpr int kSpanNames = static_cast<int>(SpanName::kScript) + 1;

// The request index of a traced request; false for any other.
bool TracedRequest(const http::Request& request, uint64_t* index) {
  std::optional<std::string_view> id =
      request.headers.Get(dynaprox::bem::kRequestIdHeader);
  if (!id.has_value() || id->size() < 2 || id->front() != 't') return false;
  Result<uint64_t> parsed = dynaprox::ParseHex(id->substr(1));
  if (!parsed.ok()) return false;
  *index = *parsed;
  return true;
}

const char* NameString(SpanName name) {
  switch (name) {
    case SpanName::kClient: return "client";
    case SpanName::kDpcHandle: return "dpc.handle";
    case SpanName::kUpstream: return "upstream.round_trip";
    case SpanName::kOriginHandle: return "origin.handle";
    case SpanName::kScript: return "appserver.page_script";
  }
  return "unknown";
}

// Ends its span when the body is drained, fails, or is dropped early.
class TracedBody : public http::BodyStream {
 public:
  TracedBody(std::unique_ptr<http::BodyStream> inner, Span span)
      : inner_(std::move(inner)), span_(span) {}
  ~TracedBody() override { Finish(); }

  Result<dynaprox::common::BufferChain> Next() override {
    Result<dynaprox::common::BufferChain> chunk = inner_->Next();
    if (!chunk.ok() || chunk->empty()) Finish();
    return chunk;
  }

 private:
  void Finish() {
    if (finished_) return;
    finished_ = true;
    span_.end_ns = NowNanos();
    RecordSpan(span_);
  }

  std::unique_ptr<http::BodyStream> inner_;
  Span span_;
  bool finished_ = false;
};

class TracedTransport : public net::Transport {
 public:
  explicit TracedTransport(net::Transport* inner) : inner_(inner) {}

  Result<http::Response> RoundTrip(const http::Request& request) override {
    Span span;
    if (!TracedRequest(request, &span.request)) {
      return inner_->RoundTrip(request);
    }
    span.name = SpanName::kUpstream;
    span.start_ns = NowNanos();
    Result<http::Response> response = inner_->RoundTrip(request);
    span.end_ns = NowNanos();
    RecordSpan(span);
    return response;
  }

  Result<net::StreamingResponse> RoundTripStreaming(
      const http::Request& request) override {
    Span span;
    if (!TracedRequest(request, &span.request)) {
      return inner_->RoundTripStreaming(request);
    }
    span.name = SpanName::kUpstream;
    span.start_ns = NowNanos();
    Result<net::StreamingResponse> response =
        inner_->RoundTripStreaming(request);
    if (!response.ok()) {
      span.end_ns = NowNanos();
      RecordSpan(span);
      return response;
    }
    response->body =
        std::make_unique<TracedBody>(std::move(response->body), span);
    return response;
  }

 private:
  net::Transport* inner_;
};

// Length of the union of `children` clipped to `parent`; `children` are
// sorted by start.
int64_t Covered(const Span& parent, const std::vector<const Span*>& children) {
  int64_t covered = 0;
  int64_t reach = parent.start_ns;
  for (const Span* child : children) {
    int64_t begin = std::max(child->start_ns, reach);
    int64_t end = std::min(child->end_ns, parent.end_ns);
    if (end > begin) {
      covered += end - begin;
      reach = end;
    }
  }
  return covered;
}

bool Contains(const Span& outer, const Span& inner) {
  return inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns;
}

}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::string RequestIdValue(char tag, uint64_t index) {
  std::string id = dynaprox::ToHex(index);
  id.insert(id.begin(), tag);
  return id;
}

void RecordSpan(const Span& span) {
  if (thread_spans == nullptr) {
    SpanBuffers& all = AllBuffers();
    std::lock_guard<std::mutex> lock(all.mu);
    all.buffers.push_back(std::make_unique<std::vector<Span>>());
    thread_spans = all.buffers.back().get();
    thread_spans->reserve(1 << 16);
  }
  thread_spans->push_back(span);
}

std::vector<Span> CollectSpans() {
  SpanBuffers& all = AllBuffers();
  std::lock_guard<std::mutex> lock(all.mu);
  std::vector<Span> spans;
  for (const auto& buffer : all.buffers) {
    spans.insert(spans.end(), buffer->begin(), buffer->end());
  }
  return spans;
}

net::Handler TraceHandler(SpanName name, net::Handler inner) {
  return [name, inner = std::move(inner)](const http::Request& request) {
    Span span;
    if (!TracedRequest(request, &span.request)) return inner(request);
    span.name = name;
    const int64_t cpu_start = ThreadCpuNanos();
    span.start_ns = NowNanos();
    http::Response response = inner(request);
    span.end_ns = NowNanos();
    span.cpu_ns = ThreadCpuNanos() - cpu_start;
    RecordSpan(span);
    return response;
  };
}

dynaprox::appserver::ScriptFn TraceScript(
    dynaprox::appserver::ScriptFn inner) {
  return [inner = std::move(inner)](
             dynaprox::appserver::ScriptContext& context) {
    Span span;
    if (!TracedRequest(context.request(), &span.request)) {
      return inner(context);
    }
    span.name = SpanName::kScript;
    span.start_ns = NowNanos();
    Status status = inner(context);
    span.end_ns = NowNanos();
    RecordSpan(span);
    return status;
  };
}

std::unique_ptr<net::Transport> TraceTransport(net::Transport* inner) {
  return std::make_unique<TracedTransport>(inner);
}

LayerTimes AnalyzeSpans(std::vector<Span>* spans) {
  std::sort(spans->begin(), spans->end(), [](const Span& a, const Span& b) {
    if (a.request != b.request) return a.request < b.request;
    if (a.name != b.name) return a.name < b.name;
    return a.start_ns < b.start_ns;
  });
  LayerTimes sums;
  std::vector<Span>& all = *spans;
  size_t begin = 0;
  while (begin < all.size()) {
    size_t end = begin;
    while (end < all.size() && all[end].request == all[begin].request) ++end;
    // One request's spans, grouped by name in SpanName order.
    std::vector<const Span*> by_name[kSpanNames];
    for (size_t i = begin; i < end; ++i) {
      by_name[static_cast<int>(all[i].name)].push_back(&all[i]);
    }
    auto index = [&all](const Span* span) { return span - all.data(); };
    const auto& clients = by_name[static_cast<int>(SpanName::kClient)];
    const auto& handles = by_name[static_cast<int>(SpanName::kDpcHandle)];
    const auto& trips = by_name[static_cast<int>(SpanName::kUpstream)];
    const auto& origins = by_name[static_cast<int>(SpanName::kOriginHandle)];
    const auto& scripts = by_name[static_cast<int>(SpanName::kScript)];
    if (clients.size() != 1) {
      begin = end;
      continue;
    }
    const Span& client = *clients.front();
    ++sums.requests;
    sums.client_us += (client.end_ns - client.start_ns) / 1e3;
    const Span* handle = handles.empty() ? nullptr : handles.front();
    if (handle != nullptr) {
      all[index(handle)].parent = index(&client);
      sums.dpc_wait_us += (handle->start_ns - client.start_ns) / 1e3;
      sums.dpc_return_us += (client.end_ns - handle->end_ns) / 1e3;
      sums.dpc_self_us +=
          (handle->end_ns - handle->start_ns - Covered(*handle, trips)) / 1e3;
      sums.dpc_cpu_us += handle->cpu_ns / 1e3;
    }
    for (const Span* trip : trips) {
      all[index(trip)].parent =
          handle != nullptr ? index(handle) : index(&client);
    }
    for (const Span* origin : origins) {
      auto trip = std::find_if(trips.begin(), trips.end(),
                               [origin](const Span* candidate) {
                                 return Contains(*candidate, *origin);
                               });
      if (trip != trips.end()) {
        all[index(origin)].parent = index(*trip);
        sums.upstream_wait_us += (origin->start_ns - (*trip)->start_ns) / 1e3;
        sums.upstream_return_us += ((*trip)->end_ns - origin->end_ns) / 1e3;
      }
      std::vector<const Span*> inside;
      for (const Span* script : scripts) {
        if (!Contains(*origin, *script)) continue;
        all[index(script)].parent = index(origin);
        sums.script_us += (script->end_ns - script->start_ns) / 1e3;
        inside.push_back(script);
      }
      sums.origin_self_us +=
          (origin->end_ns - origin->start_ns - Covered(*origin, inside)) /
          1e3;
      sums.origin_cpu_us += origin->cpu_ns / 1e3;
    }
    begin = end;
  }
  if (sums.requests == 0) return sums;
  LayerTimes mean = sums;
  const double n = static_cast<double>(sums.requests);
  for (double* field :
       {&mean.client_us, &mean.dpc_wait_us, &mean.dpc_self_us,
        &mean.dpc_return_us, &mean.upstream_wait_us, &mean.origin_self_us,
        &mean.script_us, &mean.upstream_return_us, &mean.dpc_cpu_us,
        &mean.origin_cpu_us}) {
    *field /= n;
  }
  const double attributed = mean.dpc_wait_us + mean.dpc_self_us +
                            mean.dpc_return_us + mean.upstream_wait_us +
                            mean.origin_self_us + mean.script_us +
                            mean.upstream_return_us;
  mean.unattributed_pct =
      mean.client_us > 0
          ? 100.0 * (mean.client_us - attributed) / mean.client_us
          : 0.0;
  return mean;
}

Status WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IoError("cannot write " + path);
  std::fprintf(out, "id,parent,request,name,start_ns,end_ns,cpu_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::fprintf(out, "%zu,%lld,%llu,%s,%lld,%lld,%lld\n", i,
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 NameString(span.name),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.cpu_ns));
  }
  if (std::fclose(out) != 0) return Status::IoError("cannot close " + path);
  return Status::Ok();
}

}  // namespace perfbench
