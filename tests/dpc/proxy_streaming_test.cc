// DpcProxy's one serving pipeline: the commit rule (a response whose
// declared length has arrived is served whole, one whose template is still
// in flight is committed as a chunked stream), inline cold-cache recovery,
// the completion step's hooks, pre- vs post-commit failure semantics, and
// byte accounting — in-process via DirectTransport and scripted chunked
// upstreams, and end-to-end over real sockets with a pooled upstream.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bem/protocol.h"
#include "bem/tag_codec.h"
#include "common/strings.h"
#include "dpc/proxy.h"
#include "net/circuit_breaker.h"
#include "net/connection_pool.h"
#include "net/epoll_server.h"
#include "net/tcp.h"

namespace dynaprox::dpc {
namespace {

ProxyOptions SmallProxy() {
  ProxyOptions options;
  options.capacity = 16;
  return options;
}

std::string DrainStream(http::BodyStream& stream, Status* status = nullptr) {
  std::string out;
  for (;;) {
    Result<common::BufferChain> chunk = stream.Next();
    if (!chunk.ok()) {
      if (status != nullptr) *status = chunk.status();
      return out;
    }
    if (chunk->empty()) {
      if (status != nullptr) *status = Status::Ok();
      return out;
    }
    out += chunk->Flatten();
  }
}

// Handle() plus draining a committed stream: what a hosting server does.
std::string HandleAndDrain(DpcProxy& proxy, const http::Request& request,
                           http::Response* head_out = nullptr,
                           Status* status = nullptr) {
  http::Response response = proxy.Handle(request);
  if (head_out != nullptr) *head_out = response;
  if (response.body_stream == nullptr) {
    if (status != nullptr) *status = Status::Ok();
    return response.BodyText();
  }
  return DrainStream(*response.body_stream, status);
}

http::Response TemplateResponse(std::string body) {
  http::Response response = http::Response::MakeOk(std::move(body));
  response.headers.Set(bem::kTemplateHeader, "1");
  return response;
}

// The FakeOrigin of proxy_test.cc: SET on first sight of a key, GET
// after, honoring the refresh protocol.
class FakeOrigin {
 public:
  http::Response Handle(const http::Request& request) {
    ++requests_;
    if (auto refresh = request.headers.Get(bem::kRefreshHeader);
        refresh.has_value()) {
      for (std::string_view key_hex : StrSplit(*refresh, ',')) {
        known_.erase(static_cast<bem::DpcKey>(*ParseHex(key_hex)));
      }
    }
    std::string body = "<page>";
    for (bem::DpcKey key : {bem::DpcKey{0}, bem::DpcKey{1}}) {
      if (known_.count(key)) {
        bem::TagCodec::AppendGet(key, body);
      } else {
        bem::TagCodec::AppendSet(key, "frag" + std::to_string(key), body);
        known_.insert(key);
      }
    }
    body += "</page>";
    return TemplateResponse(std::move(body));
  }

  net::Handler AsHandler() {
    return [this](const http::Request& r) { return Handle(r); };
  }

  int requests() const { return requests_; }

 private:
  std::set<bem::DpcKey> known_;
  int requests_ = 0;
};

// A body stream delivering scripted chunks, then end or a scripted
// error. A non-zero inter-chunk delay keeps chunks from coalescing into
// one socket read, so the consumer observes genuinely incremental
// arrival.
class ScriptedStream : public http::BodyStream {
 public:
  explicit ScriptedStream(std::vector<std::string> chunks,
                          bool fail_after_script = false,
                          MicroTime inter_chunk_delay_micros = 0)
      : chunks_(std::move(chunks)),
        fail_after_script_(fail_after_script),
        delay_micros_(inter_chunk_delay_micros) {}

  Result<common::BufferChain> Next() override {
    if (at_ > 0 && delay_micros_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_micros_));
    }
    if (at_ < chunks_.size()) {
      common::BufferChain out;
      out.AppendCopy(chunks_[at_++]);
      return out;
    }
    if (fail_after_script_) return Status::IoError("origin died mid-body");
    return common::BufferChain();
  }

 private:
  std::vector<std::string> chunks_;
  bool fail_after_script_;
  MicroTime delay_micros_;
  size_t at_ = 0;
};

http::Response TemplateHead() {
  http::Response head;
  head.headers.Set(bem::kTemplateHeader, "1");
  return head;
}

// An upstream whose bodies arrive in scripted chunks under a head that
// declares no length — the way a chunked origin response arrives — so the
// DPC commits a stream as soon as it has assembled bytes. Refresh round
// trips go through the same script.
class ChunkedUpstream : public net::Transport {
 public:
  using Script = std::function<std::vector<std::string>(const http::Request&)>;

  explicit ChunkedUpstream(Script script,
                           http::Response answer = TemplateHead())
      : head(std::move(answer)), script_(std::move(script)) {}

  Result<net::StreamingResponse> RoundTripStreaming(
      const http::Request& request) override {
    requests_.push_back(request);
    net::StreamingResponse response;
    response.head = head;
    response.body = std::make_unique<ScriptedStream>(script_(request));
    return response;
  }

  const std::vector<http::Request>& requests() const { return requests_; }

  http::Response head;  // Answered on every round trip.

 private:
  Script script_;
  std::vector<http::Request> requests_;
};

// `body` cut into `parts` pieces of (nearly) equal size.
std::vector<std::string> Split(const std::string& body, size_t parts) {
  std::vector<std::string> pieces;
  size_t step = (body.size() + parts - 1) / parts;
  for (size_t at = 0; at < body.size(); at += step) {
    pieces.push_back(body.substr(at, step));
  }
  return pieces;
}

TEST(ProxyStreamingTest, StreamedPageMatchesWholePage) {
  // Same origin behaviour, once with the template arriving whole and once
  // in three chunks: identical bytes and byte accounting, but only the
  // second is committed as a stream.
  FakeOrigin whole_origin;
  net::DirectTransport whole_upstream(whole_origin.AsHandler());
  DpcProxy whole_proxy(&whole_upstream, SmallProxy());

  FakeOrigin chunked_origin;
  ChunkedUpstream chunked_upstream([&](const http::Request& request) {
    return Split(chunked_origin.Handle(request).body, 3);
  });
  DpcProxy streaming_proxy(&chunked_upstream, SmallProxy());

  http::Request request;
  request.target = "/page";
  for (int round = 0; round < 3; ++round) {
    http::Response whole = whole_proxy.Handle(request);
    EXPECT_EQ(whole.body_stream, nullptr);
    Status status;
    http::Response head;
    std::string streamed =
        HandleAndDrain(streaming_proxy, request, &head, &status);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(streamed, whole.BodyText()) << "round=" << round;
    EXPECT_NE(head.body_stream, nullptr);
    EXPECT_EQ(head.status_code, 200);
    EXPECT_FALSE(head.headers.Has(bem::kTemplateHeader));
    EXPECT_TRUE(head.headers.Has(bem::kRequestIdHeader));
  }
  EXPECT_EQ(whole_proxy.stats().streamed, 0u);
  EXPECT_EQ(streaming_proxy.stats().streamed, 3u);
  EXPECT_EQ(streaming_proxy.stats().stream_aborts, 0u);
  EXPECT_EQ(streaming_proxy.stats().assembled, 3u);
  EXPECT_EQ(streaming_proxy.stats().bytes_from_upstream,
            whole_proxy.stats().bytes_from_upstream);
  EXPECT_EQ(streaming_proxy.stats().bytes_to_clients,
            whole_proxy.stats().bytes_to_clients);
}

TEST(ProxyStreamingTest, EmptyTemplateIsServedWhole) {
  net::DirectTransport upstream(
      [](const http::Request&) { return TemplateResponse(""); });
  DpcProxy proxy(&upstream, SmallProxy());
  http::Request request;
  http::Response response = proxy.Handle(request);
  EXPECT_EQ(response.status_code, 200);
  EXPECT_EQ(response.body_stream, nullptr);
  EXPECT_EQ(response.BodyText(), "");
  EXPECT_EQ(proxy.stats().streamed, 0u);
  EXPECT_EQ(proxy.stats().assembled, 1u);
}

TEST(ProxyStreamingTest, DebugHeaderReadsTheWholeTemplate) {
  // The debug header counts the whole page's tags, so a template still in
  // flight is read to its end and served whole.
  FakeOrigin origin;
  ChunkedUpstream upstream([&](const http::Request& request) {
    return Split(origin.Handle(request).body, 4);
  });
  ProxyOptions options = SmallProxy();
  options.add_debug_header = true;
  DpcProxy proxy(&upstream, options);
  http::Request request;
  http::Response response = proxy.Handle(request);
  EXPECT_EQ(response.body_stream, nullptr);
  ASSERT_TRUE(response.headers.Has(kDebugHeader));
  EXPECT_EQ(*response.headers.Get(kDebugHeader), "sets=2;gets=0");
  EXPECT_EQ(response.BodyText(), "<page>frag0frag1</page>");
  EXPECT_EQ(proxy.stats().streamed, 0u);
}

TEST(ProxyStreamingTest, PassthroughStillInFlightStreams) {
  ChunkedUpstream upstream(
      [](const http::Request&) {
        return std::vector<std::string>{"plain ", "upstream ", "page"};
      },
      http::Response());
  DpcProxy proxy(&upstream, SmallProxy());
  http::Request request;
  http::Response head;
  Status status;
  std::string body = HandleAndDrain(proxy, request, &head, &status);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(body, "plain upstream page");
  EXPECT_NE(head.body_stream, nullptr);
  EXPECT_FALSE(head.headers.Has("Content-Length"));
  EXPECT_EQ(proxy.stats().passthrough, 1u);
  EXPECT_EQ(proxy.stats().bytes_to_clients, body.size());
}

TEST(ProxyStreamingTest, WholePassthroughKeepsItsLength) {
  net::DirectTransport upstream([](const http::Request&) {
    return http::Response::MakeOk("plain upstream page");
  });
  DpcProxy proxy(&upstream, SmallProxy());
  http::Response response = proxy.Handle(http::Request{});
  EXPECT_EQ(response.body_stream, nullptr);
  EXPECT_EQ(response.body, "plain upstream page");
  EXPECT_EQ(*response.headers.Get("Content-Length"), "19");
  EXPECT_EQ(proxy.stats().streamed, 0u);
}

TEST(ProxyStreamingTest, OnSetsFiresInTemplateOrderWhenAStreamCompletes) {
  // A committed stream replicates like a whole page: once the body has
  // been delivered in full, on_sets sees the page's SET keys in template
  // order.
  std::string wire = "<head>";
  bem::TagCodec::AppendSet(3, "three", wire);
  wire += "|";
  bem::TagCodec::AppendSet(1, "one", wire);
  bem::TagCodec::AppendSet(2, "two", wire);
  wire += "<tail>";
  ChunkedUpstream upstream(
      [&](const http::Request&) { return Split(wire, 3); });
  std::vector<std::vector<bem::DpcKey>> replicated;
  ProxyOptions options = SmallProxy();
  options.on_sets = [&](const std::vector<bem::DpcKey>& keys) {
    replicated.push_back(keys);
  };
  DpcProxy proxy(&upstream, options);

  http::Response head = proxy.Handle(http::Request{});
  ASSERT_NE(head.body_stream, nullptr);
  EXPECT_TRUE(replicated.empty()) << "fired before the page was delivered";
  Status status;
  EXPECT_EQ(DrainStream(*head.body_stream, &status),
            "<head>three|onetwo<tail>");
  ASSERT_TRUE(status.ok());
  ASSERT_EQ(replicated.size(), 1u);
  EXPECT_EQ(replicated[0], (std::vector<bem::DpcKey>{3, 1, 2}));
}

TEST(ProxyStreamingTest, StreamedPassthroughFillsTheStaticCache) {
  http::Response cacheable;
  cacheable.headers.Set("Cache-Control", "public, max-age=60");
  ChunkedUpstream upstream(
      [](const http::Request&) {
        return std::vector<std::string>{"static ", "bytes"};
      },
      cacheable);
  ProxyOptions options = SmallProxy();
  options.enable_static_cache = true;
  DpcProxy proxy(&upstream, options);
  http::Request request;
  request.target = "/app.css";

  http::Response head;
  Status status;
  EXPECT_EQ(HandleAndDrain(proxy, request, &head, &status), "static bytes");
  ASSERT_TRUE(status.ok());
  EXPECT_NE(head.body_stream, nullptr);
  // The delivered chain was kept for the cache: a hit, no second fetch.
  http::Response hit = proxy.Handle(request);
  EXPECT_EQ(hit.body, "static bytes");
  EXPECT_EQ(upstream.requests().size(), 1u);
  EXPECT_EQ(proxy.stats().static_hits, 1u);
}

TEST(ProxyStreamingTest, StreamedPageIsRememberedForServeStale) {
  std::string wire = "<page>";
  bem::TagCodec::AppendSet(1, "fragment", wire);
  wire += "</page>";
  ChunkedUpstream upstream(
      [&](const http::Request&) { return Split(wire, 3); });
  ProxyOptions options = SmallProxy();
  options.serve_stale = true;
  DpcProxy proxy(&upstream, options);
  http::Request request;
  request.target = "/page";

  http::Response head;
  Status status;
  EXPECT_EQ(HandleAndDrain(proxy, request, &head, &status),
            "<page>fragment</page>");
  ASSERT_TRUE(status.ok());
  EXPECT_NE(head.body_stream, nullptr);
  // The origin now answers 500: the streamed page is served stale.
  upstream.head = http::Response();
  upstream.head.status_code = 500;
  http::Response stale = proxy.Handle(request);
  EXPECT_EQ(stale.status_code, 200);
  EXPECT_EQ(stale.BodyText(), "<page>fragment</page>");
  EXPECT_EQ(*stale.headers.Get("Warning"), kStaleWarning);
  EXPECT_EQ(proxy.stats().stale_served, 1u);
}

TEST(ProxyStreamingTest, CommittedStreamRecoversAChunksMissesInOneRefresh) {
  // The head commits; the next chunk GETs three keys the store has never
  // seen. One X-DPC-Refresh round trip naming all three recovers them.
  std::string gets;
  for (bem::DpcKey key : {bem::DpcKey{7}, bem::DpcKey{5}, bem::DpcKey{6}}) {
    bem::TagCodec::AppendGet(key, gets);
    gets += ";";
  }
  ChunkedUpstream upstream([&](const http::Request& request) {
    std::optional<std::string_view> refresh =
        request.headers.Get(bem::kRefreshHeader);
    if (!refresh.has_value()) {
      return std::vector<std::string>{"<head>", gets, "<tail>"};
    }
    std::string sets = "<refreshed page>";
    for (std::string_view key_hex : StrSplit(*refresh, ',')) {
      bem::TagCodec::AppendSet(static_cast<bem::DpcKey>(*ParseHex(key_hex)),
                               "frag" + std::string(key_hex), sets);
    }
    return std::vector<std::string>{sets};
  });
  DpcProxy proxy(&upstream, SmallProxy());

  http::Response head;
  Status status;
  std::string body = HandleAndDrain(proxy, http::Request{}, &head, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(head.body_stream, nullptr);
  EXPECT_EQ(body, "<head>frag7;frag5;frag6;<tail>");
  ASSERT_EQ(upstream.requests().size(), 2u);
  EXPECT_EQ(*upstream.requests()[1].headers.Get(bem::kRefreshHeader),
            "7,5,6");
  EXPECT_EQ(proxy.stats().recoveries, 1u);
  EXPECT_EQ(proxy.stats().streamed, 1u);
  EXPECT_EQ(proxy.stats().stream_aborts, 0u);
}

TEST(ProxyStreamingTest, RefreshTemplateOverTheCapIsATemplateError) {
  // max_template_bytes bounds every template the DPC reads, the refresh
  // round trip's as well as the page's own.
  std::string cold;
  bem::TagCodec::AppendGet(4, cold);
  std::string oversized;
  bem::TagCodec::AppendSet(4, std::string(4096, 'r'), oversized);
  net::DirectTransport upstream([&](const http::Request& request) {
    return TemplateResponse(request.headers.Has(bem::kRefreshHeader)
                                ? oversized
                                : cold);
  });
  ProxyOptions options = SmallProxy();
  options.max_template_bytes = 1024;
  DpcProxy proxy(&upstream, options);
  http::Response response = proxy.Handle(http::Request{});
  EXPECT_EQ(response.status_code, 502);
  EXPECT_NE(response.BodyText().find("template error"), std::string::npos);
  EXPECT_EQ(proxy.stats().recoveries, 1u);
  EXPECT_EQ(proxy.stats().template_errors, 1u);
  EXPECT_EQ(proxy.store().occupied_slots(), 0u);
}

TEST(ProxyStreamingTest, NonOkPassthroughInFlightIsServedWhole) {
  // 404s and friends are never re-framed as chunked, even while their
  // body is still arriving.
  http::Response not_found;
  not_found.status_code = 404;
  not_found.reason = "Not Found";
  ChunkedUpstream upstream(
      [](const http::Request&) {
        return std::vector<std::string>{"not ", "found"};
      },
      not_found);
  DpcProxy proxy(&upstream, SmallProxy());
  http::Response response = proxy.Handle(http::Request{});
  EXPECT_EQ(response.status_code, 404);
  EXPECT_EQ(response.body_stream, nullptr);
  EXPECT_EQ(response.body, "not found");
  EXPECT_EQ(proxy.stats().streamed, 0u);
}

TEST(ProxyStreamingTest, CorruptTemplateBeforeFirstByteYields502) {
  // Pre-commit failure: nothing has reached the client, so the error is a
  // clean 502.
  net::DirectTransport upstream([](const http::Request&) {
    return TemplateResponse("\x02Q\x03 never-emitted");
  });
  DpcProxy proxy(&upstream, SmallProxy());
  http::Request request;
  http::Response response = proxy.Handle(request);
  EXPECT_EQ(response.status_code, 502);
  EXPECT_EQ(response.body_stream, nullptr);
  EXPECT_EQ(proxy.stats().template_errors, 1u);
  EXPECT_EQ(proxy.stats().stream_aborts, 0u);
}

TEST(ProxyStreamingTest, UpstreamErrorStatusCollapsesToBuffered) {
  // An upstream 500 is a response, not a transport error: it passes
  // through buffered (non-200 responses are never re-framed chunked).
  net::DirectTransport upstream([](const http::Request&) {
    return http::Response::MakeError(500, "Internal Server Error", "boom");
  });
  DpcProxy proxy(&upstream, SmallProxy());
  http::Request request;
  http::Response response = proxy.Handle(request);
  EXPECT_EQ(response.status_code, 500);
  EXPECT_EQ(response.body_stream, nullptr);
  EXPECT_EQ(response.BodyText(), "boom");
}

TEST(ProxyStreamingTest, UpstreamTransportFailureYieldsCleanError) {
  // A dead upstream before any head: still a clean pre-commit error.
  net::TcpServer origin([](const http::Request&) {
    return http::Response::MakeOk("never reached");
  });
  ASSERT_TRUE(origin.Start().ok());
  uint16_t dead_port = origin.port();
  origin.Stop();
  net::PooledClientTransport upstream("127.0.0.1", dead_port);
  DpcProxy proxy(&upstream, SmallProxy());
  http::Request request;
  http::Response response = proxy.Handle(request);
  EXPECT_EQ(response.status_code, 502);
  EXPECT_EQ(response.body_stream, nullptr);
  EXPECT_EQ(proxy.stats().upstream_errors, 1u);
}

TEST(ProxyStreamingTest, ChainedUpstreamBodyBytesAreCounted) {
  // Regression (byte accounting): a passthrough body living in
  // body_chain used to count as zero bytes_from_upstream because the
  // accounting read body.size().
  const std::string payload(2048, 'c');
  net::DirectTransport upstream([&payload](const http::Request&) {
    http::Response response;
    response.body_chain.AppendCopy(payload);
    return response;
  });
  ProxyOptions options;
  options.capacity = 8;
  DpcProxy proxy(&upstream, options);
  http::Request request;
  http::Response response = proxy.Handle(request);
  EXPECT_EQ(response.BodyText(), payload);
  EXPECT_EQ(proxy.stats().bytes_from_upstream, payload.size());
  EXPECT_EQ(proxy.stats().bytes_to_clients, payload.size());
}

TEST(ProxyStreamingTest, ChainedTemplateBodyAssembles) {
  // Same regression, template path: the template arriving as a chain must
  // be scanned and counted, not treated as empty.
  std::string wire;
  bem::TagCodec::AppendSet(3, "chained-frag", wire);
  net::DirectTransport upstream([&wire](const http::Request&) {
    http::Response response;
    response.headers.Set(bem::kTemplateHeader, "1");
    response.body_chain.AppendCopy(wire);
    return response;
  });
  ProxyOptions options;
  options.capacity = 8;
  DpcProxy proxy(&upstream, options);
  http::Request request;
  http::Response response = proxy.Handle(request);
  EXPECT_EQ(response.BodyText(), "chained-frag");
  EXPECT_EQ(proxy.stats().bytes_from_upstream, wire.size());
  EXPECT_EQ(proxy.stats().assembled, 1u);
}

// --- Over real sockets with a genuinely incremental origin ---------------

TEST(ProxyStreamingTest, StreamsOverRealSocketsChunkByChunk) {
  // Origin emits the template in three chunks, one of them splitting a
  // SET tag in half; the DPC must splice and stream without waiting for
  // the tail.
  std::string wire = "<head>";
  bem::TagCodec::AppendSet(4, "socket-fragment", wire);
  wire += "<tail>";
  size_t cut_a = 8;                // Inside the head literal.
  size_t cut_b = wire.size() - 3;  // Inside the tail literal.
  std::vector<std::string> chunks = {wire.substr(0, cut_a),
                                     wire.substr(cut_a, cut_b - cut_a),
                                     wire.substr(cut_b)};
  net::TcpServer origin([&chunks](const http::Request&) {
    http::Response response;
    response.headers.Set(bem::kTemplateHeader, "1");
    response.body_stream = std::make_shared<ScriptedStream>(chunks);
    return response;
  });
  ASSERT_TRUE(origin.Start().ok());

  net::PooledTransportOptions pool_options;
  pool_options.pool.max_connections = 2;
  net::PooledClientTransport upstream("127.0.0.1", origin.port(),
                                      pool_options);
  DpcProxy proxy(&upstream, SmallProxy());
  net::TcpServer front(proxy.AsHandler());
  ASSERT_TRUE(front.Start().ok());

  net::PooledClientTransport client("127.0.0.1", front.port());
  http::Request request;
  request.target = "/stream";
  Result<http::Response> response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body, "<head>socket-fragment<tail>");
  EXPECT_EQ(proxy.stats().streamed, 1u);
  EXPECT_EQ(proxy.stats().stream_aborts, 0u);
  EXPECT_EQ(proxy.stats().bytes_from_upstream, wire.size());

  front.Stop();
  origin.Stop();
}

TEST(ProxyStreamingTest, BreakerGuardedUpstreamStillStreams) {
  // A circuit breaker around the paced pooled upstream forwards the
  // streaming round trip, so the page commits a stream instead of
  // waiting for the whole template, and the breaker records the round
  // trip's outcome once, at the head.
  std::string wire = "<head>";
  bem::TagCodec::AppendSet(5, "guarded-fragment", wire);
  wire += "<tail>";
  net::TcpServer origin([&wire](const http::Request&) {
    http::Response response;
    response.headers.Set(bem::kTemplateHeader, "1");
    response.body_stream = std::make_shared<ScriptedStream>(
        Split(wire, 3), /*fail_after_script=*/false,
        /*inter_chunk_delay_micros=*/5 * kMicrosPerMilli);
    return response;
  });
  ASSERT_TRUE(origin.Start().ok());
  net::PooledTransportOptions pool_options;
  pool_options.pool.max_connections = 2;
  net::PooledClientTransport pooled("127.0.0.1", origin.port(),
                                    pool_options);
  net::CircuitBreakerTransport upstream(&pooled);
  ProxyOptions options = SmallProxy();
  options.upstream_breaker = &upstream.breaker();
  DpcProxy proxy(&upstream, options);

  http::Request request;
  request.target = "/guarded";
  Status drained;
  EXPECT_EQ(HandleAndDrain(proxy, request, nullptr, &drained),
            "<head>guarded-fragment<tail>");
  EXPECT_TRUE(drained.ok()) << drained.ToString();
  EXPECT_GE(proxy.stats().streamed, 1u);
  net::CircuitBreakerStats breaker = upstream.breaker().stats();
  EXPECT_EQ(breaker.state, net::BreakerState::kClosed);
  EXPECT_EQ(breaker.window_samples, 1);
  EXPECT_EQ(breaker.window_error_rate, 0.0);
  origin.Stop();
}

TEST(ProxyStreamingTest, ColdCacheMissRecoversInlineMidStream) {
  // The template GETs a key the store has never seen, in a chunk that
  // arrives after the stream has committed; the proxy must refresh
  // upstream on its own pooled connection, then splice the recovered
  // fragment.
  std::string fresh;  // Served on the refresh round trip.
  bem::TagCodec::AppendSet(9, "recovered-fragment", fresh);
  std::string cold_tail;  // Second chunk: GET with a cold store.
  bem::TagCodec::AppendGet(9, cold_tail);
  cold_tail += "<tail>";
  std::atomic<int> refreshes{0};
  net::TcpServer origin([&](const http::Request& request) {
    http::Response response;
    response.headers.Set(bem::kTemplateHeader, "1");
    if (request.headers.Has(bem::kRefreshHeader)) {
      ++refreshes;
      response.body = fresh;
    } else {
      response.body_stream = std::make_shared<ScriptedStream>(
          std::vector<std::string>{"<head>", cold_tail},
          /*fail_after_script=*/false,
          /*inter_chunk_delay_micros=*/20 * kMicrosPerMilli);
    }
    return response;
  });
  ASSERT_TRUE(origin.Start().ok());

  net::PooledTransportOptions pool_options;
  pool_options.pool.max_connections = 2;
  net::PooledClientTransport upstream("127.0.0.1", origin.port(),
                                      pool_options);
  DpcProxy proxy(&upstream, SmallProxy());
  net::TcpServer front(proxy.AsHandler());
  ASSERT_TRUE(front.Start().ok());

  net::PooledClientTransport client("127.0.0.1", front.port());
  http::Request request;
  request.target = "/cold";
  Result<http::Response> response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body, "<head>recovered-fragment<tail>");
  EXPECT_EQ(refreshes.load(), 1);
  EXPECT_EQ(proxy.stats().recoveries, 1u);
  EXPECT_EQ(proxy.stats().streamed, 1u);
  EXPECT_EQ(proxy.stats().stream_aborts, 0u);

  front.Stop();
  origin.Stop();
}

TEST(ProxyStreamingTest, RefreshNeverWaitsOnTheTemplatesOwnConnection) {
  // A pool of one connection with a short checkout timeout. A cold GET in
  // a template still arriving must not send its refresh while the
  // template holds that connection: the rest of the template is read
  // first, which checks the connection back in. Once with the miss after
  // commit, once in the first chunk (the page is then served whole).
  std::string cold;
  bem::TagCodec::AppendGet(9, cold);
  std::string fresh;
  bem::TagCodec::AppendSet(9, "recovered", fresh);
  std::atomic<int> refreshes{0};
  net::TcpServer origin([&](const http::Request& request) {
    http::Response response;
    response.headers.Set(bem::kTemplateHeader, "1");
    if (request.headers.Has(bem::kRefreshHeader)) {
      ++refreshes;
      response.body = fresh;
      return response;
    }
    std::vector<std::string> chunks = {"<head>", cold, "<tail>"};
    if (request.Path() == "/first") chunks = {cold, "<mid>", "<tail>"};
    response.body_stream = std::make_shared<ScriptedStream>(
        chunks, /*fail_after_script=*/false,
        /*inter_chunk_delay_micros=*/20 * kMicrosPerMilli);
    return response;
  });
  ASSERT_TRUE(origin.Start().ok());
  net::PooledTransportOptions pool_options;
  pool_options.pool.max_connections = 1;
  pool_options.pool.checkout_timeout_micros = 200 * kMicrosPerMilli;
  net::PooledClientTransport upstream("127.0.0.1", origin.port(),
                                      pool_options);
  DpcProxy proxy(&upstream, SmallProxy());
  net::TcpServer front(proxy.AsHandler());
  ASSERT_TRUE(front.Start().ok());

  net::PooledClientTransport client("127.0.0.1", front.port());
  http::Request request;
  request.target = "/middle";
  Result<http::Response> middle = client.RoundTrip(request);
  ASSERT_TRUE(middle.ok()) << middle.status().ToString();
  EXPECT_EQ(middle->body, "<head>recovered<tail>");
  EXPECT_EQ(proxy.stats().streamed, 1u);

  proxy.ClearCache();
  request.target = "/first";
  Result<http::Response> first = client.RoundTrip(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->body, "recovered<mid><tail>");
  EXPECT_EQ(proxy.stats().streamed, 1u);

  EXPECT_EQ(refreshes.load(), 2);
  EXPECT_EQ(proxy.stats().recoveries, 2u);
  EXPECT_EQ(proxy.stats().stream_aborts, 0u);
  EXPECT_EQ(upstream.pool().stats().waiter_timeouts, 0u);

  front.Stop();
  origin.Stop();
}

// Clients that send a request and never read: a tiny receive buffer makes
// the server's writes to them stall after a few KiB. Closed on
// destruction, which fails those writes.
class StalledClients {
 public:
  StalledClients() = default;
  StalledClients(const StalledClients&) = delete;
  StalledClients& operator=(const StalledClients&) = delete;
  ~StalledClients() {
    for (int fd : fds_) ::close(fd);
  }

  void Open(uint16_t port, const std::string& wire) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    fds_.push_back(fd);
    int rcvbuf = 4096;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
  }

 private:
  std::vector<int> fds_;
};

// As many clients as the pool has connections (one) stop reading a page
// whose template arrives in two chunks, the second larger than the socket
// buffers between proxy and client can absorb (the kernel's send buffer
// tops out at 4 MiB by default). The stream reads the rest of its
// template into memory at its first pull after commit, so the connection
// goes back to the pool and one more request is served instead of
// waiting out the checkout timeout (on the epoll shell that wait would
// also stall the loop).
template <typename Server>
void ExpectStalledReadersReleaseTheirConnections() {
  const std::string tail(8 << 20, 't');
  net::TcpServer origin([&](const http::Request& request) {
    http::Response response;
    response.headers.Set(bem::kTemplateHeader, "1");
    if (request.Path() == "/small") {
      response.body = "<small>";
      return response;
    }
    response.body_stream = std::make_shared<ScriptedStream>(
        std::vector<std::string>{"<head>", tail},
        /*fail_after_script=*/false,
        /*inter_chunk_delay_micros=*/20 * kMicrosPerMilli);
    return response;
  });
  ASSERT_TRUE(origin.Start().ok());
  constexpr int kConnections = 1;
  net::PooledTransportOptions pool_options;
  pool_options.pool.max_connections = kConnections;
  pool_options.pool.checkout_timeout_micros = 300 * kMicrosPerMilli;
  net::PooledClientTransport upstream("127.0.0.1", origin.port(),
                                      pool_options);
  DpcProxy proxy(&upstream, SmallProxy());
  Server front(proxy.AsHandler());
  ASSERT_TRUE(front.Start().ok());

  StalledClients stalled;
  for (int i = 0; i < kConnections; ++i) {
    stalled.Open(front.port(), "GET /big HTTP/1.1\r\nHost: t\r\n\r\n");
  }
  const uint64_t templates = kConnections * (6 + tail.size());
  auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (proxy.stats().bytes_from_upstream < templates &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(proxy.stats().bytes_from_upstream, templates);
  EXPECT_EQ(proxy.stats().streamed, static_cast<uint64_t>(kConnections));

  net::PooledClientTransport client("127.0.0.1", front.port());
  http::Request request;
  request.target = "/small";
  Result<http::Response> small = client.RoundTrip(request);
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  EXPECT_EQ(small->status_code, 200);
  EXPECT_EQ(small->body, "<small>");
  EXPECT_EQ(upstream.pool().stats().waiter_timeouts, 0u);
}

TEST(ProxyStreamingTest, StalledReadersReleaseTheirConnectionsThreadServer) {
  ExpectStalledReadersReleaseTheirConnections<net::TcpServer>();
}

TEST(ProxyStreamingTest, StalledReadersReleaseTheirConnectionsEpollServer) {
  ExpectStalledReadersReleaseTheirConnections<net::EpollServer>();
}

TEST(ProxyStreamingTest, PostCommitUpstreamFailureAbortsTheStream) {
  // Head bytes are on the wire when the origin dies: the only honest move
  // is truncating the chunked body, so the client sees an error, not a
  // complete-looking page.
  net::TcpServer origin([](const http::Request&) {
    http::Response response;
    response.headers.Set(bem::kTemplateHeader, "1");
    response.body_stream = std::make_shared<ScriptedStream>(
        std::vector<std::string>{"<early bytes>"},
        /*fail_after_script=*/true);
    return response;
  });
  ASSERT_TRUE(origin.Start().ok());
  net::PooledTransportOptions pool_options;
  pool_options.pool.max_connections = 2;
  net::PooledClientTransport upstream("127.0.0.1", origin.port(),
                                      pool_options);
  DpcProxy proxy(&upstream, SmallProxy());
  net::TcpServer front(proxy.AsHandler());
  ASSERT_TRUE(front.Start().ok());

  net::PooledClientTransport client("127.0.0.1", front.port());
  http::Request request;
  Result<http::Response> response = client.RoundTrip(request);
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(proxy.stats().stream_aborts, 1u);
  EXPECT_EQ(proxy.stats().streamed, 1u);

  front.Stop();
  origin.Stop();
}

// Reads raw bytes off one connection until the server closes it. Sends
// `wire` first (may hold several pipelined requests).
std::string RawExchange(uint16_t port, const std::string& wire) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  size_t sent = 0;
  while (sent < wire.size()) {
    ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string received;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // 0 = clean close: the signal under test.
    received.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return received;
}

// Decodes a chunked body as far as its framing is intact; `*complete`
// reports whether the terminal 0-chunk was seen.
std::string DecodeChunked(std::string_view wire, bool* complete) {
  *complete = false;
  std::string out;
  while (!wire.empty()) {
    size_t line_end = wire.find("\r\n");
    if (line_end == std::string_view::npos) break;
    size_t size = 0;
    for (char c : wire.substr(0, line_end)) {
      if (c >= '0' && c <= '9') {
        size = size * 16 + static_cast<size_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        size = size * 16 + static_cast<size_t>(c - 'a' + 10);
      } else {
        return out;  // Corrupt size line: stop decoding.
      }
    }
    wire.remove_prefix(line_end + 2);
    if (size == 0) {
      *complete = true;
      return out;
    }
    size_t take = std::min(size, wire.size());
    out.append(wire.substr(0, take));
    wire.remove_prefix(take);
    if (take < size || wire.size() < 2) break;  // Truncated mid-chunk.
    wire.remove_prefix(2);  // Chunk-data CRLF.
  }
  return out;
}

TEST(ProxyStreamingTest, DeclaredLengthDecidesWholeVersusChunked) {
  // The rule that keeps small pages cheap: a template whose declared
  // length has fully arrived is answered with Content-Length and no chunk
  // framing, while one still arriving in chunks commits chunked.
  std::string small = "<small>";
  bem::TagCodec::AppendSet(2, "fragment", small);
  std::string late;
  bem::TagCodec::AppendSet(3, "late-fragment", late);
  net::TcpServer origin([&](const http::Request& request) {
    http::Response response;
    response.headers.Set(bem::kTemplateHeader, "1");
    if (request.Path() == "/small") {
      response.body = small;
    } else {
      response.body_stream = std::make_shared<ScriptedStream>(
          std::vector<std::string>{"<big>", late},
          /*fail_after_script=*/false,
          /*inter_chunk_delay_micros=*/20 * kMicrosPerMilli);
    }
    return response;
  });
  ASSERT_TRUE(origin.Start().ok());
  net::PooledTransportOptions pool_options;
  pool_options.pool.max_connections = 2;
  net::PooledClientTransport upstream("127.0.0.1", origin.port(),
                                      pool_options);
  DpcProxy proxy(&upstream, SmallProxy());
  net::TcpServer front(proxy.AsHandler());
  ASSERT_TRUE(front.Start().ok());

  std::string whole = RawExchange(
      front.port(),
      "GET /small HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  size_t whole_body = whole.find("\r\n\r\n");
  ASSERT_NE(whole_body, std::string::npos);
  EXPECT_NE(whole.find("Content-Length: 15\r\n"), std::string::npos);
  EXPECT_EQ(whole.find("Transfer-Encoding"), std::string::npos);
  EXPECT_EQ(whole.substr(whole_body + 4), "<small>fragment");

  std::string streamed = RawExchange(
      front.port(),
      "GET /big HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  size_t streamed_body = streamed.find("\r\n\r\n");
  ASSERT_NE(streamed_body, std::string::npos);
  EXPECT_NE(streamed.find("Transfer-Encoding: chunked\r\n"),
            std::string::npos);
  EXPECT_EQ(streamed.find("Content-Length"), std::string::npos);
  bool complete = false;
  EXPECT_EQ(DecodeChunked(std::string_view(streamed).substr(streamed_body + 4),
                          &complete),
            "<big>late-fragment");
  EXPECT_TRUE(complete);

  EXPECT_EQ(proxy.stats().assembled, 2u);
  EXPECT_EQ(proxy.stats().streamed, 1u);
  front.Stop();
  origin.Stop();
}

// S3: kill the origin at *every* chunk boundary after the stream has
// committed and check three things at each offset — the client sees an
// honestly truncated chunked body (a strict prefix of the fault-free
// oracle, never a complete-looking page), stream_aborts increments, and
// the server refuses to serve a pipelined follow-up on the poisoned
// connection.
TEST(ProxyStreamingTest, MidStreamDeathAtEveryChunkBoundaryIsHonest) {
  // Five chunks, one of them splitting a SET tag so a kill can land
  // while the splice buffer holds partial-tag bytes.
  std::string wire = "<head-literal>";
  bem::TagCodec::AppendSet(6, "sweep-fragment", wire);
  wire += "<tail-literal-padding-so-every-cut-emits>";
  std::vector<size_t> cuts = {5, wire.size() / 2 - 3, wire.size() / 2 + 4,
                              wire.size() - 6};
  std::vector<std::string> all_chunks;
  size_t prev = 0;
  for (size_t cut : cuts) {
    all_chunks.push_back(wire.substr(prev, cut - prev));
    prev = cut;
  }
  all_chunks.push_back(wire.substr(prev));

  // Fault-free oracle: what a complete assembly of this template yields.
  std::string oracle;
  {
    net::DirectTransport upstream([&](const http::Request&) {
      return TemplateResponse(wire);
    });
    DpcProxy proxy(&upstream, SmallProxy());
    oracle = HandleAndDrain(proxy, http::Request{});
  }
  ASSERT_FALSE(oracle.empty());

  const std::string pipelined_wire =
      "GET /sweep HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /second HTTP/1.1\r\nHost: t\r\n\r\n";

  for (size_t kill_after = 1; kill_after < all_chunks.size();
       ++kill_after) {
    SCOPED_TRACE("kill_after=" + std::to_string(kill_after));
    std::vector<std::string> delivered(
        all_chunks.begin(),
        all_chunks.begin() + static_cast<long>(kill_after));
    net::TcpServer origin([&delivered](const http::Request&) {
      http::Response response;
      response.headers.Set(bem::kTemplateHeader, "1");
      response.body_stream = std::make_shared<ScriptedStream>(
          delivered, /*fail_after_script=*/true);
      return response;
    });
    ASSERT_TRUE(origin.Start().ok());
    net::PooledTransportOptions pool_options;
    pool_options.pool.max_connections = 2;
    net::PooledClientTransport upstream("127.0.0.1", origin.port(),
                                        pool_options);
    DpcProxy proxy(&upstream, SmallProxy());
    net::TcpServer front(proxy.AsHandler());
    ASSERT_TRUE(front.Start().ok());

    std::string raw = RawExchange(front.port(), pipelined_wire);
    front.Stop();
    origin.Stop();

    // Exactly one response head: the poisoned connection was closed
    // before the pipelined second request could be answered on it.
    size_t heads = 0;
    for (size_t at = raw.find("HTTP/1.1"); at != std::string::npos;
         at = raw.find("HTTP/1.1", at + 1)) {
      ++heads;
    }
    EXPECT_EQ(heads, 1u);

    size_t body_at = raw.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    bool complete = false;
    std::string body = DecodeChunked(
        std::string_view(raw).substr(body_at + 4), &complete);
    // Honest truncation: never the terminal chunk, and whatever did
    // arrive is a strict prefix of the fault-free page.
    EXPECT_FALSE(complete);
    EXPECT_LT(body.size(), oracle.size());
    EXPECT_EQ(body, oracle.substr(0, body.size()));
    EXPECT_EQ(proxy.stats().stream_aborts, 1u);
    EXPECT_EQ(proxy.stats().streamed, 1u);
  }
}

TEST(ProxyStreamingTest, TemplateCapAbortsMidStream) {
  // The max_template_bytes guard keeps working after commit: cumulative
  // template bytes over the cap abort the stream.
  net::TcpServer origin([](const http::Request&) {
    http::Response response;
    response.headers.Set(bem::kTemplateHeader, "1");
    response.body_stream = std::make_shared<ScriptedStream>(
        std::vector<std::string>{"<committed>", std::string(4096, 'x')},
        /*fail_after_script=*/false,
        /*inter_chunk_delay_micros=*/20 * kMicrosPerMilli);
    return response;
  });
  ASSERT_TRUE(origin.Start().ok());
  net::PooledTransportOptions pool_options;
  pool_options.pool.max_connections = 2;
  net::PooledClientTransport upstream("127.0.0.1", origin.port(),
                                      pool_options);
  ProxyOptions options = SmallProxy();
  options.max_template_bytes = 1024;
  DpcProxy proxy(&upstream, options);
  net::TcpServer front(proxy.AsHandler());
  ASSERT_TRUE(front.Start().ok());

  net::PooledClientTransport client("127.0.0.1", front.port());
  http::Request request;
  Result<http::Response> response = client.RoundTrip(request);
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(proxy.stats().stream_aborts, 1u);

  front.Stop();
  origin.Stop();
}

}  // namespace
}  // namespace dynaprox::dpc
