#ifndef DYNAPROX_NET_TRANSPORT_H_
#define DYNAPROX_NET_TRANSPORT_H_

#include <functional>
#include <memory>

#include "common/result.h"
#include "http/message.h"
#include "http/parser.h"
#include "net/byte_meter.h"

namespace dynaprox::net {

// A request handler: the server side of a transport endpoint.
using Handler = std::function<http::Response(const http::Request&)>;

// A round trip that returned as soon as the response head was parsed; the
// body is still (possibly) in flight and arrives by pulling `body`.
struct StreamingResponse {
  // Status line + headers; its body members are empty.
  http::Response head;
  // Never null on success. Pulling it to end-of-body is what lets a
  // keep-alive/pooled upstream connection be reused; destroying it early
  // closes that connection instead.
  std::unique_ptr<http::BodyStream> body;
};

// Client view of a request/response channel. Implementations: in-process
// direct dispatch (deterministic simulation) and TCP (real deployment).
class Transport {
 public:
  virtual ~Transport() = default;

  // Sends `request` and waits for the response.
  virtual Result<http::Response> RoundTrip(const http::Request& request) = 0;

  // Streaming variant: returns once the response head is parsed, with the
  // body arriving through the returned stream. The base implementation
  // adapts RoundTrip — the whole body is buffered and delivered as one
  // chunk — so only transports with a real wire gain time-to-first-byte
  // by overriding it. Decorators must override to forward, or they
  // silently degrade the inner transport to the buffered adapter.
  virtual Result<StreamingResponse> RoundTripStreaming(
      const http::Request& request);
};

// BodyStream over an already-complete body: the default RoundTripStreaming
// adapter and the degenerate case of streamed serving.
class BufferedBodyStream : public http::BodyStream {
 public:
  explicit BufferedBodyStream(common::BufferChain chain)
      : chain_(std::move(chain)) {}

  Result<common::BufferChain> Next() override {
    common::BufferChain out = std::move(chain_);
    chain_.Clear();
    return out;  // Second call: empty = end of body.
  }

 private:
  common::BufferChain chain_;
};

// Wraps an already-complete response as a StreamingResponse: the body
// becomes one chunk and the head declares its length, so a consumer can
// tell that the whole body has arrived. The default RoundTripStreaming
// adapter and decorators that answer without a wire use it.
inline StreamingResponse StreamWhole(http::Response response) {
  common::BufferChain body;
  if (!response.body_chain.empty()) {
    body = std::move(response.body_chain);
  } else if (!response.body.empty()) {
    body.Append(common::MakeBuffer(std::move(response.body)));
  }
  StreamingResponse streaming;
  streaming.head = std::move(response);
  streaming.head.body.clear();
  streaming.head.body_chain.Clear();
  streaming.head.headers.Set("Content-Length", std::to_string(body.size()));
  streaming.body = std::make_unique<BufferedBodyStream>(std::move(body));
  return streaming;
}

// The inverse of StreamWhole: pulls the body to its end into `body` and
// frames the message the way the buffered parser frames a whole wire (a
// joined chunked body gets Content-Length; see http::Dechunk). A transport
// whose RoundTrip is its streaming path drained by this returns the same
// message a buffered read would.
inline Result<http::Response> DrainWhole(StreamingResponse streaming) {
  http::Response response = std::move(streaming.head);
  for (;;) {
    Result<common::BufferChain> chunk = streaming.body->Next();
    if (!chunk.ok()) return chunk.status();
    if (chunk->empty()) break;
    chunk->AppendTo(response.body);
  }
  http::Dechunk(response.headers, response.body.size());
  return response;
}

inline Result<StreamingResponse> Transport::RoundTripStreaming(
    const http::Request& request) {
  Result<http::Response> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  return StreamWhole(std::move(*response));
}

// In-process transport that invokes a Handler directly. Used by the
// simulation testbed so byte accounting is exact and runs are deterministic.
class DirectTransport : public Transport {
 public:
  explicit DirectTransport(Handler handler) : handler_(std::move(handler)) {}

  Result<http::Response> RoundTrip(const http::Request& request) override {
    return handler_(request);
  }

 private:
  Handler handler_;
};

// Decorator that meters the serialized size of every request and response
// crossing the wrapped transport. `request_meter`/`response_meter` may be
// null; metering then is skipped for that direction.
class MeteredTransport : public Transport {
 public:
  MeteredTransport(std::unique_ptr<Transport> inner, ByteMeter* request_meter,
                   ByteMeter* response_meter)
      : inner_(std::move(inner)),
        request_meter_(request_meter),
        response_meter_(response_meter) {}

  Result<http::Response> RoundTrip(const http::Request& request) override {
    if (request_meter_ != nullptr) {
      request_meter_->RecordMessage(request.SerializedSize());
    }
    Result<http::Response> response = inner_->RoundTrip(request);
    if (response.ok() && response_meter_ != nullptr) {
      response_meter_->RecordMessage(response->SerializedSize());
    }
    return response;
  }

  // Forwards so the inner transport's streaming stays live. The head
  // opens the message and each pulled chunk continues it, so a response
  // meters the same payload and wire bytes as through RoundTrip.
  Result<StreamingResponse> RoundTripStreaming(
      const http::Request& request) override {
    if (request_meter_ != nullptr) {
      request_meter_->RecordMessage(request.SerializedSize());
    }
    Result<StreamingResponse> response = inner_->RoundTripStreaming(request);
    if (response.ok() && response_meter_ != nullptr) {
      const size_t head_bytes = response->head.SerializedSize();
      response_meter_->RecordMessage(head_bytes);
      response->body = std::make_unique<MeteredBodyStream>(
          std::move(response->body), response_meter_, head_bytes);
    }
    return response;
  }

 private:
  class MeteredBodyStream : public http::BodyStream {
   public:
    MeteredBodyStream(std::unique_ptr<http::BodyStream> inner,
                      ByteMeter* meter, size_t head_bytes)
        : inner_(std::move(inner)), meter_(meter), message_bytes_(head_bytes) {}

    Result<common::BufferChain> Next() override {
      Result<common::BufferChain> chunk = inner_->Next();
      if (chunk.ok()) {
        meter_->RecordBytes(message_bytes_, chunk->size());
        message_bytes_ += chunk->size();
      }
      return chunk;
    }

   private:
    std::unique_ptr<http::BodyStream> inner_;
    ByteMeter* meter_;
    size_t message_bytes_;  // Head plus body pulled so far.
  };

  std::unique_ptr<Transport> inner_;
  ByteMeter* request_meter_;
  ByteMeter* response_meter_;
};

}  // namespace dynaprox::net

#endif  // DYNAPROX_NET_TRANSPORT_H_
