#ifndef DYNAPROX_HTTP_PARSER_H_
#define DYNAPROX_HTTP_PARSER_H_

#include <optional>
#include <string>
#include <string_view>

#include "common/buffer_chain.h"
#include "common/result.h"
#include "http/message.h"

namespace dynaprox::http {

// Parses a complete request/response from `wire`. Fails with
// InvalidArgument on malformed input or if bytes remain unconsumed.
// "Transfer-Encoding: chunked" bodies are decoded: the parsed message
// carries the joined payload with Content-Length set and the
// Transfer-Encoding header removed.
Result<Request> ParseRequest(std::string_view wire);
Result<Response> ParseResponse(std::string_view wire);

// Frames a message whose chunked body has been joined into one payload of
// `body_size` bytes: Transfer-Encoding dropped, Content-Length set. Headers
// that do not declare a chunked body are left as they are. The parsers
// above apply it, and so does net::DrainWhole to a streamed body.
void Dechunk(HeaderMap& headers, size_t body_size);

// Serializes `response` with chunked transfer encoding, splitting the body
// into chunks of at most `chunk_size` bytes. (Requests stay
// Content-Length-framed; chunking is a response-streaming feature.)
std::string SerializeChunked(const Response& response, size_t chunk_size);

// Head of a streamed response: status line + headers with Content-Length
// and Transfer-Encoding dropped + "Transfer-Encoding: chunked" + blank
// line. The body then follows as chunk frames (AppendChunkFrame), one per
// BodyStream pull, closed by AppendFinalChunkFrame.
std::string SerializeStreamingHead(const Response& response);

// Appends one chunk frame carrying `payload` to `out`. Zero-copy: the
// payload's slices are spliced through; only the size line is newly
// allocated. An empty payload appends nothing (an empty chunk would
// terminate the stream early).
void AppendChunkFrame(common::BufferChain& out, common::BufferChain payload);

// Appends the terminating "0\r\n\r\n" frame.
void AppendFinalChunkFrame(common::BufferChain& out);

// Incremental decoder for a single response whose body is consumed as it
// arrives — the client half of a streaming round trip. Feed() raw bytes;
// NextHead() yields the parsed head (empty body) once the header section
// is complete; from then on TakeBody() drains payload decoded so far —
// Content-Length counted down, or chunked framing removed; no declared
// length means no body, matching the buffered parser. One response per
// reader; errors are sticky.
class StreamingResponseReader {
 public:
  // Appends raw bytes received from the transport.
  void Feed(std::string_view bytes);

  // The parsed head once complete (its body members are empty — the body
  // arrives via TakeBody). nullopt = need more bytes. Call until it
  // yields a value; calling again after that is an error.
  std::optional<Result<Response>> NextHead();

  // Decoded payload accumulated since the last call; empty when none.
  std::string TakeBody();

  // True once the whole body has been decoded (TakeBody may still hold
  // the tail).
  bool body_complete() const { return state_ == State::kDone; }

  bool failed() const { return state_ == State::kFailed; }

  // The sticky failure; Ok while the reader is healthy.
  Status status() const { return status_; }

  // Raw bytes received beyond the end of this response's body (framing
  // garbage or an unsolicited next message): non-zero means the
  // connection's state is unknown and it must not be reused.
  size_t excess_bytes() const {
    return state_ == State::kDone ? buffer_.size() : 0;
  }

  // Raw bytes buffered and not yet decoded.
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  enum class State {
    kHead,          // Header section still streaming in.
    kFixedBody,     // Content-Length countdown (`remaining_`).
    kChunkSize,     // Awaiting a chunk-size line.
    kChunkData,     // Inside a chunk (`remaining_`).
    kChunkDataCrlf, // Awaiting the CRLF after chunk data.
    kTrailer,       // Trailer section of the terminating chunk.
    kDone,
    kFailed,
  };

  Status Fail(Status status);
  // Advances body decoding as far as the buffered bytes allow.
  void Pump();

  State state_ = State::kHead;
  Status status_ = Status::Ok();
  std::string buffer_;   // Raw undecoded bytes.
  std::string decoded_;  // Payload awaiting TakeBody().
  size_t remaining_ = 0; // Bytes left in the fixed body / current chunk.
};

// Incremental reader for a byte stream carrying back-to-back HTTP messages
// (framing via Content-Length; chunked encoding is not used by dynaprox).
//
//   RequestReader reader;
//   reader.Feed(bytes);
//   while (auto req = reader.Next()) Handle(**req);  // Result<...> inside
//
// Next() returns std::nullopt when more bytes are needed; a Result carrying
// an error Status when the stream is corrupt (the reader then stays in the
// error state); and a parsed message otherwise.
//
// Optional byte caps (set_limits) bound the reader's memory against
// hostile peers: a header section that exceeds the header cap — whether
// terminated or still streaming — and a declared Content-Length (or
// accumulating chunked body) over the body cap both fail the stream with
// CapacityExceeded *before* the body is buffered. limit_violation() says
// which cap tripped so servers can answer 431 vs 413.
template <typename Message>
class MessageReader {
 public:
  struct Limits {
    size_t max_header_bytes = 0;  // 0 = unlimited.
    size_t max_body_bytes = 0;    // 0 = unlimited.
  };

  enum class LimitViolation { kNone, kHeaderBytes, kBodyBytes };

  // Appends raw bytes received from the transport.
  void Feed(std::string_view bytes);

  // Attempts to extract the next complete message. See class comment.
  std::optional<Result<Message>> Next();

  // Byte caps checked by Next(); set before feeding.
  void set_limits(Limits limits) { limits_ = limits; }

  // Bytes currently buffered and not yet consumed by Next().
  size_t buffered_bytes() const { return buffer_.size(); }

  bool failed() const { return failed_; }

  // Which cap (if any) put the reader into the failed state.
  LimitViolation limit_violation() const { return violation_; }

 private:
  Result<Message> FailLimit(LimitViolation violation, std::string message);

  std::string buffer_;
  // Progress through a chunked body still arriving: the payload decoded
  // so far, and how far into the encoded body framing resumes.
  struct {
    std::string body;
    size_t resume = 0;
  } chunked_;
  Limits limits_;
  bool failed_ = false;
  LimitViolation violation_ = LimitViolation::kNone;
};

using RequestReader = MessageReader<Request>;
using ResponseReader = MessageReader<Response>;

}  // namespace dynaprox::http

#endif  // DYNAPROX_HTTP_PARSER_H_
