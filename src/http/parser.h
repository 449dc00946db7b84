#ifndef DYNAPROX_HTTP_PARSER_H_
#define DYNAPROX_HTTP_PARSER_H_

#include <optional>
#include <string>
#include <string_view>

#include "common/buffer_chain.h"
#include "common/result.h"
#include "http/message.h"

namespace dynaprox::http {

// Parses exactly one complete request/response from `wire`: one whole-wire
// feed of the MessageReader below, failing on malformed or incomplete
// input and on bytes past the message's end.
// "Transfer-Encoding: chunked" bodies are decoded: the parsed message
// carries the joined payload with Content-Length set and the
// Transfer-Encoding header removed.
Result<Request> ParseRequest(std::string_view wire);
Result<Response> ParseResponse(std::string_view wire);

// Frames a message whose chunked body has been joined into one payload of
// `body_size` bytes: Transfer-Encoding dropped, Content-Length set. Headers
// that do not declare a chunked body are left as they are. MessageReader
// applies it, and so does net::DrainWhole to a streamed body.
void Dechunk(HeaderMap& headers, size_t body_size);

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

// The one HTTP/1.1 framing decoder: both tiers' ingress, the DPC's
// upstream reads and every whole-wire parse run it. Feed() raw bytes;
// NextHead() yields the parsed head (empty body) once the header section
// is complete; from then on TakeBody() drains the payload decoded so far
// — Content-Length counted down, or chunked framing removed; no declared
// length means no body. Errors are sticky.
//
// One framing decision per head (RFC 9112 §6.1, §6.3): Transfer-Encoding
// must be exactly "chunked" and wins over Content-Length, whose fields
// must all agree; anything else fails, since a peer reading it otherwise
// would see another message boundary. Work is linear in the bytes fed,
// however they are split.
//
// Byte caps (set_limits): a header section over the header cap, ended or
// still streaming, fails with kHeaderBytes, and so does a chunked body's
// trailer section; a declared Content-Length or chunk taking the payload
// over the body cap fails with kBodyBytes before its bytes are buffered,
// and so does any chunk-size or trailer line over 1 KiB, capped or not.
template <typename Message>
class MessageDecoder {
 public:
  struct Limits {
    size_t max_header_bytes = 0;  // 0 = unlimited.
    size_t max_body_bytes = 0;    // 0 = unlimited.
  };

  enum class LimitViolation { kNone, kHeaderBytes, kBodyBytes };

  // Byte caps; set before feeding.
  void set_limits(Limits limits) { limits_ = limits; }

  // Appends raw bytes received from the transport and decodes as much of
  // the body as they complete.
  void Feed(std::string_view bytes);

  // The parsed head once complete (its body members are empty — the body
  // arrives via TakeBody). nullopt = need more bytes. Call until it
  // yields a value; calling again after that is an error (see Restart).
  std::optional<Result<Message>> NextHead();

  // Decoded payload accumulated since the last call; empty when none.
  std::string TakeBody();

  // True once the whole body has been decoded (TakeBody may still hold
  // the tail).
  bool body_complete() const { return state_ == State::kDone; }

  // True if the body is chunked-framed (decided at the head).
  bool chunked() const { return chunked_; }

  // Begins the next message on the bytes past this one, for a stream of
  // back-to-back messages. Call once body_complete() and the body is
  // taken.
  void Restart();

  bool failed() const { return state_ == State::kFailed; }

  // The sticky failure; Ok while the decoder is healthy.
  Status status() const { return status_; }

  // Which cap (if any) put the decoder into the failed state.
  LimitViolation limit_violation() const { return violation_; }

  // Raw bytes received beyond the end of this message's body (framing
  // garbage or an unsolicited next message): non-zero means the
  // connection's state is unknown and it must not be reused.
  size_t excess_bytes() const {
    return state_ == State::kDone ? buffer_.size() - pos_ : 0;
  }

  // Raw bytes buffered and not yet decoded.
  size_t buffered_bytes() const { return buffer_.size() - pos_; }

  // Raw bytes of the current message received so far, decoded or not,
  // plus any buffered past it; 0 only between messages.
  size_t message_bytes() const { return consumed_ + buffered_bytes(); }

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

  Status Fail(Status status,
              LimitViolation violation = LimitViolation::kNone);
  std::string_view Unread() const {
    return std::string_view(buffer_).substr(pos_);
  }
  void Consume(size_t n) {
    pos_ += n;
    consumed_ += n;
    scan_ = 0;
  }
  // The next CRLF-terminated chunk-size or trailer line, consumed; nullopt
  // while incomplete or once the line cap fails the decoder. The view
  // stays valid until the next Feed.
  std::optional<std::string_view> TakeFramingLine();
  // Advances body decoding as far as the buffered bytes allow.
  void Pump();

  State state_ = State::kHead;
  Status status_ = Status::Ok();
  LimitViolation violation_ = LimitViolation::kNone;
  Limits limits_;
  bool chunked_ = false;
  std::string buffer_;    // Raw bytes; those before `pos_` are decoded.
  size_t pos_ = 0;
  size_t scan_ = 0;       // Where the search for a line end resumes.
  size_t consumed_ = 0;   // Raw bytes of this message decoded so far.
  std::string decoded_;   // Payload awaiting TakeBody().
  size_t remaining_ = 0;  // Bytes left in the body, chunk or trailer.
  size_t declared_ = 0;   // Payload bytes the chunk framing has declared.
};

// The client half of a streaming round trip: one response whose body is
// consumed as it arrives.
using StreamingResponseReader = MessageDecoder<Response>;

// Reader for a byte stream carrying back-to-back HTTP messages, each
// returned whole: the decoder above run to the end of each body, with a
// chunked body joined (Dechunk), then restarted on the bytes past it.
//
//   RequestReader reader;
//   reader.Feed(bytes);
//   while (auto req = reader.Next()) Handle(**req);  // Result<...> inside
//
// Next() returns std::nullopt when more bytes are needed; a Result carrying
// an error Status when the stream is corrupt (the reader then stays in the
// error state); and a parsed message otherwise. The byte caps are the
// decoder's; limit_violation() says which cap tripped so servers can
// answer 431 vs 413.
template <typename Message>
class MessageReader {
 public:
  using Limits = typename MessageDecoder<Message>::Limits;
  using LimitViolation = typename MessageDecoder<Message>::LimitViolation;

  // Appends raw bytes received from the transport.
  void Feed(std::string_view bytes) { decoder_.Feed(bytes); }

  // Attempts to extract the next complete message. See class comment.
  std::optional<Result<Message>> Next();

  // Byte caps checked by the decoder; set before feeding.
  void set_limits(Limits limits) { decoder_.set_limits(limits); }

  // Bytes received and not yet returned by Next(): non-zero while any
  // message is partly received.
  size_t buffered_bytes() const { return decoder_.message_bytes(); }

  bool failed() const { return decoder_.failed(); }

  // Which cap (if any) put the reader into the failed state.
  LimitViolation limit_violation() const { return decoder_.limit_violation(); }

 private:
  MessageDecoder<Message> decoder_;
  std::optional<Result<Message>> head_;  // Parsed; its body still arriving.
};

using RequestReader = MessageReader<Request>;
using ResponseReader = MessageReader<Response>;

}  // namespace dynaprox::http

#endif  // DYNAPROX_HTTP_PARSER_H_
