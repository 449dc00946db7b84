#include "http/parser.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/strings.h"

namespace dynaprox::http {
namespace {

// Bounds any single framing line (chunk size or trailer), CRLF excluded.
constexpr size_t kMaxFramingLine = 1024;

Status ParseHeaderFields(std::string_view block, HeaderMap& headers) {
  size_t pos = 0;
  while (pos < block.size()) {
    size_t eol = block.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = block.size();
    std::string_view line = block.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) continue;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("header line missing ':'");
    }
    std::string_view name = StripWhitespace(line.substr(0, colon));
    std::string_view value = StripWhitespace(line.substr(colon + 1));
    if (name.empty()) {
      return Status::InvalidArgument("empty header field name");
    }
    headers.Add(std::string(name), std::string(value));
  }
  return Status::Ok();
}

// Request line: method SP request-target SP HTTP-version.
Status ParseStartLine(std::string_view line, Request& request) {
  size_t sp1 = line.find(' ');
  size_t sp2 = sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || sp1 == 0 || sp2 == sp1 + 1 ||
      line.find(' ', sp2 + 1) != std::string_view::npos) {
    return Status::InvalidArgument("malformed request line: " +
                                   std::string(line));
  }
  std::string_view version = line.substr(sp2 + 1);
  if (!StartsWith(version, "HTTP/")) {
    return Status::InvalidArgument("bad HTTP version: " +
                                   std::string(version));
  }
  request.method = std::string(line.substr(0, sp1));
  request.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  request.version = std::string(version);
  return Status::Ok();
}

// Status line: HTTP-version SP status-code SP [reason].
Status ParseStartLine(std::string_view line, Response& response) {
  size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) {
    return Status::InvalidArgument("malformed status line");
  }
  size_t sp2 = line.find(' ', sp1 + 1);
  std::string_view version = line.substr(0, sp1);
  std::string_view code_text =
      sp2 == std::string_view::npos ? line.substr(sp1 + 1)
                                    : line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (!StartsWith(version, "HTTP/")) {
    return Status::InvalidArgument("bad HTTP version: " +
                                   std::string(version));
  }
  Result<uint64_t> code = ParseUint64(code_text);
  if (!code.ok() || *code < 100 || *code > 999) {
    return Status::InvalidArgument("bad status code: " +
                                   std::string(code_text));
  }
  response.version = std::string(version);
  response.status_code = static_cast<int>(*code);
  response.reason =
      sp2 == std::string_view::npos ? "" : std::string(line.substr(sp2 + 1));
  return Status::Ok();
}

// Parses the head (start line + header fields, without the blank line).
template <typename Message>
Status ParseHead(std::string_view head, Message& message) {
  size_t eol = head.find("\r\n");
  DYNAPROX_RETURN_IF_ERROR(ParseStartLine(head.substr(0, eol), message));
  if (eol == std::string_view::npos) return Status::Ok();
  return ParseHeaderFields(head.substr(eol + 2), message.headers);
}

// How a message's body is delimited.
struct Framing {
  bool chunked = false;
  size_t length = 0;  // Content-Length; 0 when absent or chunked.
};

// The one framing decision (RFC 9112 §6.1, §6.3), in one pass over the
// fields: a Transfer-Encoding must be exactly "chunked" and wins over
// Content-Length; otherwise every Content-Length field must carry the same
// decimal value; with neither there is no body.
Result<Framing> DecideFraming(const HeaderMap& headers) {
  int codings = 0;
  bool chunked = false;
  std::optional<std::string_view> length;
  bool lengths_disagree = false;
  for (const auto& [name, value] : headers.fields()) {
    if (EqualsIgnoreCase(name, "Transfer-Encoding")) {
      ++codings;
      chunked = EqualsIgnoreCase(StripWhitespace(value), "chunked");
    } else if (EqualsIgnoreCase(name, "Content-Length")) {
      std::string_view text = StripWhitespace(value);
      lengths_disagree |= length.has_value() && *length != text;
      length = text;
    }
  }
  if (codings != 0) {
    if (codings != 1 || !chunked) {
      return Status::InvalidArgument("Transfer-Encoding other than chunked");
    }
    return Framing{.chunked = true};
  }
  if (!length.has_value()) return Framing{};
  if (lengths_disagree) {
    return Status::InvalidArgument("conflicting Content-Length fields");
  }
  Result<uint64_t> parsed = ParseUint64(*length);
  if (!parsed.ok()) {
    return Status::InvalidArgument("bad Content-Length: " +
                                   std::string(*length));
  }
  return Framing{.length = static_cast<size_t>(*parsed)};
}

// Chunk-size line: hex digits, with any chunk extension (";...") ignored.
Result<uint64_t> ParseChunkSize(std::string_view line) {
  Result<uint64_t> size =
      ParseHex(StripWhitespace(line.substr(0, line.find(';'))));
  if (!size.ok()) return Status::InvalidArgument("bad chunk size line");
  return size;
}

void SetJoinedLength(HeaderMap& headers, size_t body_size) {
  headers.Remove("Transfer-Encoding");
  headers.Set("Content-Length", std::to_string(body_size));
}

template <typename Message>
Result<Message> ParseWhole(std::string_view wire) {
  MessageReader<Message> reader;
  reader.Feed(wire);
  std::optional<Result<Message>> message = reader.Next();
  if (!message.has_value()) {
    return Status::InvalidArgument("message incomplete");
  }
  if (message->ok() && reader.buffered_bytes() != 0) {
    return Status::InvalidArgument("bytes past the end of the message");
  }
  return std::move(*message);
}

// Shared frame punctuation: one immortal buffer each, so per-chunk
// framing costs one small size-line allocation and refcount bumps.
const common::Buffer& CrlfBuffer() {
  static const common::Buffer buffer = common::MakeBuffer("\r\n");
  return buffer;
}

const common::Buffer& FinalChunkBuffer() {
  static const common::Buffer buffer = common::MakeBuffer("0\r\n\r\n");
  return buffer;
}

}  // namespace

void Dechunk(HeaderMap& headers, size_t body_size) {
  Result<Framing> framing = DecideFraming(headers);
  if (framing.ok() && framing->chunked) SetJoinedLength(headers, body_size);
}

Result<Request> ParseRequest(std::string_view wire) {
  return ParseWhole<Request>(wire);
}

Result<Response> ParseResponse(std::string_view wire) {
  return ParseWhole<Response>(wire);
}

std::string SerializeStreamingHead(const Response& response) {
  std::string out;
  out += response.version;
  out += ' ';
  out += std::to_string(response.status_code);
  out += ' ';
  out += response.reason;
  out += "\r\n";
  for (const auto& [name, value] : response.headers.fields()) {
    if (EqualsIgnoreCase(name, "Content-Length") ||
        EqualsIgnoreCase(name, "Transfer-Encoding")) {
      continue;
    }
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "Transfer-Encoding: chunked\r\n\r\n";
  return out;
}

void AppendChunkFrame(common::BufferChain& out, common::BufferChain payload) {
  if (payload.empty()) return;
  out.Append(common::MakeBuffer(ToHex(payload.size()) + "\r\n"));
  out.Append(std::move(payload));
  out.Append(CrlfBuffer());
}

void AppendFinalChunkFrame(common::BufferChain& out) {
  out.Append(FinalChunkBuffer());
}

template <typename Message>
Status MessageDecoder<Message>::Fail(Status status,
                                     LimitViolation violation) {
  state_ = State::kFailed;
  status_ = std::move(status);
  violation_ = violation;
  buffer_.clear();  // The stream is dead; don't hold the hostile bytes.
  decoded_.clear();
  pos_ = scan_ = consumed_ = 0;
  return status_;
}

template <typename Message>
void MessageDecoder<Message>::Feed(std::string_view bytes) {
  if (state_ == State::kFailed) return;
  // Compact once per read: erasing at every framing step would make a
  // read carrying n small chunks cost O(n^2).
  if (pos_ != 0) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
  Pump();
}

template <typename Message>
std::optional<Result<Message>> MessageDecoder<Message>::NextHead() {
  if (state_ == State::kFailed) return Result<Message>(status_);
  if (state_ != State::kHead) {
    return Result<Message>(
        Fail(Status::Internal("message head already consumed")));
  }
  std::string_view unread = Unread();
  size_t end = unread.find("\r\n\r\n", scan_);
  // A head ending past the cap fails whether its terminator has arrived
  // or not: without one, the cap is passed once every place a terminator
  // could start at or before it has been seen.
  const size_t header_cap = limits_.max_header_bytes;
  if (header_cap != 0 && (end == std::string_view::npos
                              ? unread.size() > header_cap + 3
                              : end > header_cap)) {
    return Result<Message>(
        Fail(Status::CapacityExceeded("header section exceeds " +
                                      std::to_string(header_cap) + " bytes"),
             LimitViolation::kHeaderBytes));
  }
  if (end == std::string_view::npos) {
    // The terminator may straddle this read's end: resume 3 bytes early.
    scan_ = std::max(unread.size(), size_t{3}) - 3;
    return std::nullopt;
  }

  Message message;
  Status parsed = ParseHead(unread.substr(0, end), message);
  if (!parsed.ok()) return Result<Message>(Fail(std::move(parsed)));
  Result<Framing> framing = DecideFraming(message.headers);
  if (!framing.ok()) return Result<Message>(Fail(framing.status()));
  if (framing->chunked) {
    chunked_ = true;
    state_ = State::kChunkSize;
  } else {
    // Reject an over-cap declaration before buffering the body: a single
    // "Content-Length: 999999999999" must not commit the decoder to
    // gigabytes of allocation.
    if (limits_.max_body_bytes != 0 &&
        framing->length > limits_.max_body_bytes) {
      return Result<Message>(
          Fail(Status::CapacityExceeded(
                   "declared Content-Length " +
                   std::to_string(framing->length) + " exceeds " +
                   std::to_string(limits_.max_body_bytes)),
               LimitViolation::kBodyBytes));
    }
    remaining_ = framing->length;
    state_ = remaining_ == 0 ? State::kDone : State::kFixedBody;
  }
  Consume(end + 4);
  Pump();
  if (state_ == State::kFailed) return Result<Message>(status_);
  return Result<Message>(std::move(message));
}

template <typename Message>
std::string MessageDecoder<Message>::TakeBody() {
  std::string out = std::move(decoded_);
  decoded_.clear();
  return out;
}

template <typename Message>
void MessageDecoder<Message>::Restart() {
  state_ = State::kHead;
  chunked_ = false;
  scan_ = consumed_ = declared_ = 0;
  decoded_.clear();
}

template <typename Message>
std::optional<std::string_view> MessageDecoder<Message>::TakeFramingLine() {
  std::string_view unread = Unread();
  size_t eol = unread.find("\r\n", scan_);
  // A peer streaming an endless line must not grow the buffer without
  // bound. The verdict depends on the line, not on how much of it has
  // arrived: unterminated, it is over the cap once more than the cap and
  // a CR are buffered.
  if (eol == std::string_view::npos ? unread.size() > kMaxFramingLine + 1
                                    : eol > kMaxFramingLine) {
    Fail(Status::CapacityExceeded("chunk framing line exceeds " +
                                  std::to_string(kMaxFramingLine) +
                                  " bytes"),
         LimitViolation::kBodyBytes);
    return std::nullopt;
  }
  if (eol == std::string_view::npos) {
    scan_ = std::max(unread.size(), size_t{1}) - 1;  // A CR may end it.
    return std::nullopt;
  }
  Consume(eol + 2);
  return unread.substr(0, eol);
}

template <typename Message>
void MessageDecoder<Message>::Pump() {
  for (;;) {
    switch (state_) {
      case State::kHead:
      case State::kDone:
      case State::kFailed:
        return;
      case State::kFixedBody:
      case State::kChunkData: {
        std::string_view unread = Unread();
        size_t take = std::min(unread.size(), remaining_);
        if (take == 0) return;
        decoded_.append(unread.data(), take);
        Consume(take);
        remaining_ -= take;
        if (remaining_ != 0) return;
        state_ = state_ == State::kFixedBody ? State::kDone
                                             : State::kChunkDataCrlf;
        break;
      }
      case State::kChunkSize: {
        std::optional<std::string_view> line = TakeFramingLine();
        if (!line.has_value()) return;
        Result<uint64_t> size = ParseChunkSize(*line);
        if (!size.ok()) {
          Fail(size.status());
          return;
        }
        // The body cap judges the payload the stream is committed to:
        // chunks decoded so far plus this declared one. Framing never
        // counts, so an under-cap body sent as many small chunks is not
        // rejected while incomplete.
        const size_t body_cap = limits_.max_body_bytes;
        if (body_cap != 0 &&
            (*size > body_cap || declared_ > body_cap - *size)) {
          Fail(Status::CapacityExceeded("chunked body exceeds " +
                                        std::to_string(body_cap) + " bytes"),
               LimitViolation::kBodyBytes);
          return;
        }
        declared_ += *size;
        if (*size != 0) {
          remaining_ = *size;
          state_ = State::kChunkData;
        } else {
          // A trailer section is a field section: the header cap bounds
          // it as it bounds the head.
          const size_t header_cap = limits_.max_header_bytes;
          remaining_ = header_cap != 0 ? header_cap : SIZE_MAX;
          state_ = State::kTrailer;
        }
        break;
      }
      case State::kChunkDataCrlf: {
        std::string_view unread = Unread();
        if (unread.size() < 2) return;
        if (unread.substr(0, 2) != "\r\n") {
          Fail(Status::InvalidArgument("chunk data not CRLF-terminated"));
          return;
        }
        Consume(2);
        state_ = State::kChunkSize;
        break;
      }
      case State::kTrailer: {
        std::optional<std::string_view> line = TakeFramingLine();
        if (!line.has_value()) return;
        if (line->empty()) {
          state_ = State::kDone;  // Blank line: body over.
        } else if (line->size() + 2 > remaining_) {
          Fail(Status::CapacityExceeded(
                   "trailer section exceeds " +
                   std::to_string(limits_.max_header_bytes) + " bytes"),
               LimitViolation::kHeaderBytes);
          return;
        } else {
          remaining_ -= line->size() + 2;
        }
        break;
      }
    }
  }
}

template <typename Message>
std::optional<Result<Message>> MessageReader<Message>::Next() {
  if (head_.has_value() && !decoder_.failed() && !decoder_.body_complete()) {
    return std::nullopt;  // The body is still arriving.
  }
  std::optional<Result<Message>> next =
      head_.has_value() ? std::exchange(head_, std::nullopt)
                        : decoder_.NextHead();
  if (!next.has_value() || !next->ok()) return next;
  if (decoder_.failed()) return Result<Message>(decoder_.status());
  if (!decoder_.body_complete()) {
    head_ = std::move(next);
    return std::nullopt;
  }
  Message& message = next->value();
  message.body = decoder_.TakeBody();
  if (decoder_.chunked()) {
    SetJoinedLength(message.headers, message.body.size());
  }
  decoder_.Restart();
  return next;
}

template class MessageDecoder<Request>;
template class MessageDecoder<Response>;
template class MessageReader<Request>;
template class MessageReader<Response>;

}  // namespace dynaprox::http
