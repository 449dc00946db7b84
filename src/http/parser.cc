#include "http/parser.h"

#include "common/strings.h"

namespace dynaprox::http {
namespace {

// Splits "head\r\nbody" at the first blank line; returns npos if absent.
size_t FindHeaderEnd(std::string_view wire) {
  return wire.find("\r\n\r\n");
}

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

Result<size_t> DeclaredBodyLength(const HeaderMap& headers) {
  auto field = headers.Get("Content-Length");
  if (!field.has_value()) return size_t{0};
  Result<uint64_t> parsed = ParseUint64(StripWhitespace(*field));
  if (!parsed.ok()) {
    return Status::InvalidArgument("bad Content-Length: " +
                                   std::string(*field));
  }
  return static_cast<size_t>(*parsed);
}

bool IsChunked(const HeaderMap& headers) {
  auto field = headers.Get("Transfer-Encoding");
  return field.has_value() &&
         EqualsIgnoreCase(StripWhitespace(*field), "chunked");
}

// Decodes the chunked body framed in `wire` from `pos` on, appending each
// complete chunk's payload to `body` and moving `pos` past it, so a caller
// holding an incomplete message resumes where it stopped.
// Returns:
//   ok(true)  — complete; `pos` is one past the terminator and trailers.
//   ok(false) — more bytes needed; `pos` is at the first chunk not yet
//               decoded (an incomplete trailer section is re-read from
//               its zero-size chunk line) and `pending_declared` the size
//               of a declared but not yet fully delivered chunk (0 if
//               none), so callers can enforce body caps on exactly the
//               payload bytes the stream is committed to.
//   error     — malformed framing.
Result<bool> TryDecodeChunked(std::string_view wire, size_t& pos,
                              std::string& body, size_t& pending_declared) {
  pending_declared = 0;
  for (;;) {
    size_t line_end = wire.find("\r\n", pos);
    if (line_end == std::string_view::npos) return false;
    std::string_view size_line = wire.substr(pos, line_end - pos);
    // Ignore chunk extensions (";...").
    if (size_t semicolon = size_line.find(';');
        semicolon != std::string_view::npos) {
      size_line = size_line.substr(0, semicolon);
    }
    Result<uint64_t> chunk_size = ParseHex(StripWhitespace(size_line));
    if (!chunk_size.ok()) {
      return Status::InvalidArgument("bad chunk size line");
    }
    size_t data = line_end + 2;
    if (*chunk_size == 0) {
      // Trailer section: zero or more header lines, then a blank line.
      for (;;) {
        size_t trailer_end = wire.find("\r\n", data);
        if (trailer_end == std::string_view::npos) return false;
        if (trailer_end == data) {  // Blank line: done.
          pos = trailer_end + 2;
          return true;
        }
        data = trailer_end + 2;
      }
    }
    if (wire.size() - data < 2 || *chunk_size > wire.size() - data - 2) {
      pending_declared = static_cast<size_t>(*chunk_size);
      return false;
    }
    body.append(wire.substr(data, *chunk_size));
    data += *chunk_size;
    if (wire.compare(data, 2, "\r\n") != 0) {
      return Status::InvalidArgument("chunk data not CRLF-terminated");
    }
    pos = data + 2;
  }
}

// Parses the head (start line + headers) of a request.
Status ParseRequestHead(std::string_view head, Request& request) {
  size_t eol = head.find("\r\n");
  std::string_view start_line = head.substr(0, eol);
  std::vector<std::string_view> parts = StrSplit(start_line, ' ');
  if (parts.size() != 3 || parts[0].empty() || parts[1].empty()) {
    return Status::InvalidArgument("malformed request line: " +
                                   std::string(start_line));
  }
  if (!StartsWith(parts[2], "HTTP/")) {
    return Status::InvalidArgument("bad HTTP version: " +
                                   std::string(parts[2]));
  }
  request.method = std::string(parts[0]);
  request.target = std::string(parts[1]);
  request.version = std::string(parts[2]);
  std::string_view fields =
      eol == std::string_view::npos ? std::string_view() : head.substr(eol + 2);
  return ParseHeaderFields(fields, request.headers);
}

Status ParseResponseHead(std::string_view head, Response& response) {
  size_t eol = head.find("\r\n");
  std::string_view start_line = head.substr(0, eol);
  // Status line: HTTP-version SP status-code SP [reason].
  size_t sp1 = start_line.find(' ');
  if (sp1 == std::string_view::npos) {
    return Status::InvalidArgument("malformed status line");
  }
  size_t sp2 = start_line.find(' ', sp1 + 1);
  std::string_view version = start_line.substr(0, sp1);
  std::string_view code_text =
      sp2 == std::string_view::npos
          ? start_line.substr(sp1 + 1)
          : start_line.substr(sp1 + 1, sp2 - sp1 - 1);
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
  response.reason = sp2 == std::string_view::npos
                        ? ""
                        : std::string(start_line.substr(sp2 + 1));
  std::string_view fields =
      eol == std::string_view::npos ? std::string_view() : head.substr(eol + 2);
  return ParseHeaderFields(fields, response.headers);
}

// Shared complete-buffer parse: head parse + exact body length check.
template <typename Message, typename HeadParser>
Result<Message> ParseComplete(std::string_view wire, HeadParser parse_head) {
  size_t header_end = FindHeaderEnd(wire);
  if (header_end == std::string_view::npos) {
    return Status::InvalidArgument("message head not terminated");
  }
  Message message;
  DYNAPROX_RETURN_IF_ERROR(parse_head(wire.substr(0, header_end), message));

  if (IsChunked(message.headers)) {
    size_t end = header_end + 4;
    size_t pending = 0;
    Result<bool> complete =
        TryDecodeChunked(wire, end, message.body, pending);
    if (!complete.ok()) return complete.status();
    if (!*complete || end != wire.size()) {
      return Status::InvalidArgument("chunked body truncated or trailing");
    }
    Dechunk(message.headers, message.body.size());
    return message;
  }

  size_t body_length = 0;
  DYNAPROX_ASSIGN_OR_RETURN(body_length,
                            DeclaredBodyLength(message.headers));
  std::string_view body = wire.substr(header_end + 4);
  if (body.size() != body_length) {
    return Status::InvalidArgument("body length mismatch: declared " +
                                   std::to_string(body_length) + ", have " +
                                   std::to_string(body.size()));
  }
  message.body = std::string(body);
  return message;
}

}  // namespace

void Dechunk(HeaderMap& headers, size_t body_size) {
  if (!IsChunked(headers)) return;
  headers.Remove("Transfer-Encoding");
  headers.Set("Content-Length", std::to_string(body_size));
}

Result<Request> ParseRequest(std::string_view wire) {
  return ParseComplete<Request>(wire, ParseRequestHead);
}

Result<Response> ParseResponse(std::string_view wire) {
  return ParseComplete<Response>(wire, ParseResponseHead);
}

template <typename Message>
void MessageReader<Message>::Feed(std::string_view bytes) {
  buffer_.append(bytes.data(), bytes.size());
}

template <typename Message>
Result<Message> MessageReader<Message>::FailLimit(LimitViolation violation,
                                                  std::string message) {
  failed_ = true;
  violation_ = violation;
  buffer_.clear();  // The stream is dead; don't hold the hostile bytes.
  chunked_ = {};
  return Result<Message>(Status::CapacityExceeded(std::move(message)));
}

template <typename Message>
std::optional<Result<Message>> MessageReader<Message>::Next() {
  if (failed_) {
    return Result<Message>(Status::Corruption("reader in failed state"));
  }
  size_t header_end = FindHeaderEnd(buffer_);
  if (header_end == std::string::npos) {
    // An endless header section must not grow the buffer without bound:
    // once more than the cap is buffered with no terminator in sight, the
    // stream can never produce an acceptable message.
    if (limits_.max_header_bytes != 0 &&
        buffer_.size() > limits_.max_header_bytes) {
      return FailLimit(
          LimitViolation::kHeaderBytes,
          "header section exceeds " +
              std::to_string(limits_.max_header_bytes) + " bytes");
    }
    return std::nullopt;
  }
  if (limits_.max_header_bytes != 0 &&
      header_end > limits_.max_header_bytes) {
    return FailLimit(LimitViolation::kHeaderBytes,
                     "header section of " + std::to_string(header_end) +
                         " bytes exceeds " +
                         std::to_string(limits_.max_header_bytes));
  }

  Message message;
  Status head_status;
  if constexpr (std::is_same_v<Message, Request>) {
    head_status = ParseRequestHead(
        std::string_view(buffer_).substr(0, header_end), message);
  } else {
    head_status = ParseResponseHead(
        std::string_view(buffer_).substr(0, header_end), message);
  }
  if (!head_status.ok()) {
    failed_ = true;
    return Result<Message>(head_status);
  }
  if (IsChunked(message.headers)) {
    // Framing resumes where the previous call stopped: decoding from the
    // first body byte on every call would make a body of n small chunks
    // cost O(n^2).
    size_t pos = header_end + 4 + chunked_.resume;
    size_t pending = 0;
    Result<bool> complete =
        TryDecodeChunked(buffer_, pos, chunked_.body, pending);
    chunked_.resume = pos - header_end - 4;
    if (!complete.ok()) {
      failed_ = true;
      chunked_ = {};
      return Result<Message>(complete.status());
    }
    if (limits_.max_body_bytes != 0) {
      // The cap applies to payload bytes the stream is committed to:
      // chunks decoded so far plus any declared-but-undelivered chunk.
      // Framing overhead (chunk-size lines, CRLFs) never counts, so a
      // legitimate under-cap body sent as many small chunks is never
      // rejected while incomplete. A generous raw backstop still bounds
      // buffer growth against framing that decodes to nothing (an
      // endless chunk-size line or trailer section); 8x covers the
      // worst legitimate expansion of 1-byte chunks (6 bytes each).
      size_t encoded = buffer_.size() - header_end - 4;
      if (pending > limits_.max_body_bytes ||
          chunked_.body.size() > limits_.max_body_bytes - pending ||
          (!*complete && encoded > 8 * limits_.max_body_bytes + 4096)) {
        return FailLimit(LimitViolation::kBodyBytes,
                         "chunked body exceeds " +
                             std::to_string(limits_.max_body_bytes) +
                             " bytes");
      }
    }
    if (!*complete) return std::nullopt;  // Await more bytes.
    message.body = std::move(chunked_.body);
    chunked_ = {};
    Dechunk(message.headers, message.body.size());
    buffer_.erase(0, pos);
    return Result<Message>(std::move(message));
  }

  Result<size_t> body_length = DeclaredBodyLength(message.headers);
  if (!body_length.ok()) {
    failed_ = true;
    return Result<Message>(body_length.status());
  }
  // Reject an over-cap declaration before buffering the body: a single
  // "Content-Length: 999999999999" must not commit the reader to
  // gigabytes of allocation.
  if (limits_.max_body_bytes != 0 &&
      *body_length > limits_.max_body_bytes) {
    return FailLimit(LimitViolation::kBodyBytes,
                     "declared Content-Length " +
                         std::to_string(*body_length) + " exceeds " +
                         std::to_string(limits_.max_body_bytes));
  }
  size_t total = header_end + 4 + *body_length;
  if (buffer_.size() < total) return std::nullopt;
  message.body = buffer_.substr(header_end + 4, *body_length);
  buffer_.erase(0, total);
  return Result<Message>(std::move(message));
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

std::string SerializeChunked(const Response& response, size_t chunk_size) {
  if (chunk_size == 0) chunk_size = 4096;
  std::string out = SerializeStreamingHead(response);
  std::string_view body(response.body);
  for (size_t offset = 0; offset < body.size(); offset += chunk_size) {
    std::string_view chunk = body.substr(offset, chunk_size);
    out += ToHex(chunk.size());
    out += "\r\n";
    out += chunk;
    out += "\r\n";
  }
  out += "0\r\n\r\n";
  return out;
}

namespace {

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

void AppendChunkFrame(common::BufferChain& out, common::BufferChain payload) {
  if (payload.empty()) return;
  out.Append(common::MakeBuffer(ToHex(payload.size()) + "\r\n"));
  out.Append(std::move(payload));
  out.Append(CrlfBuffer());
}

void AppendFinalChunkFrame(common::BufferChain& out) {
  out.Append(FinalChunkBuffer());
}

Status StreamingResponseReader::Fail(Status status) {
  state_ = State::kFailed;
  status_ = status;
  buffer_.clear();
  decoded_.clear();
  return status_;
}

void StreamingResponseReader::Feed(std::string_view bytes) {
  if (state_ == State::kFailed) return;
  buffer_.append(bytes.data(), bytes.size());
  if (state_ != State::kHead) Pump();
}

std::optional<Result<Response>> StreamingResponseReader::NextHead() {
  if (state_ == State::kFailed) return Result<Response>(status_);
  if (state_ != State::kHead) {
    return Result<Response>(
        Fail(Status::Internal("response head already consumed")));
  }
  size_t header_end = FindHeaderEnd(buffer_);
  if (header_end == std::string::npos) return std::nullopt;
  Response response;
  Status head_status = ParseResponseHead(
      std::string_view(buffer_).substr(0, header_end), response);
  if (!head_status.ok()) return Result<Response>(Fail(head_status));
  if (IsChunked(response.headers)) {
    state_ = State::kChunkSize;
  } else {
    Result<size_t> length = DeclaredBodyLength(response.headers);
    if (!length.ok()) return Result<Response>(Fail(length.status()));
    remaining_ = *length;
    state_ = remaining_ == 0 ? State::kDone : State::kFixedBody;
  }
  buffer_.erase(0, header_end + 4);
  Pump();
  if (state_ == State::kFailed) return Result<Response>(status_);
  return Result<Response>(std::move(response));
}

std::string StreamingResponseReader::TakeBody() {
  std::string out = std::move(decoded_);
  decoded_.clear();
  return out;
}

void StreamingResponseReader::Pump() {
  // Bounds any single framing line (chunk size or trailer): a peer that
  // streams an endless line must not grow the buffer without limit.
  constexpr size_t kMaxFramingLine = 1024;
  for (;;) {
    switch (state_) {
      case State::kHead:
      case State::kDone:
      case State::kFailed:
        return;
      case State::kFixedBody:
      case State::kChunkData: {
        if (buffer_.empty()) return;
        size_t take = buffer_.size() < remaining_ ? buffer_.size() : remaining_;
        decoded_.append(buffer_, 0, take);
        buffer_.erase(0, take);
        remaining_ -= take;
        if (remaining_ != 0) return;
        state_ = state_ == State::kFixedBody ? State::kDone
                                             : State::kChunkDataCrlf;
        break;
      }
      case State::kChunkSize: {
        size_t eol = buffer_.find("\r\n");
        if (eol == std::string::npos) {
          if (buffer_.size() > kMaxFramingLine) {
            Fail(Status::InvalidArgument("bad chunk size line"));
          }
          return;
        }
        std::string_view line(buffer_.data(), eol);
        if (size_t semicolon = line.find(';');
            semicolon != std::string_view::npos) {
          line = line.substr(0, semicolon);  // Ignore chunk extensions.
        }
        Result<uint64_t> chunk_size = ParseHex(StripWhitespace(line));
        if (!chunk_size.ok()) {
          Fail(Status::InvalidArgument("bad chunk size line"));
          return;
        }
        size_t size = static_cast<size_t>(*chunk_size);
        buffer_.erase(0, eol + 2);
        if (size == 0) {
          state_ = State::kTrailer;
        } else {
          remaining_ = size;
          state_ = State::kChunkData;
        }
        break;
      }
      case State::kChunkDataCrlf: {
        if (buffer_.size() < 2) return;
        if (buffer_.compare(0, 2, "\r\n") != 0) {
          Fail(Status::InvalidArgument("chunk data not CRLF-terminated"));
          return;
        }
        buffer_.erase(0, 2);
        state_ = State::kChunkSize;
        break;
      }
      case State::kTrailer: {
        size_t eol = buffer_.find("\r\n");
        if (eol == std::string::npos) {
          if (buffer_.size() > kMaxFramingLine) {
            Fail(Status::InvalidArgument("bad trailer line"));
          }
          return;
        }
        buffer_.erase(0, eol + 2);
        if (eol == 0) state_ = State::kDone;  // Blank line: body over.
        break;
      }
    }
  }
}

template class MessageReader<Request>;
template class MessageReader<Response>;

}  // namespace dynaprox::http
