// The framing decoder behind every HTTP reader: its one framing decision
// (the request-smuggling framings it refuses), work linear in the bytes
// fed however they are split, and a seeded round trip of random messages
// through the serializers and back under random splits.

#include <ctime>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/buffer_chain.h"
#include "common/rng.h"
#include "http/parser.h"

namespace dynaprox::http {
namespace {

using Violation = RequestReader::LimitViolation;

// Two Content-Length fields that disagree: a peer honouring the other
// one would see a different message boundary (RFC 9112 §6.3).
constexpr char kConflictingLengths[] =
    "Content-Length: 0\r\nContent-Length: 5\r\n\r\nhello";
// A coding stack ending in chunked: an intermediary that only knows
// "Transfer-Encoding: chunked" would read the chunk bytes as the next
// message (RFC 9112 §6.1).
constexpr char kGzipThenChunked[] =
    "Transfer-Encoding: gzip, chunked\r\n\r\n"
    "1a\r\nGET /smuggled HTTP/1.1\r\n\r\n\r\n0\r\n\r\n";

double CpuSecondsSince(std::clock_t start) {
  return static_cast<double>(std::clock() - start) / CLOCKS_PER_SEC;
}

TEST(FramingDecisionTest, RequestReaderRejectsConflictingContentLengths) {
  RequestReader reader;
  reader.Feed(std::string("POST /a HTTP/1.1\r\n") + kConflictingLengths);
  auto next = reader.Next();
  ASSERT_TRUE(next.has_value());
  EXPECT_FALSE(next->ok());
  EXPECT_EQ(next->status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reader.limit_violation(), Violation::kNone);  // Answered 400.
  EXPECT_TRUE(reader.failed());
}

TEST(FramingDecisionTest, RequestReaderRejectsCodingsOtherThanChunked) {
  for (const char* coding :
       {"gzip, chunked", "chunked, chunked", "identity", "chunked;q=1"}) {
    RequestReader reader;
    reader.Feed(std::string("POST /a HTTP/1.1\r\nTransfer-Encoding: ") +
                coding + "\r\n\r\n0\r\n\r\n");
    auto next = reader.Next();
    ASSERT_TRUE(next.has_value()) << coding;
    EXPECT_FALSE(next->ok()) << coding;
    EXPECT_EQ(next->status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(reader.limit_violation(), Violation::kNone);
  }
  // Two fields, each "chunked", are a coding list too.
  RequestReader reader;
  reader.Feed(
      "POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
      "Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n");
  auto next = reader.Next();
  ASSERT_TRUE(next.has_value());
  EXPECT_FALSE(next->ok());
}

TEST(FramingDecisionTest, RepeatedIdenticalContentLengthIsAccepted) {
  RequestReader reader;
  reader.Feed(
      "POST /a HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n"
      "hello");
  auto next = reader.Next();
  ASSERT_TRUE(next.has_value());
  ASSERT_TRUE(next->ok()) << next->status().ToString();
  EXPECT_EQ((*next)->body, "hello");
}

TEST(FramingDecisionTest, ChunkedWinsOverContentLength) {
  Result<Request> parsed = ParseRequest(
      "POST /a HTTP/1.1\r\nContent-Length: 99\r\n"
      "Transfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->body, "abc");
  EXPECT_EQ(parsed->headers.GetAll("Content-Length"),
            std::vector<std::string_view>{"3"});
  EXPECT_FALSE(parsed->headers.Has("Transfer-Encoding"));
}

TEST(FramingDecisionTest, ParseResponseRejectsBothSmugglingFramings) {
  // Each wire is one complete message under either reading of its first
  // framing field, so only the framing decision can reject it.
  for (const char* wire :
       {"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\n"
        "hello",
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n\r\n"}) {
    Result<Response> parsed = ParseResponse(wire);
    EXPECT_FALSE(parsed.ok()) << wire;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FramingDecisionTest, StreamingReaderRejectsBothSmugglingFramings) {
  for (const char* rest : {kConflictingLengths, kGzipThenChunked}) {
    StreamingResponseReader reader;
    reader.Feed(std::string("HTTP/1.1 200 OK\r\n") + rest);
    auto head = reader.NextHead();
    ASSERT_TRUE(head.has_value());
    EXPECT_FALSE(head->ok());
    EXPECT_TRUE(reader.failed());
  }
}

TEST(MessageDecoderTest, BufferedBytesCountAMessageWhoseBodyIsInFlight) {
  // A server's header deadline treats buffered_bytes() == 0 as a clean
  // message boundary, so a request whose head is decoded but whose body
  // has not arrived must still count.
  for (const char* head :
       {"POST /a HTTP/1.1\r\nContent-Length: 4\r\n\r\n",
        "POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"}) {
    RequestReader reader;
    reader.Feed(head);
    EXPECT_FALSE(reader.Next().has_value());
    EXPECT_GT(reader.buffered_bytes(), 0u) << head;
  }
}

// Feeds `wire` to `reader`, whole or one byte per read, and returns the
// first message or error (nullopt: incomplete).
std::optional<Result<Request>> ReadFirst(RequestReader& reader,
                                         std::string_view wire,
                                         bool byte_at_a_time) {
  size_t step = byte_at_a_time ? 1 : wire.size();
  for (size_t at = 0; at < wire.size(); at += step) {
    reader.Feed(wire.substr(at, step));
    if (auto next = reader.Next()) return next;
  }
  return std::nullopt;
}

TEST(MessageDecoderTest, HeaderCapVerdictDoesNotDependOnReadBoundaries) {
  // A head of exactly the cap is accepted however it arrives; one byte
  // more is refused whole or dripped, with the same error.
  for (size_t pad : {size_t{77}, size_t{78}}) {
    const std::string wire =
        "GET / HTTP/1.1\r\nX-Pad: " + std::string(pad, 'p') + "\r\n\r\n";
    const bool fits = wire.size() - 4 <= 100;
    for (bool dripped : {false, true}) {
      RequestReader reader;
      reader.set_limits({100, 0});
      auto first = ReadFirst(reader, wire, dripped);
      ASSERT_TRUE(first.has_value()) << pad << " " << dripped;
      EXPECT_EQ(first->ok(), fits) << pad << " " << dripped;
      if (!fits) {
        EXPECT_EQ(first->status().ToString(),
                  "CapacityExceeded: header section exceeds 100 bytes");
      }
    }
  }
}

TEST(MessageDecoderTest, FramingLineCapDoesNotDependOnReadBoundaries) {
  // A chunk-size line of 1024 bytes (a long extension) is accepted however
  // it arrives; one of 1025 bytes is refused whole or dripped, as 413.
  for (size_t line : {size_t{1024}, size_t{1025}}) {
    const std::string wire =
        "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n1;" +
        std::string(line - 2, 'e') + "\r\nx\r\n0\r\n\r\n";
    for (bool dripped : {false, true}) {
      RequestReader reader;
      auto first = ReadFirst(reader, wire, dripped);
      ASSERT_TRUE(first.has_value()) << line << " " << dripped;
      EXPECT_EQ(first->ok(), line == 1024) << line << " " << dripped;
      EXPECT_EQ(reader.limit_violation(),
                line == 1024 ? Violation::kNone : Violation::kBodyBytes);
    }
  }
}

TEST(MessageDecoderTest, TrailerSectionCountsAgainstTheHeaderCap) {
  // Trailer fields are discarded line by line, so no buffer grows; the
  // header cap still bounds how many of them a peer may send.
  for (size_t fields : {size_t{4}, size_t{5}}) {
    std::string trailer;
    for (size_t i = 0; i < fields; ++i) {
      trailer += "X-T: " + std::string(18, 't') + "\r\n";  // 25 bytes.
    }
    RequestReader reader;
    reader.set_limits({100, 1024});
    reader.Feed("POST /t HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                "1\r\nx\r\n0\r\n" + trailer + "\r\n");
    auto next = reader.Next();
    ASSERT_TRUE(next.has_value()) << fields;
    EXPECT_EQ(next->ok(), fields == 4) << fields;
    EXPECT_EQ(reader.limit_violation(),
              fields == 4 ? Violation::kNone : Violation::kHeaderBytes);
  }
}

TEST(MessageDecoderTest, HeadFedOneBytePerCallDecodesInLinearTime) {
  // A slowloris client drips a 768 KiB header section one byte per read.
  // Searching the whole buffer for the blank line on every read is
  // quadratic: about 5.5 s of CPU per reader on a 4-core x86 VM.
  const std::string pad(768 * 1024, 'h');
  const std::string request = "GET / HTTP/1.1\r\nX-Pad: " + pad + "\r\n\r\n";
  RequestReader reader;
  std::clock_t start = std::clock();
  for (size_t i = 0; i + 1 < request.size(); ++i) {
    reader.Feed(std::string_view(request).substr(i, 1));
    ASSERT_FALSE(reader.Next().has_value()) << "byte " << i;
  }
  reader.Feed(std::string_view(request).substr(request.size() - 1));
  auto parsed = reader.Next();
  EXPECT_LT(CpuSecondsSince(start), 1.0);
  ASSERT_TRUE(parsed.has_value() && parsed->ok());
  EXPECT_EQ((*parsed)->headers.Get("X-Pad"), pad);

  const std::string response =
      "HTTP/1.1 200 OK\r\nX-Pad: " + pad + "\r\nContent-Length: 2\r\n\r\nok";
  StreamingResponseReader streaming;
  start = std::clock();
  std::optional<Result<Response>> head;
  for (size_t i = 0; i < response.size() && !head.has_value(); ++i) {
    streaming.Feed(std::string_view(response).substr(i, 1));
    head = streaming.NextHead();
  }
  EXPECT_LT(CpuSecondsSince(start), 1.0);
  ASSERT_TRUE(head.has_value() && head->ok());
  EXPECT_EQ((*head)->headers.Get("X-Pad"), pad);
}

TEST(MessageDecoderTest, TrailerFedOneBytePerCallDecodesInLinearTime) {
  // 256 KiB of trailer fields, dripped one byte per read. Re-reading the
  // trailer section from its zero-size chunk line on every read is
  // quadratic: about 5.5 s of CPU for the request reader on a 4-core x86
  // VM.
  std::string trailer;
  while (trailer.size() < 256 * 1024) {
    trailer += "X-Trailer: " + std::string(50, 't') + "\r\n";
  }
  const std::string body = "3\r\nabc\r\n0\r\n" + trailer + "\r\n";
  RequestReader reader;
  reader.Feed("POST /t HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  ASSERT_FALSE(reader.Next().has_value());
  StreamingResponseReader streaming;
  streaming.Feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n");
  auto head = streaming.NextHead();
  ASSERT_TRUE(head.has_value() && head->ok());

  std::clock_t start = std::clock();
  for (size_t i = 0; i + 1 < body.size(); ++i) {
    reader.Feed(std::string_view(body).substr(i, 1));
    ASSERT_FALSE(reader.Next().has_value()) << "byte " << i;
    streaming.Feed(std::string_view(body).substr(i, 1));
  }
  reader.Feed(std::string_view(body).substr(body.size() - 1));
  streaming.Feed(std::string_view(body).substr(body.size() - 1));
  auto request = reader.Next();
  EXPECT_LT(CpuSecondsSince(start), 1.0);
  ASSERT_TRUE(request.has_value() && request->ok());
  EXPECT_EQ((*request)->body, "abc");
  EXPECT_EQ(reader.buffered_bytes(), 0u);
  EXPECT_TRUE(streaming.body_complete());
  EXPECT_EQ(streaming.TakeBody(), "abc");
}

TEST(MessageDecoderTest, ManyOneByteChunksInOneFeedDecodeInLinearTime) {
  // About 1 MB of one-byte chunks arriving in one read. Erasing the front
  // of the buffer at every framing step is quadratic: about 6 s of CPU for
  // the streaming reader on a 4-core x86 VM.
  constexpr size_t kChunks = 160'000;
  std::string chunks;
  chunks.reserve(kChunks * 6 + 5);
  for (size_t i = 0; i < kChunks; ++i) chunks += "1\r\nx\r\n";
  chunks += "0\r\n\r\n";

  StreamingResponseReader streaming;
  streaming.Feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n");
  auto head = streaming.NextHead();
  ASSERT_TRUE(head.has_value() && head->ok());
  std::clock_t start = std::clock();
  streaming.Feed(chunks);
  EXPECT_LT(CpuSecondsSince(start), 1.0);
  EXPECT_TRUE(streaming.body_complete());
  EXPECT_EQ(streaming.TakeBody(), std::string(kChunks, 'x'));
  EXPECT_EQ(streaming.excess_bytes(), 0u);

  RequestReader reader;
  start = std::clock();
  reader.Feed("POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n" +
              chunks);
  auto request = reader.Next();
  EXPECT_LT(CpuSecondsSince(start), 1.0);
  ASSERT_TRUE(request.has_value() && request->ok());
  EXPECT_EQ((*request)->body.size(), kChunks);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

// --- Seeded round trip: random messages, serialized, decoded back. ---

std::string RandomToken(Rng& rng, size_t max_len) {
  static constexpr char kChars[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.";
  std::string out;
  size_t len = 1 + rng.NextBounded(max_len);
  for (size_t i = 0; i < len; ++i) {
    out += kChars[rng.NextBounded(sizeof(kChars) - 1)];
  }
  return out;
}

std::string RandomBytes(Rng& rng, size_t max_len) {
  std::string out;
  size_t len = rng.NextBounded(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    // Framing bytes are over-represented: a body must carry them opaquely.
    out += rng.NextBool(0.2) ? "\r\n0;"[rng.NextBounded(4)]
                             : static_cast<char>(rng.NextBounded(256));
  }
  return out;
}

HeaderMap RandomHeaders(Rng& rng) {
  HeaderMap headers;
  size_t count = rng.NextBounded(6);
  for (size_t i = 0; i < count; ++i) {
    std::string value = RandomToken(rng, 12);
    if (rng.NextBool(0.3)) value += " " + RandomToken(rng, 8);
    headers.Add("X-" + RandomToken(rng, 10), std::move(value));
  }
  return headers;
}

// The fields a reader returns for a message framed by `body_size` bytes:
// the sender's own fields minus its framing, then the Content-Length the
// serializers add (or Dechunk sets).
std::vector<std::pair<std::string, std::string>> ExpectedFields(
    const HeaderMap& sent, size_t body_size) {
  HeaderMap expected = sent;
  expected.Set("Content-Length", std::to_string(body_size));
  return expected.fields();
}

// `response` as chunk frames of random sizes behind the streaming head.
std::string RandomlyChunked(const Response& response, Rng& rng) {
  common::BufferChain frames;
  std::string_view body(response.body);
  for (size_t at = 0; at < body.size();) {
    size_t take = 1 + rng.NextBounded(body.size() - at);
    common::BufferChain payload;
    payload.AppendCopy(body.substr(at, take));
    AppendChunkFrame(frames, std::move(payload));
    at += take;
  }
  AppendFinalChunkFrame(frames);
  return SerializeStreamingHead(response) + frames.Flatten();
}

// Splits `wire` at random points, biased toward short reads.
std::vector<std::string_view> RandomSplits(std::string_view wire, Rng& rng) {
  std::vector<std::string_view> reads;
  for (size_t at = 0; at < wire.size();) {
    size_t limit = rng.NextBool(0.5) ? 8 : wire.size();
    size_t take = 1 + rng.NextBounded(std::min(limit, wire.size() - at));
    reads.push_back(wire.substr(at, take));
    at += take;
  }
  return reads;
}

TEST(MessageDecoderTest, RandomRequestsRoundTripUnderRandomSplits) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<Request> sent;
    std::string wire;
    for (size_t i = 1 + rng.NextBounded(5); i > 0; --i) {
      Request request;
      request.method = rng.NextBool(0.5) ? "GET" : "POST";
      request.target = "/" + RandomToken(rng, 20);
      request.headers = RandomHeaders(rng);
      request.body = RandomBytes(rng, 300);
      wire += request.Serialize();
      sent.push_back(std::move(request));
    }
    RequestReader reader;
    std::vector<Request> received;
    for (std::string_view read : RandomSplits(wire, rng)) {
      reader.Feed(read);
      while (auto next = reader.Next()) {
        ASSERT_TRUE(next->ok()) << "seed " << seed << ": "
                                << next->status().ToString();
        received.push_back(std::move(**next));
      }
    }
    ASSERT_EQ(received.size(), sent.size()) << "seed " << seed;
    for (size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(received[i].method, sent[i].method);
      EXPECT_EQ(received[i].target, sent[i].target);
      EXPECT_EQ(received[i].version, sent[i].version);
      EXPECT_EQ(received[i].headers.fields(),
                ExpectedFields(sent[i].headers, sent[i].body.size()))
          << "seed " << seed << " message " << i;
      EXPECT_EQ(received[i].body, sent[i].body);
    }
    EXPECT_EQ(reader.buffered_bytes(), 0u);
  }
}

TEST(MessageDecoderTest, RandomResponsesRoundTripUnderRandomSplits) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<Response> sent;
    std::vector<std::string> wires;
    for (size_t i = 1 + rng.NextBounded(5); i > 0; --i) {
      Response response;
      response.status_code = 100 + static_cast<int>(rng.NextBounded(900));
      response.reason = rng.NextBool(0.2) ? "" : RandomToken(rng, 12);
      response.headers = RandomHeaders(rng);
      response.body = RandomBytes(rng, 300);
      wires.push_back(rng.NextBool(0.5) ? RandomlyChunked(response, rng)
                                        : response.Serialize());
      sent.push_back(std::move(response));
    }
    std::string stream;
    for (const std::string& wire : wires) stream += wire;

    // Back to back through the whole-message reader...
    ResponseReader reader;
    std::vector<Response> received;
    for (std::string_view read : RandomSplits(stream, rng)) {
      reader.Feed(read);
      while (auto next = reader.Next()) {
        ASSERT_TRUE(next->ok()) << "seed " << seed << ": "
                                << next->status().ToString();
        received.push_back(std::move(**next));
      }
    }
    ASSERT_EQ(received.size(), sent.size()) << "seed " << seed;
    for (size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(received[i].status_code, sent[i].status_code);
      EXPECT_EQ(received[i].reason, sent[i].reason);
      EXPECT_EQ(received[i].headers.fields(),
                ExpectedFields(sent[i].headers, sent[i].body.size()))
          << "seed " << seed << " message " << i;
      EXPECT_EQ(received[i].body, sent[i].body);
    }

    // ...and one at a time through the streaming reader.
    for (size_t i = 0; i < sent.size(); ++i) {
      StreamingResponseReader streaming;
      std::optional<Result<Response>> head;
      std::string body;
      for (std::string_view read : RandomSplits(wires[i], rng)) {
        streaming.Feed(read);
        if (!head.has_value()) head = streaming.NextHead();
        if (head.has_value()) body += streaming.TakeBody();
      }
      ASSERT_TRUE(head.has_value() && head->ok()) << "seed " << seed;
      EXPECT_TRUE(streaming.body_complete());
      EXPECT_EQ(streaming.excess_bytes(), 0u);
      EXPECT_EQ((*head)->status_code, sent[i].status_code);
      EXPECT_EQ(body, sent[i].body) << "seed " << seed << " message " << i;
    }
  }
}

}  // namespace
}  // namespace dynaprox::http
