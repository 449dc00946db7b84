#include <ctime>
#include <string>

#include <gtest/gtest.h>

#include "common/buffer_chain.h"
#include "http/parser.h"

namespace dynaprox::http {
namespace {

// `response` framed the way ConnectionCore streams it: the streaming head,
// then the body in chunk frames of at most `chunk_size` bytes.
std::string ChunkedWire(const Response& response, size_t chunk_size) {
  common::BufferChain frames;
  std::string_view body(response.body);
  for (size_t at = 0; at < body.size(); at += chunk_size) {
    common::BufferChain payload;
    payload.AppendCopy(body.substr(at, chunk_size));
    AppendChunkFrame(frames, std::move(payload));
  }
  AppendFinalChunkFrame(frames);
  return SerializeStreamingHead(response) + frames.Flatten();
}

TEST(ChunkedTest, SerializeThenParseRoundTrips) {
  Response response = Response::MakeOk(std::string(10'000, 'x'));
  response.headers.Add("X-Extra", "kept");
  std::string wire = ChunkedWire(response, 1024);
  Result<Response> parsed = ParseResponse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->body, response.body);
  EXPECT_EQ(*parsed->headers.Get("X-Extra"), "kept");
  // Dechunked: explicit length, no Transfer-Encoding.
  EXPECT_FALSE(parsed->headers.Has("Transfer-Encoding"));
  EXPECT_EQ(*parsed->headers.Get("Content-Length"), "10000");
}

TEST(ChunkedTest, EmptyBody) {
  Response response = Response::MakeOk("");
  std::string wire = ChunkedWire(response, 16);
  Result<Response> parsed = ParseResponse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->body, "");
}

TEST(ChunkedTest, HandwrittenChunksWithExtensionAndTrailer) {
  std::string wire =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4;ext=1\r\nWiki\r\n"
      "5\r\npedia\r\n"
      "0\r\nX-Trailer: v\r\n\r\n";
  Result<Response> parsed = ParseResponse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->body, "Wikipedia");
}

TEST(ChunkedTest, IncrementalReaderReassembles) {
  Response response = Response::MakeOk("hello chunked world");
  std::string wire = ChunkedWire(response, 4);
  ResponseReader reader;
  for (size_t i = 0; i < wire.size(); i += 3) {
    reader.Feed(std::string_view(wire).substr(i, 3));
    if (i + 3 < wire.size()) {
      // Must not yield a message before the terminator arrives.
      auto premature = reader.Next();
      if (premature.has_value()) {
        ASSERT_TRUE(premature->ok());
        EXPECT_EQ(premature->value().body, response.body);
        return;  // Complete early only if all bytes happened to be in.
      }
    }
  }
  auto next = reader.Next();
  ASSERT_TRUE(next.has_value());
  ASSERT_TRUE(next->ok());
  EXPECT_EQ(next->value().body, "hello chunked world");
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(ChunkedTest, ChunkedRequestBody) {
  std::string wire =
      "POST /submit HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "3\r\nabc\r\n0\r\n\r\n";
  Result<Request> parsed = ParseRequest(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->body, "abc");
}

TEST(ChunkedTest, MalformedFramingRejected) {
  // Bad size line.
  EXPECT_FALSE(ParseResponse("HTTP/1.1 200 OK\r\nTransfer-Encoding: "
                             "chunked\r\n\r\nzz\r\nabc\r\n0\r\n\r\n")
                   .ok());
  // Chunk not CRLF-terminated.
  EXPECT_FALSE(ParseResponse("HTTP/1.1 200 OK\r\nTransfer-Encoding: "
                             "chunked\r\n\r\n3\r\nabcXX0\r\n\r\n")
                   .ok());
  // Truncated (complete-buffer parse requires the terminator).
  EXPECT_FALSE(ParseResponse("HTTP/1.1 200 OK\r\nTransfer-Encoding: "
                             "chunked\r\n\r\n3\r\nabc\r\n")
                   .ok());
}

TEST(ChunkedTest, ReaderFailsCleanlyOnCorruptChunk) {
  ResponseReader reader;
  reader.Feed(
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n");
  auto next = reader.Next();
  ASSERT_TRUE(next.has_value());
  EXPECT_FALSE(next->ok());
  EXPECT_TRUE(reader.failed());
}

TEST(ChunkedTest, ReaderDecodesManySmallChunksInLinearTime) {
  // A slow client trickles a POST as 32,000 one-byte chunks, one read
  // each. Decoding the body from its first byte on every read is
  // quadratic: over ten seconds of CPU for this input on a 4-core x86
  // VM. Resuming where the last read stopped takes milliseconds.
  constexpr size_t kChunks = 32'000;
  RequestReader reader;
  reader.Feed("POST /upload HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  ASSERT_FALSE(reader.Next().has_value());
  std::clock_t start = std::clock();
  for (size_t i = 0; i < kChunks; ++i) {
    reader.Feed("1\r\nx\r\n");
    ASSERT_FALSE(reader.Next().has_value()) << "chunk " << i;
  }
  reader.Feed("0\r\n\r\n");
  auto request = reader.Next();
  double cpu_seconds =
      static_cast<double>(std::clock() - start) / CLOCKS_PER_SEC;
  ASSERT_TRUE(request.has_value() && request->ok());
  EXPECT_EQ((*request)->body, std::string(kChunks, 'x'));
  EXPECT_EQ(*(*request)->headers.Get("Content-Length"), "32000");
  EXPECT_LT(cpu_seconds, 1.0);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(ChunkedTest, PipelinedAfterChunkedMessage) {
  Response first = Response::MakeOk("one");
  Response second = Response::MakeOk("two");
  ResponseReader reader;
  reader.Feed(ChunkedWire(first, 2) + second.Serialize());
  auto a = reader.Next();
  ASSERT_TRUE(a.has_value() && a->ok());
  EXPECT_EQ(a->value().body, "one");
  auto b = reader.Next();
  ASSERT_TRUE(b.has_value() && b->ok());
  EXPECT_EQ(b->value().body, "two");
}

}  // namespace
}  // namespace dynaprox::http
