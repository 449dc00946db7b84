// Adversarial split-boundary suite for the streaming scan-and-splice
// pipeline. Every accepted template in the corpus below is built from its
// segments with bem::TagCodec, and the scanner must hand exactly those
// segments back no matter where the network happens to slice the bytes;
// every hostile template must be rejected under every slicing. Each is
// replayed (a) one byte per Feed, (b) split into two chunks at every byte
// boundary, (c) in random chunkings and (d) whole through ParseTemplate,
// so a tag marker, hex key, ETX, SET end, or literal escape landing astride
// a read boundary is exercised for every position. The StreamingAssembler
// tests below check that chunked assembly emits the whole-template page
// bytes exactly.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "bem/tag_codec.h"
#include "common/buffer_chain.h"
#include "common/rng.h"
#include "common/strings.h"
#include "dpc/assembler.h"
#include "dpc/fragment_store.h"
#include "dpc/tag_scanner.h"

namespace dynaprox::dpc {
namespace {

using Kind = StreamSegment::Kind;

// The scanner flushes a literal at each chunk boundary. Folding adjacent
// literals (and dropping empty ones) gives the canonical stream every
// chunking must agree on.
struct NormSegment {
  Kind kind;
  bem::DpcKey key;
  std::string text;

  bool operator==(const NormSegment& other) const {
    return kind == other.kind && key == other.key && text == other.text;
  }
};

std::vector<NormSegment> Normalize(
    const std::vector<StreamSegment>& segments) {
  std::vector<NormSegment> out;
  for (const StreamSegment& segment : segments) {
    if (segment.kind != Kind::kLiteral) {
      out.push_back({segment.kind, segment.key, segment.Text()});
    } else if (segment.text_size() == 0) {
      continue;
    } else if (!out.empty() && out.back().kind == Kind::kLiteral) {
      out.back().text += segment.Text();
    } else {
      out.push_back({Kind::kLiteral, bem::kInvalidDpcKey, segment.Text()});
    }
  }
  return out;
}

NormSegment Literal(std::string text) {
  return {Kind::kLiteral, bem::kInvalidDpcKey, std::move(text)};
}
NormSegment Set(bem::DpcKey key, std::string text) {
  return {Kind::kSet, key, std::move(text)};
}
NormSegment Get(bem::DpcKey key) { return {Kind::kGet, key, ""}; }

// One corpus template: its wire bytes and, when the grammar accepts it,
// the folded segments it encodes.
struct CorpusCase {
  std::string wire;
  std::optional<std::vector<NormSegment>> segments;  // nullopt = reject.
};

// Encodes folded `segments` the way the BEM writes templates.
CorpusCase Encode(std::vector<NormSegment> segments) {
  std::string wire;
  for (const NormSegment& segment : segments) {
    switch (segment.kind) {
      case Kind::kLiteral:
        bem::TagCodec::AppendLiteral(segment.text, wire);
        break;
      case Kind::kSet:
        bem::TagCodec::AppendSet(segment.key, segment.text, wire);
        break;
      case Kind::kGet:
        bem::TagCodec::AppendGet(segment.key, wire);
        break;
    }
  }
  return {std::move(wire), std::move(segments)};
}

// Runs a fresh StreamingScanner over `wire` sliced into `chunks`
// (concatenation must equal wire; asserted by the callers' construction).
Result<std::vector<StreamSegment>> ScanChunked(
    const std::vector<std::string>& chunks, ScanStrategy strategy) {
  StreamingScanner scanner(strategy);
  std::vector<StreamSegment> segments;
  for (const std::string& chunk : chunks) {
    Status fed = scanner.Feed(common::MakeBuffer(chunk), segments);
    if (!fed.ok()) return fed;
  }
  Status finished = scanner.Finish(segments);
  if (!finished.ok()) return finished;
  return segments;
}

std::vector<std::string> ByteAtATime(std::string_view wire) {
  std::vector<std::string> chunks;
  chunks.reserve(wire.size());
  for (char byte : wire) chunks.emplace_back(1, byte);
  return chunks;
}

// The template corpus: every shape the grammar admits plus every
// rejection class, mirroring fuzz/corpus/template. Hostile cases are
// expected to fail identically under any chunking.
std::vector<CorpusCase> Corpus() {
  std::vector<CorpusCase> corpus = {
      Encode({}),                                     // Empty template.
      Encode({Literal("<html>plain text</html>")}),   // Literal only.
      Encode({Set(0x2A, "fragment body")}),           // SET alone.
      Encode({Set(7, "cached"), Literal("-mid-"), Get(7)}),
      // Escaped STX in literal and SET body (ETX needs no escape), and
      // escapes back to back at a literal's edges.
      Encode({Literal("a\x02" "b\x03" "c"), Set(1, "x\x02y"), Get(1)}),
      Encode({Literal("\x02\x02"), Get(3), Literal("\x02")}),
      // Widest admissible key (8 hex digits, not the sentinel) and a
      // one-digit key.
      Encode({Set(0xFFFFFFFE, "wide"), Get(0xFFFFFFFE), Get(0x1)}),
      // Adjacent SET blocks, empty SET body.
      Encode({Set(1, ""), Set(2, "two")}),
  };
  // Rejection classes (same bytes as the adversarial suite).
  for (const char* hostile : {
           "\x02",                           // Bare STX at EOF.
           "abc\x02S1A",                     // Truncated SET open.
           "\x02S2A\x03 dangling set body",  // Unterminated SET.
           "\x02G1F trailing, no ETX",       // GET missing ETX.
           "\x02S1\x03 a\x02S2\x03 b",       // Nested SET.
           "\x02S1\x03 a\x02G2\x03",         // GET inside SET.
           // The same two inside SETs that do close.
           "\x02S1\x03 a\x02S2\x03 b\x02" "E\x03\x02" "E\x03",
           "\x02S1\x03 a\x02G2\x03\x02" "E\x03",
           "\x02" "E\x03",                   // SET end, no open.
           "\x02Q\x03",                      // Unknown marker.
           "\x02Gzz\x03",                    // Non-hex key.
           "\x02G\x03",                      // Empty key.
           "\x02G1ffffffffffffffff\x03",     // Key over 64 bits.
           "\x02GFFFFFFFFFFFFFFFF\x03",      // Sentinel key.
           "\x02SFFFFFFFFFFFFFFFF\x03",      // Sentinel SET key.
           "\x02G00000000000000001\x03",     // Zero-padded run.
           "\x02L",                          // Truncated escape.
           "\x02Lx",                         // Bad escape byte.
       }) {
    corpus.push_back({hostile, std::nullopt});
  }
  return corpus;
}

class StreamingScannerTest : public ::testing::TestWithParam<ScanStrategy> {
 protected:
  void ExpectDecodes(const CorpusCase& corpus_case,
                     const Result<std::vector<StreamSegment>>& scanned,
                     const std::string& how) {
    const std::string printed = testing::PrintToString(corpus_case.wire);
    if (!corpus_case.segments.has_value()) {
      ASSERT_FALSE(scanned.ok()) << how << " accepted: " << printed;
      EXPECT_EQ(scanned.status().code(), StatusCode::kCorruption) << how;
      return;
    }
    ASSERT_TRUE(scanned.ok()) << how << " rejected: " << printed << " "
                              << scanned.status().ToString();
    EXPECT_TRUE(Normalize(*scanned) == *corpus_case.segments)
        << how << " diverged on segments for: " << printed;
  }

  void ExpectDecodes(const CorpusCase& corpus_case,
                     const std::vector<std::string>& chunks,
                     const std::string& how) {
    ExpectDecodes(corpus_case, ScanChunked(chunks, GetParam()), how);
  }
};

TEST_P(StreamingScannerTest, EverySingleByteChunkingDecodesTheEncoding) {
  for (const CorpusCase& corpus_case : Corpus()) {
    ExpectDecodes(corpus_case, ByteAtATime(corpus_case.wire),
                  "byte-at-a-time");
  }
}

TEST_P(StreamingScannerTest, EveryTwoChunkSplitDecodesTheEncoding) {
  for (const CorpusCase& corpus_case : Corpus()) {
    const std::string& wire = corpus_case.wire;
    for (size_t split = 0; split <= wire.size(); ++split) {
      ExpectDecodes(corpus_case, {wire.substr(0, split), wire.substr(split)},
                    "split@" + std::to_string(split));
    }
  }
}

TEST_P(StreamingScannerTest, WholeTemplateDecodesTheEncoding) {
  for (const CorpusCase& corpus_case : Corpus()) {
    ExpectDecodes(corpus_case, {corpus_case.wire}, "one-chunk");
    ExpectDecodes(corpus_case, ParseTemplate(corpus_case.wire, GetParam()),
                  "ParseTemplate");
  }
}

TEST_P(StreamingScannerTest, RandomChunkingsDecodeTheEncoding) {
  Rng rng(0x5EED5EEDu);
  for (const CorpusCase& corpus_case : Corpus()) {
    const std::string& wire = corpus_case.wire;
    for (int round = 0; round < 20; ++round) {
      std::vector<std::string> chunks;
      size_t at = 0;
      while (at < wire.size()) {
        size_t take = 1 + rng.NextBounded(7);
        take = std::min(take, wire.size() - at);
        chunks.push_back(wire.substr(at, take));
        at += take;
      }
      ExpectDecodes(corpus_case, chunks, "random-chunking");
    }
  }
}

TEST_P(StreamingScannerTest, ErrorIsSticky) {
  StreamingScanner scanner(GetParam());
  std::vector<StreamSegment> segments;
  Status first = scanner.Feed(common::MakeBuffer("\x02Q\x03"), segments);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(scanner.failed());
  Status second = scanner.Feed(common::MakeBuffer("plain"), segments);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.ToString(), first.ToString());
  EXPECT_FALSE(scanner.Finish(segments).ok());
}

TEST_P(StreamingScannerTest, SegmentsOutliveTheirChunks) {
  // A SET body spanning three chunks: once the segment resolves, its
  // pieces must stay valid even though the scanner has moved on and the
  // test dropped its own references to the chunk buffers.
  std::string wire;
  bem::TagCodec::AppendSet(5, "alpha-beta-gamma", wire);
  StreamingScanner scanner(GetParam());
  std::vector<StreamSegment> segments;
  size_t third = wire.size() / 3;
  ASSERT_TRUE(scanner
                  .Feed(common::MakeBuffer(wire.substr(0, third)), segments)
                  .ok());
  ASSERT_TRUE(
      scanner.Feed(common::MakeBuffer(wire.substr(third, third)), segments)
          .ok());
  ASSERT_TRUE(
      scanner.Feed(common::MakeBuffer(wire.substr(2 * third)), segments)
          .ok());
  ASSERT_TRUE(scanner.Finish(segments).ok());
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].kind, Kind::kSet);
  EXPECT_EQ(segments[0].key, 5u);
  EXPECT_EQ(segments[0].Text(), "alpha-beta-gamma");
  for (const StreamPiece& piece : segments[0].pieces) {
    EXPECT_NE(piece.owner, nullptr);
  }
}

TEST_P(StreamingScannerTest, HoldbackBoundedByOpenSetPlusPartialTag) {
  // Literals flush at every chunk boundary, so holdback while scanning
  // plain text never exceeds a partial tag. Inside a SET the body
  // accumulates — but only the body, never earlier page bytes.
  constexpr size_t kMaxPartialTag = 2 + kMaxKeyHexDigits + 1;
  std::string body(256, 'f');
  std::string wire = std::string(4096, 'a');
  bem::TagCodec::AppendSet(3, body, wire);
  wire += std::string(4096, 'z');

  StreamingScanner scanner(GetParam());
  std::vector<StreamSegment> segments;
  size_t peak = 0;
  for (char byte : wire) {
    ASSERT_TRUE(scanner
                    .Feed(common::MakeBuffer(std::string(1, byte)),
                          segments)
                    .ok());
    peak = std::max(peak, scanner.buffered_bytes());
  }
  ASSERT_TRUE(scanner.Finish(segments).ok());
  EXPECT_LE(peak, body.size() + kMaxPartialTag);
  EXPECT_EQ(scanner.buffered_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Strategies, StreamingScannerTest,
                         ::testing::Values(ScanStrategy::kMemchr,
                                           ScanStrategy::kByteLoop));

// --- StreamingAssembler ---------------------------------------------------

std::string AssembleChunked(const std::string& wire, FragmentStore& store,
                            size_t chunk_size,
                            StreamingAssembler::MissResolver resolver,
                            Status* status_out = nullptr) {
  StreamingAssembler assembler(store, std::move(resolver));
  common::BufferChain out;
  for (size_t at = 0; at < wire.size(); at += chunk_size) {
    Status fed = assembler.Feed(
        common::MakeBuffer(wire.substr(at, chunk_size)), out);
    if (!fed.ok()) {
      if (status_out != nullptr) *status_out = fed;
      return out.Flatten();
    }
  }
  Status finished = assembler.Finish(out);
  if (status_out != nullptr) *status_out = finished;
  return out.Flatten();
}

TEST(StreamingAssemblerTest, MatchesBufferedAssemblyAtEveryChunkSize) {
  std::string wire = "head:";
  bem::TagCodec::AppendSet(1, "fragment one", wire);
  bem::TagCodec::AppendLiteral("-\x02-", wire);
  bem::TagCodec::AppendGet(1, wire);
  bem::TagCodec::AppendSet(2, "fragment\x03two", wire);
  bem::TagCodec::AppendGet(2, wire);
  wire += ":tail";

  FragmentStore reference_store(64);
  Result<AssembledPage> reference = AssemblePage(wire, reference_store);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->Text(),
            "head:fragment one-\x02-fragment onefragment\x03two"
            "fragment\x03two:tail");

  for (size_t chunk_size : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                            wire.size(), wire.size() + 17}) {
    FragmentStore store(64);
    Status status;
    std::string streamed =
        AssembleChunked(wire, store, chunk_size, nullptr, &status);
    ASSERT_TRUE(status.ok()) << "chunk_size=" << chunk_size << ": "
                             << status.ToString();
    EXPECT_EQ(streamed, reference->Text()) << "chunk_size=" << chunk_size;
    // The store ends up in the same state as AssemblePage leaves it.
    Result<FragmentRef> stored = store.Get(1);
    ASSERT_TRUE(stored.ok());
    EXPECT_EQ(**stored, "fragment one");
  }
}

TEST(StreamingAssemblerTest, ProgressCountsMatchBufferedAccounting) {
  std::string wire;
  bem::TagCodec::AppendLiteral("lit", wire);
  bem::TagCodec::AppendSet(1, "stored", wire);
  bem::TagCodec::AppendGet(1, wire);

  FragmentStore store(16);
  StreamingAssembler assembler(store);
  common::BufferChain out;
  ASSERT_TRUE(assembler.Feed(common::MakeBuffer(wire), out).ok());
  ASSERT_TRUE(assembler.Finish(out).ok());
  EXPECT_EQ(assembler.progress().set_count, 1u);
  EXPECT_EQ(assembler.progress().get_count, 1u);
  EXPECT_EQ(assembler.progress().bytes_copied, 6u);  // "stored" once.
  // "lit" by reference + the GET splice of the shared fragment.
  EXPECT_EQ(assembler.progress().bytes_referenced, 3u + 6u);
}

TEST(StreamingAssemblerTest, MissResolverSuppliesColdFragment) {
  std::string wire = "[";
  bem::TagCodec::AppendGet(0x9, wire);
  wire += "]";

  FragmentStore store(16);
  int calls = 0;
  StreamingAssembler assembler(
      store, [&](const std::vector<bem::DpcKey>& keys,
                 std::vector<FragmentRef>& found) {
        ++calls;
        EXPECT_EQ(keys, std::vector<bem::DpcKey>{0x9});
        found[0] = std::make_shared<const std::string>("recovered");
        return Status::Ok();
      });
  common::BufferChain out;
  ASSERT_TRUE(assembler.Feed(common::MakeBuffer(wire), out).ok());
  ASSERT_TRUE(assembler.Finish(out).ok());
  EXPECT_EQ(out.Flatten(), "[recovered]");
  EXPECT_EQ(calls, 1);
}

TEST(StreamingAssemblerTest, OneResolverCallServesEveryMissOfAFeed) {
  // Three misses (one key twice) in one chunk of two slices: the resolver
  // runs once with the distinct keys in template order, and every hole is
  // filled in place, literals and SETs between them keeping their
  // positions.
  std::string wire = "a";
  bem::TagCodec::AppendGet(0x5, wire);
  wire += "b";
  bem::TagCodec::AppendSet(0x1, "set", wire);
  bem::TagCodec::AppendGet(0x3, wire);
  bem::TagCodec::AppendGet(0x5, wire);
  wire += "c";

  FragmentStore store(16);
  std::vector<std::vector<bem::DpcKey>> calls;
  StreamingAssembler assembler(
      store, [&](const std::vector<bem::DpcKey>& keys,
                 std::vector<FragmentRef>& found) {
        calls.push_back(keys);
        for (size_t i = 0; i < keys.size(); ++i) {
          found[i] =
              std::make_shared<const std::string>("<" + ToHex(keys[i]) + ">");
        }
        return Status::Ok();
      });
  common::BufferChain chunk;
  chunk.AppendCopy(wire.substr(0, 4));  // Splits the first GET tag.
  chunk.AppendCopy(wire.substr(4));
  common::BufferChain out;
  ASSERT_TRUE(assembler.Feed(chunk, out).ok());
  ASSERT_TRUE(assembler.Finish(out).ok());
  EXPECT_EQ(out.Flatten(), "a<5>bset<3><5>c");
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], (std::vector<bem::DpcKey>{0x5, 0x3}));
  EXPECT_EQ(assembler.progress().set_keys, std::vector<bem::DpcKey>{0x1});
}

TEST(StreamingAssemblerTest, HoleTheResolverLeavesEmptyFailsTheCall) {
  std::string wire;
  bem::TagCodec::AppendGet(0x9, wire);
  FragmentStore store(16);
  StreamingAssembler assembler(
      store,
      [](const std::vector<bem::DpcKey>&, std::vector<FragmentRef>&) {
        return Status::Ok();
      });
  common::BufferChain out;
  Status fed = assembler.Feed(common::MakeBuffer(wire), out);
  EXPECT_TRUE(fed.IsNotFound()) << fed.ToString();
}

TEST(StreamingAssemblerTest, MissWithoutResolverFailsTheStream) {
  std::string wire;
  bem::TagCodec::AppendGet(0x9, wire);
  FragmentStore store(16);
  StreamingAssembler assembler(store);
  common::BufferChain out;
  Status fed = assembler.Feed(common::MakeBuffer(wire), out);
  EXPECT_FALSE(fed.ok());
  EXPECT_TRUE(fed.IsNotFound()) << fed.ToString();
}

TEST(StreamingAssemblerTest, ResolverErrorAbortsWithThatStatus) {
  std::string wire;
  bem::TagCodec::AppendGet(0x9, wire);
  FragmentStore store(16);
  StreamingAssembler assembler(
      store, [](const std::vector<bem::DpcKey>&, std::vector<FragmentRef>&) {
        return Status::IoError("origin unreachable");
      });
  common::BufferChain out;
  Status fed = assembler.Feed(common::MakeBuffer(wire), out);
  EXPECT_FALSE(fed.ok());
  EXPECT_EQ(fed.code(), StatusCode::kIoError) << fed.ToString();
}

TEST(StreamingAssemblerTest, ResolverNotConsultedForWarmKeys) {
  std::string wire;
  bem::TagCodec::AppendGet(0x4, wire);
  FragmentStore store(16);
  ASSERT_TRUE(
      store.Set(0x4, std::make_shared<const std::string>("warm")).ok());
  int calls = 0;
  StreamingAssembler assembler(
      store,
      [&calls](const std::vector<bem::DpcKey>&, std::vector<FragmentRef>&) {
        ++calls;
        return Status::Internal("unexpected");
      });
  common::BufferChain out;
  ASSERT_TRUE(assembler.Feed(common::MakeBuffer(wire), out).ok());
  ASSERT_TRUE(assembler.Finish(out).ok());
  EXPECT_EQ(out.Flatten(), "warm");
  EXPECT_EQ(calls, 0);
}

TEST(StreamingAssemblerTest, EarlyBytesFlushBeforeTemplateEnds) {
  // The point of streaming: bytes before an open SET are already in the
  // output chain while the template tail has not been fed yet.
  std::string wire = std::string(1024, 'h');
  bem::TagCodec::AppendSet(1, "tail fragment", wire);

  FragmentStore store(16);
  StreamingAssembler assembler(store);
  common::BufferChain out;
  ASSERT_TRUE(
      assembler.Feed(common::MakeBuffer(wire.substr(0, 1024)), out).ok());
  EXPECT_EQ(out.size(), 1024u);  // Head flushed, template still open.
  ASSERT_TRUE(assembler.Feed(common::MakeBuffer(wire.substr(1024)), out).ok());
  ASSERT_TRUE(assembler.Finish(out).ok());
  EXPECT_EQ(out.Flatten(), std::string(1024, 'h') + "tail fragment");
}

}  // namespace
}  // namespace dynaprox::dpc
