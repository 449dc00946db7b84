// Property tests: randomized templates round-trip through the
// TagCodec -> StreamingScanner -> StreamingAssembler pipeline byte-exactly,
// including adversarial content containing the tag marker bytes, and
// through TagCodec -> StreamingScanner with contents up to 64 KiB under
// random chunkings.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bem/tag_codec.h"
#include "common/buffer_chain.h"
#include "common/rng.h"
#include "dpc/assembler.h"
#include "dpc/fragment_store.h"
#include "dpc/tag_scanner.h"

namespace dynaprox::dpc {
namespace {

// Random bytes biased toward the codec's special characters so escaping is
// exercised heavily.
std::string RandomContent(Rng& rng, size_t max_len) {
  size_t len = rng.NextBounded(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    switch (rng.NextBounded(6)) {
      case 0:
        out += bem::TagCodec::kStx;
        break;
      case 1:
        out += bem::TagCodec::kEtx;
        break;
      case 2:
        out += static_cast<char>('A' + rng.NextBounded(26));
        break;
      default:
        out += static_cast<char>(rng.NextBounded(256));
        break;
    }
  }
  return out;
}

struct FuzzCase {
  std::string wire;           // Encoded template.
  std::string expected_page;  // What assembly must produce.
  size_t sets = 0;
  size_t gets = 0;
};

// Builds a random template of literals, SETs (fresh keys), and GETs
// (previously SET keys only, so assembly is always complete).
FuzzCase BuildCase(Rng& rng, FragmentStore& store) {
  FuzzCase out;
  std::vector<std::pair<bem::DpcKey, std::string>> cached;  // key, content.
  bem::DpcKey next_key = 0;
  size_t pieces = 1 + rng.NextBounded(20);
  for (size_t i = 0; i < pieces; ++i) {
    switch (rng.NextBounded(3)) {
      case 0: {  // Literal.
        std::string text = RandomContent(rng, 64);
        bem::TagCodec::AppendLiteral(text, out.wire);
        out.expected_page += text;
        break;
      }
      case 1: {  // SET with a fresh key.
        std::string content = RandomContent(rng, 64);
        bem::DpcKey key = next_key++;
        bem::TagCodec::AppendSet(key, content, out.wire);
        out.expected_page += content;
        cached.emplace_back(key, content);
        ++out.sets;
        break;
      }
      case 2: {  // GET of something already cached (this template or
                 // a previous one in the same store).
        if (cached.empty()) {
          std::string text = RandomContent(rng, 16);
          bem::TagCodec::AppendLiteral(text, out.wire);
          out.expected_page += text;
          break;
        }
        const auto& [key, content] =
            cached[rng.NextBounded(cached.size())];
        bem::TagCodec::AppendGet(key, out.wire);
        out.expected_page += content;
        ++out.gets;
        break;
      }
    }
  }
  // GETs may reference keys SET earlier in the same template; the
  // assembler handles that (SET stores before later GETs read).
  (void)store;
  return out;
}

class TemplateFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TemplateFuzzTest, RoundTripsExactly) {
  Rng rng(GetParam());
  FragmentStore store(256);
  for (int round = 0; round < 50; ++round) {
    FuzzCase fuzz = BuildCase(rng, store);
    Result<AssembledPage> page = AssemblePage(fuzz.wire, store);
    ASSERT_TRUE(page.ok()) << "seed=" << GetParam() << " round=" << round
                           << ": " << page.status().ToString();
    EXPECT_EQ(page->Text(), fuzz.expected_page)
        << "seed=" << GetParam() << " round=" << round;
    EXPECT_EQ(page->progress.set_count, fuzz.sets);
    EXPECT_EQ(page->progress.get_count, fuzz.gets);
  }
}

TEST_P(TemplateFuzzTest, BothStrategiesAgree) {
  Rng rng(GetParam() ^ 0xABCDEF);
  FragmentStore store(256);
  for (int round = 0; round < 30; ++round) {
    FuzzCase fuzz = BuildCase(rng, store);
    common::Buffer wire = common::MakeBuffer(fuzz.wire);
    Result<std::vector<StreamSegment>> a =
        ParseTemplate(wire, ScanStrategy::kMemchr);
    Result<std::vector<StreamSegment>> b =
        ParseTemplate(wire, ScanStrategy::kByteLoop);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].kind, (*b)[i].kind);
      EXPECT_EQ((*a)[i].key, (*b)[i].key);
      EXPECT_EQ((*a)[i].Text(), (*b)[i].Text());
    }
  }
}

TEST_P(TemplateFuzzTest, RandomGarbageNeverCrashesParser) {
  Rng rng(GetParam() + 99);
  FragmentStore store(16);
  for (int round = 0; round < 200; ++round) {
    std::string garbage = RandomContent(rng, 200);
    // Must either parse or fail cleanly — no crashes, no UB (covered by
    // running; content correctness asserted only on success).
    Result<AssembledPage> page = AssemblePage(garbage, store);
    if (page.ok()) {
      EXPECT_LE(page->body.size(), garbage.size());
    } else {
      // NotFound: a GET of a key no SET has stored yet.
      EXPECT_TRUE(page.status().IsCorruption() ||
                  page.status().IsInvalidArgument() ||
                  page.status().IsNotFound())
          << page.status().ToString();
    }
  }
}

// Long content: up to 64 KiB per segment at an STX density of 0 %, 1 % or
// 50 %, so escapes land at run starts, run ends, back to back and far
// apart, and long STX-free runs cross many chunk boundaries.
std::string LongContent(Rng& rng) {
  static constexpr size_t kMaxLen[] = {0, 1, 300, 8 * 1024, 64 * 1024};
  static constexpr uint64_t kStxPercent[] = {0, 1, 50};
  size_t len = rng.NextBounded(kMaxLen[rng.NextBounded(5)] + 1);
  uint64_t stx_percent = kStxPercent[rng.NextBounded(3)];
  std::string out(len, '\0');
  for (char& c : out) {
    if (rng.NextBounded(100) < stx_percent) {
      c = bem::TagCodec::kStx;
    } else {
      c = static_cast<char>(rng.NextBounded(256));
      if (c == bem::TagCodec::kStx) c = bem::TagCodec::kEtx;
    }
  }
  return out;
}

// A segment as encoded; literals are folded, since the scanner flushes a
// literal at every chunk boundary.
struct Segment {
  StreamSegment::Kind kind;
  bem::DpcKey key;
  std::string text;

  bool operator==(const Segment& other) const {
    return kind == other.kind && key == other.key && text == other.text;
  }
};

void AddSegment(std::vector<Segment>& out, StreamSegment::Kind kind,
                bem::DpcKey key, std::string text) {
  if (kind == StreamSegment::Kind::kLiteral) {
    if (text.empty()) return;
    if (!out.empty() && out.back().kind == kind) {
      out.back().text += text;
      return;
    }
  }
  out.push_back({kind, key, std::move(text)});
}

TEST_P(TemplateFuzzTest, LongContentRoundTripsThroughStreamingScanner) {
  using Kind = StreamSegment::Kind;
  Rng rng(GetParam() * 7919 + 1);
  for (int round = 0; round < 12; ++round) {
    std::string wire;
    std::vector<Segment> encoded;
    size_t pieces = 1 + rng.NextBounded(5);
    for (size_t i = 0; i < pieces; ++i) {
      bem::DpcKey key = static_cast<bem::DpcKey>(rng.NextBounded(1u << 20));
      switch (rng.NextBounded(3)) {
        case 0: {
          std::string text = LongContent(rng);
          bem::TagCodec::AppendLiteral(text, wire);
          AddSegment(encoded, Kind::kLiteral, bem::kInvalidDpcKey,
                     std::move(text));
          break;
        }
        case 1: {
          std::string content = LongContent(rng);
          bem::TagCodec::AppendSet(key, content, wire);
          AddSegment(encoded, Kind::kSet, key, std::move(content));
          break;
        }
        default:
          bem::TagCodec::AppendGet(key, wire);
          AddSegment(encoded, Kind::kGet, key, "");
          break;
      }
    }

    // Random chunking: half the cuts are 1..16 bytes (tags and escapes
    // split), the rest long enough to keep the chunk count bounded.
    StreamingScanner scanner;
    std::vector<StreamSegment> scanned;
    size_t long_cut = 1 + wire.size() / 32;
    for (size_t at = 0; at < wire.size();) {
      size_t cut = 1 + rng.NextBounded(rng.NextBool(0.5) ? 16 : long_cut);
      cut = std::min(cut, wire.size() - at);
      ASSERT_TRUE(
          scanner.Feed(common::MakeBuffer(wire.substr(at, cut)), scanned)
              .ok())
          << "seed=" << GetParam() << " round=" << round << " at=" << at;
      at += cut;
    }
    ASSERT_TRUE(scanner.Finish(scanned).ok())
        << "seed=" << GetParam() << " round=" << round;

    std::vector<Segment> decoded;
    for (const StreamSegment& segment : scanned) {
      AddSegment(decoded, segment.kind, segment.key, segment.Text());
    }
    ASSERT_EQ(decoded.size(), encoded.size())
        << "seed=" << GetParam() << " round=" << round;
    for (size_t i = 0; i < encoded.size(); ++i) {
      EXPECT_TRUE(decoded[i] == encoded[i])
          << "seed=" << GetParam() << " round=" << round << " segment=" << i
          << " kind=" << static_cast<int>(encoded[i].kind)
          << " bytes=" << encoded[i].text.size() << " vs "
          << decoded[i].text.size();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TemplateFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace dynaprox::dpc
