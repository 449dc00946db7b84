#include "dpc/tag_scanner.h"

#include <gtest/gtest.h>

#include "bem/tag_codec.h"

namespace dynaprox::dpc {
namespace {

using Kind = StreamSegment::Kind;

// Parameterized over both scan strategies: behaviour must be identical.
class TagScannerTest : public ::testing::TestWithParam<ScanStrategy> {
 protected:
  Result<std::vector<StreamSegment>> Parse(std::string_view wire) {
    return ParseTemplate(wire, GetParam());
  }
};

TEST_P(TagScannerTest, PlainTextIsOneLiteral) {
  auto segments = Parse("<html>plain</html>");
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  EXPECT_EQ((*segments)[0].kind, Kind::kLiteral);
  EXPECT_EQ((*segments)[0].Text(), "<html>plain</html>");
}

TEST_P(TagScannerTest, EmptyTemplate) {
  auto segments = Parse("");
  ASSERT_TRUE(segments.ok());
  EXPECT_TRUE(segments->empty());
}

TEST_P(TagScannerTest, GetTag) {
  std::string wire = "before";
  bem::TagCodec::AppendGet(0x1F, wire);
  wire += "after";
  auto segments = Parse(wire);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 3u);
  EXPECT_EQ((*segments)[0].Text(), "before");
  EXPECT_EQ((*segments)[1].kind, Kind::kGet);
  EXPECT_EQ((*segments)[1].key, 0x1Fu);
  EXPECT_EQ((*segments)[2].Text(), "after");
}

TEST_P(TagScannerTest, SetTagCarriesContent) {
  std::string wire;
  bem::TagCodec::AppendSet(7, "fragment body", wire);
  auto segments = Parse(wire);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  EXPECT_EQ((*segments)[0].kind, Kind::kSet);
  EXPECT_EQ((*segments)[0].key, 7u);
  EXPECT_EQ((*segments)[0].Text(), "fragment body");
}

TEST_P(TagScannerTest, EscapedStxRoundTripsInLiteralAndSet) {
  std::string content_with_stx = std::string("a\x02" "b");
  std::string wire;
  bem::TagCodec::AppendLiteral(content_with_stx, wire);
  bem::TagCodec::AppendSet(1, content_with_stx, wire);
  auto segments = Parse(wire);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 2u);
  EXPECT_EQ((*segments)[0].Text(), content_with_stx);
  EXPECT_EQ((*segments)[1].Text(), content_with_stx);
}

TEST_P(TagScannerTest, MixedTemplateInOrder) {
  std::string wire = "head:";
  bem::TagCodec::AppendGet(1, wire);
  bem::TagCodec::AppendLiteral("-mid-", wire);
  bem::TagCodec::AppendSet(2, "stored", wire);
  bem::TagCodec::AppendGet(3, wire);
  auto segments = Parse(wire);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 5u);
  EXPECT_EQ((*segments)[0].kind, Kind::kLiteral);
  EXPECT_EQ((*segments)[1].kind, Kind::kGet);
  EXPECT_EQ((*segments)[2].kind, Kind::kLiteral);
  EXPECT_EQ((*segments)[3].kind, Kind::kSet);
  EXPECT_EQ((*segments)[4].kind, Kind::kGet);
}

TEST_P(TagScannerTest, AdjacentSetBlocks) {
  std::string wire;
  bem::TagCodec::AppendSet(1, "one", wire);
  bem::TagCodec::AppendSet(2, "two", wire);
  auto segments = Parse(wire);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 2u);
  EXPECT_EQ((*segments)[0].Text(), "one");
  EXPECT_EQ((*segments)[1].Text(), "two");
}

TEST_P(TagScannerTest, RejectsTruncatedTagAtEnd) {
  EXPECT_TRUE(Parse("\x02").status().IsCorruption());
  EXPECT_TRUE(Parse("abc\x02").status().IsCorruption());
}

TEST_P(TagScannerTest, RejectsUnknownMarker) {
  EXPECT_TRUE(Parse("\x02X\x03").status().IsCorruption());
}

TEST_P(TagScannerTest, RejectsMalformedLiteralEscape) {
  EXPECT_TRUE(Parse("\x02L").status().IsCorruption());
  EXPECT_TRUE(Parse("\x02Lx").status().IsCorruption());
}

TEST_P(TagScannerTest, RejectsBadHexKey) {
  EXPECT_TRUE(Parse("\x02Gzz\x03").status().IsCorruption());
  EXPECT_TRUE(Parse("\x02G\x03").status().IsCorruption());  // Empty key.
  // Key wider than 64 bits.
  EXPECT_TRUE(Parse("\x02G1ffffffffffffffff\x03").status().IsCorruption());
}

TEST_P(TagScannerTest, RejectsSentinelKey) {
  // Sixteen F's is bem::kInvalidDpcKey — the "no key" sentinel
  // downstream; a tag carrying it is Corruption at parse, not a
  // store-layer surprise.
  EXPECT_TRUE(Parse("\x02GFFFFFFFFFFFFFFFF\x03").status().IsCorruption());
  EXPECT_TRUE(Parse("\x02SFFFFFFFFFFFFFFFF\x03").status().IsCorruption());
}

TEST_P(TagScannerTest, RejectsHexRunOverMaxDigits) {
  // bem::TagCodec emits minimal hex; more than kMaxKeyHexDigits is
  // hostile even when zero-padding keeps the value small.
  EXPECT_TRUE(Parse("\x02G00000000000000001\x03").status().IsCorruption());
  EXPECT_TRUE(Parse("\x02S00000000000000001\x03").status().IsCorruption());
}

TEST_P(TagScannerTest, RejectsUnterminatedSet) {
  std::string wire = "\x02S1\x03 content with no end";
  EXPECT_TRUE(Parse(wire).status().IsCorruption());
}

TEST_P(TagScannerTest, RejectsSetEndWithoutSet) {
  EXPECT_TRUE(Parse("\x02" "E\x03").status().IsCorruption());
}

TEST_P(TagScannerTest, RejectsNestedSet) {
  std::string wire = "\x02S1\x03" "abc\x02S2\x03" "def\x02" "E\x03\x02"
                     "E\x03";
  EXPECT_TRUE(Parse(wire).status().IsCorruption());
}

TEST_P(TagScannerTest, RejectsGetInsideSet) {
  std::string wire = "\x02S1\x03" "abc\x02G2\x03\x02" "E\x03";
  EXPECT_TRUE(Parse(wire).status().IsCorruption());
}

TEST_P(TagScannerTest, RejectsMissingEtxOnKeyTag) {
  EXPECT_TRUE(Parse("\x02G1f").status().IsCorruption());
}

INSTANTIATE_TEST_SUITE_P(Strategies, TagScannerTest,
                         ::testing::Values(ScanStrategy::kMemchr,
                                           ScanStrategy::kByteLoop));

}  // namespace
}  // namespace dynaprox::dpc
