// Adversarial template inputs: a compromised or buggy origin can send the
// DPC arbitrary bytes where the BEM tag grammar is expected. Every case
// here must surface as a clean Corruption/InvalidArgument error — never a
// crash, hang, or out-of-bounds read (the suite runs under ASan in CI).

#include <string>

#include <gtest/gtest.h>

#include "bem/tag_codec.h"
#include "bem/types.h"
#include "dpc/fragment_store.h"
#include "dpc/tag_scanner.h"

namespace dynaprox::dpc {
namespace {

constexpr char kStx = bem::TagCodec::kStx;
constexpr char kEtx = bem::TagCodec::kEtx;

std::string Stx(std::string_view rest) {
  return std::string(1, kStx) + std::string(rest);
}

void ExpectCorrupt(const std::string& wire) {
  for (ScanStrategy strategy :
       {ScanStrategy::kMemchr, ScanStrategy::kByteLoop}) {
    Result<std::vector<StreamSegment>> parsed =
        ParseTemplate(wire, strategy);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << wire;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST(AdversarialTemplateTest, BareStxAtEndOfTemplate) {
  ExpectCorrupt("page text" + std::string(1, kStx));
}

TEST(AdversarialTemplateTest, SetTagTruncatedAtEof) {
  // SET-open whose hex key runs off the end with no ETX.
  ExpectCorrupt("before" + Stx("S1A"));
  ExpectCorrupt(Stx("S"));
}

TEST(AdversarialTemplateTest, SetContentTruncatedAtEof) {
  // Well-formed SET-open, fragment bytes, then EOF before STX 'E' ETX: the
  // declared fragment extends past the template end.
  std::string wire = Stx("S2A") + std::string(1, kEtx) + "fragment bytes...";
  ExpectCorrupt(wire);
}

TEST(AdversarialTemplateTest, GetTagMissingEtx) {
  // The scanner must not read past the template hunting for the ETX.
  ExpectCorrupt(Stx("G1F") + "trailing text without terminator");
}

TEST(AdversarialTemplateTest, NestedSetTags) {
  std::string set_open_a = Stx("S1") + std::string(1, kEtx);
  std::string set_open_b = Stx("S2") + std::string(1, kEtx);
  ExpectCorrupt(set_open_a + "outer" + set_open_b + "inner");
}

TEST(AdversarialTemplateTest, GetInsideSet) {
  std::string wire = Stx("S1") + std::string(1, kEtx) + "frag" +
                     Stx("G2") + std::string(1, kEtx);
  ExpectCorrupt(wire);
  ExpectCorrupt(wire + Stx("E") + std::string(1, kEtx));  // SET closed.
}

TEST(AdversarialTemplateTest, SetEndWithoutSetOpen) {
  ExpectCorrupt("text" + Stx("E") + std::string(1, kEtx));
}

TEST(AdversarialTemplateTest, OverlappingTagMarkers) {
  // An STX inside what should be a key: the inner STX is just a bad hex
  // digit, and the tag never terminates cleanly.
  ExpectCorrupt(Stx("S1") + Stx("G2") + std::string(1, kEtx));
}

TEST(AdversarialTemplateTest, OutOfRangeDpcKeyRejected) {
  // Hex wider than a DpcKey (uint64) must not wrap around silently.
  ExpectCorrupt(Stx("G1FFFFFFFFFFFFFFFF") + std::string(1, kEtx));
  ExpectCorrupt(Stx("SFFFFFFFFFFFFFFFF") + std::string(1, kEtx));
}

TEST(AdversarialTemplateTest, NonHexKeyRejected) {
  ExpectCorrupt(Stx("Gzz") + std::string(1, kEtx));
  ExpectCorrupt(Stx("G") + std::string(1, kEtx));  // Empty key.
}

TEST(AdversarialTemplateTest, UnknownTagMarkerRejected) {
  ExpectCorrupt("text" + Stx("Q") + std::string(1, kEtx));
  ExpectCorrupt(std::string(1, kStx) + std::string(1, '\0') +
                std::string(1, kEtx));
}

TEST(AdversarialTemplateTest, MalformedLiteralEscape) {
  ExpectCorrupt(Stx("L"));          // Truncated at EOF.
  ExpectCorrupt(Stx("Lx"));         // Wrong terminator byte.
}

TEST(AdversarialTemplateTest, SentinelKeyRejectedAtParse) {
  // Sixteen F's is exactly kInvalidDpcKey — the "no key" sentinel
  // downstream. A tag carrying it is rejected by the scanner itself, so
  // the sentinel can never leak into a segment (it used to survive until
  // the FragmentStore bounds check).
  ExpectCorrupt(Stx("GFFFFFFFFFFFFFFFF") + std::string(1, kEtx));
  ExpectCorrupt(Stx("SFFFFFFFFFFFFFFFF") + std::string(1, kEtx));

  // The store still rejects it independently (defense in depth).
  FragmentStore store(/*capacity=*/16);
  EXPECT_FALSE(store.Set(bem::kInvalidDpcKey, "x").ok());
  EXPECT_FALSE(store.Get(bem::kInvalidDpcKey).ok());
}

TEST(AdversarialTemplateTest, ZeroPaddedKeyRunRejected) {
  // Seventeen-plus hex digits exceed kMaxKeyHexDigits even when the value
  // itself is tiny: bem::TagCodec emits minimal hex, so an over-long run
  // is hostile input, and accepting it would let zero-padding inflate the
  // streaming scanner's partial-tag stash without bound.
  ExpectCorrupt(Stx("G00000000000000001") + std::string(1, kEtx));
  ExpectCorrupt(Stx("S00000000000000001") + std::string(1, kEtx));
}

TEST(AdversarialTemplateTest, DeepAlternationStaysLinear) {
  // Thousands of alternating escapes and one-byte literals: parses fine,
  // with no quadratic blowup or recursion depth issues.
  std::string wire;
  std::string escape = Stx("L") + std::string(1, kEtx);
  for (int i = 0; i < 5000; ++i) {
    wire += escape;
    wire += 'a';
  }
  Result<std::vector<StreamSegment>> parsed = ParseTemplate(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].text_size(), 10000u);
}

TEST(AdversarialTemplateTest, ValidTemplateStillParses) {
  // Guard against over-rejection: the canonical encode path must pass.
  std::string wire;
  bem::TagCodec::AppendLiteral("hello ", wire);
  bem::TagCodec::AppendSet(7, "cached\x02world", wire);
  bem::TagCodec::AppendGet(9, wire);
  Result<std::vector<StreamSegment>> parsed = ParseTemplate(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ((*parsed)[0].kind, StreamSegment::Kind::kLiteral);
  EXPECT_EQ((*parsed)[1].kind, StreamSegment::Kind::kSet);
  EXPECT_EQ((*parsed)[1].key, 7u);
  EXPECT_EQ((*parsed)[1].Text(), "cached\x02world");
  EXPECT_EQ((*parsed)[2].kind, StreamSegment::Kind::kGet);
  EXPECT_EQ((*parsed)[2].key, 9u);
}

}  // namespace
}  // namespace dynaprox::dpc
