#include "bem/tag_codec.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"

namespace dynaprox::bem {
namespace {

// The escaper's specification, one byte at a time: every STX becomes
// STX 'L' ETX, every other byte is copied. AppendLiteral must produce
// exactly these bytes.
std::string OracleLiteral(std::string_view text) {
  std::string out;
  for (char c : text) {
    if (c == TagCodec::kStx) {
      out += TagCodec::kStx;
      out += 'L';
      out += TagCodec::kEtx;
    } else {
      out += c;
    }
  }
  return out;
}

std::string OracleGet(DpcKey key) {
  return std::string("\x02G") + ToHex(key) + "\x03";
}

std::string OracleSet(DpcKey key, std::string_view content) {
  return std::string("\x02S") + ToHex(key) + "\x03" + OracleLiteral(content) +
         "\x02" "E\x03";
}

// `size` random bytes, each STX with probability `stx_percent` / 100 and
// otherwise any other byte value (ETX and NUL included).
std::string RandomBytes(Rng& rng, size_t size, uint64_t stx_percent) {
  std::string out(size, '\0');
  for (char& c : out) {
    if (rng.NextBounded(100) < stx_percent) {
      c = TagCodec::kStx;
    } else {
      c = static_cast<char>(rng.NextBounded(256));
      if (c == TagCodec::kStx) c = TagCodec::kEtx;
    }
  }
  return out;
}

std::vector<std::string> EscaperInputs() {
  const std::string stx(1, TagCodec::kStx);
  std::vector<std::string> inputs = {
      "",
      "a",
      stx,
      std::string(1, TagCodec::kEtx),
      std::string(1, '\0'),
      stx + "tail",
      "head" + stx,
      stx + "mid" + stx,
      "a" + stx + stx + stx + "b",
      stx + stx + "x" + stx + stx,
      std::string(1000, TagCodec::kStx),
  };
  Rng rng(20);
  for (uint64_t percent : {0, 1, 50}) {
    inputs.push_back(RandomBytes(rng, 64 * 1024, percent));
  }
  // Short random inputs straddle every run boundary shape.
  for (int i = 0; i < 200; ++i) {
    inputs.push_back(
        RandomBytes(rng, rng.NextBounded(40), rng.NextBounded(101)));
  }
  return inputs;
}

TEST(TagCodecTest, LiteralMatchesByteOracle) {
  for (const std::string& input : EscaperInputs()) {
    std::string out = "prefix";
    TagCodec::AppendLiteral(input, out);
    ASSERT_EQ(out, "prefix" + OracleLiteral(input))
        << "input of " << input.size() << " bytes";
  }
}

TEST(TagCodecTest, SetMatchesByteOracle) {
  DpcKey key = 0;
  for (const std::string& input : EscaperInputs()) {
    std::string out = "prefix";
    TagCodec::AppendSet(key, input, out);
    ASSERT_EQ(out, "prefix" + OracleSet(key, input))
        << "input of " << input.size() << " bytes, key " << key;
    key = key * 7 + 13;
  }
}

TEST(TagCodecTest, GetAndTagSizeMatchByteOracle) {
  // Every hex width from one digit to the widest admissible key, at both
  // edges of each width.
  std::vector<DpcKey> keys;
  for (int digits = 1; digits <= 8; ++digits) {
    keys.push_back(digits == 1 ? 0 : DpcKey{1} << (4 * (digits - 1)));
    keys.push_back(digits == 8 ? 0xFFFFFFFE
                               : (DpcKey{1} << (4 * digits)) - 1);
  }
  for (DpcKey key : keys) {
    std::string out = "prefix";
    TagCodec::AppendGet(key, out);
    ASSERT_EQ(out, "prefix" + OracleGet(key)) << "key " << key;
    EXPECT_EQ(TagCodec::GetTagSize(key), OracleGet(key).size())
        << "key " << key;
  }
}

TEST(TagCodecTest, LiteralPassesPlainTextThrough) {
  std::string out;
  TagCodec::AppendLiteral("<html>hello</html>", out);
  EXPECT_EQ(out, "<html>hello</html>");
}

TEST(TagCodecTest, LiteralEscapesStx) {
  std::string out;
  TagCodec::AppendLiteral(std::string("a\x02z"), out);
  EXPECT_EQ(out, std::string("a\x02L\x03z"));
}

TEST(TagCodecTest, EtxNeedsNoEscape) {
  std::string out;
  TagCodec::AppendLiteral(std::string("a\x03z"), out);
  EXPECT_EQ(out, std::string("a\x03z"));
}

TEST(TagCodecTest, GetTagFormat) {
  std::string out;
  TagCodec::AppendGet(0x2A, out);
  EXPECT_EQ(out, std::string("\x02G2a\x03"));
}

TEST(TagCodecTest, SetTagWrapsContent) {
  std::string out;
  TagCodec::AppendSet(1, "body", out);
  EXPECT_EQ(out, std::string("\x02S1\x03") + "body" + "\x02" "E\x03");
}

TEST(TagCodecTest, SetEscapesContent) {
  std::string out;
  TagCodec::AppendSet(1, std::string("x\x02y"), out);
  EXPECT_EQ(out,
            std::string("\x02S1\x03") + "x\x02L\x03y" + "\x02" "E\x03");
}

TEST(TagCodecTest, TagSizesMatchEmission) {
  for (DpcKey key : {DpcKey{0}, DpcKey{15}, DpcKey{16}, DpcKey{4095},
                     DpcKey{1u << 20}}) {
    std::string get;
    TagCodec::AppendGet(key, get);
    EXPECT_EQ(get.size(), TagCodec::GetTagSize(key));

    std::string set;
    TagCodec::AppendSet(key, "0123456789", set);
    EXPECT_EQ(set.size(), TagCodec::SetFramingSize(key) + 10);
  }
}

TEST(TagCodecTest, TypicalTagSizeIsAboutTenBytes) {
  // Table 2 sets g = 10; our realized GET tag for keys up to 0xffffff is
  // 3 + <=6 = at most 9 bytes, comfortably within the modeled budget.
  EXPECT_LE(TagCodec::GetTagSize(0xFFFFFF), 10u);
  EXPECT_GE(TagCodec::GetTagSize(0), 4u);
}

}  // namespace
}  // namespace dynaprox::bem
