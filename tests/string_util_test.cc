#include "common/string_util.h"

#include <gtest/gtest.h>

#include "common/hash.h"

namespace mctdb {
namespace {

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, DropsEmptyByDefault) {
  EXPECT_EQ(Split("a,,b,", ','), (std::vector<std::string>{"a", "b"}));
}

TEST(SplitTest, KeepsEmptyWhenAsked) {
  EXPECT_EQ(Split("a,,b,", ',', true),
            (std::vector<std::string>{"a", "", "b", ""}));
}

TEST(SplitTest, EmptyInput) {
  EXPECT_TRUE(Split("", ',').empty());
  EXPECT_EQ(Split("", ',', true), (std::vector<std::string>{""}));
}

TEST(JoinTest, RoundTripsWithSplit) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, "::"), "x::y::z");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(TrimTest, StripsBothEnds) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("inner space kept"), "inner space kept");
}

TEST(PrefixSuffixTest, Works) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(StringPrintfTest, FormatsLikePrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StringPrintf("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StringPrintf("empty"), "empty");
}

TEST(StringPrintfTest, LongOutput) {
  std::string big(5000, 'a');
  EXPECT_EQ(StringPrintf("%s", big.c_str()).size(), 5000u);
}

TEST(EscapeXmlTest, EscapesAllFive) {
  EXPECT_EQ(EscapeXml("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
  EXPECT_EQ(EscapeXml("plain"), "plain");
}

TEST(ToLowerTest, Lowercases) {
  EXPECT_EQ(ToLower("MiXeD123"), "mixed123");
}

TEST(ParseUint64Test, ValidAndInvalid) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("12345", &v));
  EXPECT_EQ(v, 12345u);
  EXPECT_TRUE(ParseUint64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("12a", &v));
  EXPECT_FALSE(ParseUint64("-3", &v));
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  // One past UINT64_MAX must not wrap around to a small value.
  EXPECT_FALSE(ParseUint64("18446744073709551617", &v));
  EXPECT_FALSE(ParseUint64("99999999999999999999999", &v));
}

TEST(HashTest, StableAndSensitive) {
  EXPECT_EQ(Hash64("abc"), Hash64("abc"));
  EXPECT_NE(Hash64("abc"), Hash64("abd"));
  EXPECT_NE(Hash64("abc"), Hash64("abc", /*seed=*/1));
  EXPECT_NE(Hash64(uint64_t{1}), Hash64(uint64_t{2}));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

}  // namespace
}  // namespace mctdb
