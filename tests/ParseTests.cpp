//===- tests/ParseTests.cpp - checked numeric argument parsing ----------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// The checked CLI numeric parsing (support/Parse.h): garbage, signs,
// whitespace, and out-of-range values are rejected instead of silently
// becoming a number.
//
//===----------------------------------------------------------------------===//

#include "support/Parse.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace antidote;

TEST(CheckedParseTest, RejectsGarbageIntegers) {
  EXPECT_EQ(parseUnsignedArg("foo"), std::nullopt);
  EXPECT_EQ(parseUnsignedArg(""), std::nullopt);
  EXPECT_EQ(parseUnsignedArg("12x"), std::nullopt);   // atoi: 12
  EXPECT_EQ(parseUnsignedArg("-3"), std::nullopt);    // unsigned cast: wraps
  EXPECT_EQ(parseUnsignedArg(" 5"), std::nullopt);    // atoi: 5
  EXPECT_EQ(parseUnsignedArg("5 "), std::nullopt);
  EXPECT_EQ(parseUnsignedArg("+5"), std::nullopt);
  EXPECT_EQ(parseUnsignedArg("0x10"), std::nullopt);
}

TEST(CheckedParseTest, RejectsOutOfRangeIntegers) {
  EXPECT_EQ(parseUnsignedArg("4294967296", UINT32_MAX), std::nullopt);
  EXPECT_EQ(parseUnsignedArg("99999999999999999999"), std::nullopt);
  EXPECT_EQ(parseUnsignedArg("4294967295", UINT32_MAX), 4294967295ull);
}

TEST(CheckedParseTest, AcceptsPlainUnsignedIntegers) {
  EXPECT_EQ(parseUnsignedArg("0"), 0ull);
  EXPECT_EQ(parseUnsignedArg("16"), 16ull);
  EXPECT_EQ(parseUnsignedArg("007"), 7ull);
}

TEST(CheckedParseTest, DoubleParsingIsCheckedEndToEnd) {
  EXPECT_EQ(parseDoubleArg("abc"), std::nullopt);
  EXPECT_EQ(parseDoubleArg(""), std::nullopt);
  EXPECT_EQ(parseDoubleArg("1.5s"), std::nullopt); // atof: 1.5
  EXPECT_EQ(parseDoubleArg(" 2.0"), std::nullopt);
  EXPECT_EQ(parseDoubleArg("1e999"), std::nullopt); // overflows to inf
  EXPECT_EQ(parseDoubleArg("nan"), std::nullopt);
  EXPECT_EQ(parseDoubleArg("inf"), std::nullopt);
  ASSERT_TRUE(parseDoubleArg("2.5").has_value());
  EXPECT_DOUBLE_EQ(*parseDoubleArg("2.5"), 2.5);
  ASSERT_TRUE(parseDoubleArg("-1.25").has_value());
  EXPECT_DOUBLE_EQ(*parseDoubleArg("-1.25"), -1.25);
  EXPECT_DOUBLE_EQ(*parseDoubleArg("0"), 0.0);
}
