//===- tests/ParseTests.cpp - checked numeric argument parsing ----------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// The checked CLI numeric parsing (support/Parse.h): garbage, signs,
// whitespace, and out-of-range values are rejected instead of silently
// becoming a number. And the shared serving-flag table on top of it
// (serving/ServingOptions.h): env twins apply and flags beat them,
// malformed values in either fail, and flags the table does not know
// stay in argv, in order, for the front end to judge.
//
//===----------------------------------------------------------------------===//

#include "serving/ServingOptions.h"
#include "support/Parse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

using namespace antidote;

namespace {

/// Sets (or, given nullopt, unsets) one environment variable for the
/// guard's scope and restores the previous value afterwards.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, std::optional<std::string> Value)
      : Name(Name) {
    if (const char *Old = std::getenv(Name))
      Saved = Old;
    if (Value)
      setenv(Name, Value->c_str(), /*overwrite=*/1);
    else
      unsetenv(Name);
  }
  ~ScopedEnv() {
    if (Saved)
      setenv(Name, Saved->c_str(), /*overwrite=*/1);
    else
      unsetenv(Name);
  }
  ScopedEnv(const ScopedEnv &) = delete;
  ScopedEnv &operator=(const ScopedEnv &) = delete;

private:
  const char *Name;
  std::optional<std::string> Saved;
};

/// An argv `ServingOptions::parse` can rewrite in place, with the
/// program name in front.
struct Args {
  explicit Args(std::vector<std::string> Flags) : Storage(std::move(Flags)) {
    Storage.insert(Storage.begin(), "prog");
    for (std::string &S : Storage)
      Argv.push_back(S.data());
    Argc = static_cast<int>(Argv.size());
  }
  bool parse(ServingOptions &O) { return O.parse(Argc, Argv.data()); }
  /// What parse left in argv, program name excluded.
  std::vector<std::string> kept() const {
    return std::vector<std::string>(Argv.begin() + 1, Argv.begin() + Argc);
  }

  std::vector<std::string> Storage;
  std::vector<char *> Argv;
  int Argc = 0;
};

} // namespace

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

TEST(ServingOptionsTest, EnvTwinAppliesAndFlagBeatsIt) {
  ScopedEnv Jobs("ANTIDOTE_JOBS", "3");
  ScopedEnv Threat("ANTIDOTE_THREAT", "flip");

  ServingOptions FromEnv;
  Args None({});
  ASSERT_TRUE(None.parse(FromEnv));
  EXPECT_EQ(FromEnv.Jobs, 3u);
  EXPECT_EQ(FromEnv.Threat, ThreatModelKind::LabelFlip);

  ServingOptions FromFlag;
  Args Flags({"--jobs", "5", "--threat", "removal"});
  ASSERT_TRUE(Flags.parse(FromFlag));
  EXPECT_EQ(FromFlag.Jobs, 5u);
  EXPECT_EQ(FromFlag.Threat, ThreatModelKind::Removal);
  EXPECT_TRUE(Flags.kept().empty());
}

TEST(ServingOptionsTest, MalformedFlagOrEnvTwinFails) {
  {
    ScopedEnv Jobs("ANTIDOTE_JOBS", std::nullopt);
    ServingOptions O;
    Args BadFlag({"--jobs", "two"});
    EXPECT_FALSE(BadFlag.parse(O));
  }
  {
    ScopedEnv Jobs("ANTIDOTE_JOBS", "-1");
    ServingOptions O;
    Args None({});
    EXPECT_FALSE(None.parse(O));
  }
  {
    // A malformed twin fails even when its flag would override it.
    ScopedEnv Rate("ANTIDOTE_CLIENT_RATE", "fast");
    ServingOptions O;
    Args Flag({"--client-rate", "2"});
    EXPECT_FALSE(Flag.parse(O));
  }
}

TEST(ServingOptionsTest, TrailingFlagWithoutValueFails) {
  ScopedEnv Threat("ANTIDOTE_THREAT", std::nullopt);
  ServingOptions O;
  Args Trailing({"--row", "0", "--threat"});
  EXPECT_FALSE(Trailing.parse(O));
}

TEST(ServingOptionsTest, UnknownFlagsStayInArgvInOrder) {
  ScopedEnv Jobs("ANTIDOTE_JOBS", std::nullopt);
  ServingOptions O;
  Args Mixed({"--serve", "--frontier-jobs", "2", "--jobs", "4", "--row",
              "7", "--cache-bytes", "64", "extra"});
  ASSERT_TRUE(Mixed.parse(O));
  EXPECT_EQ(O.Jobs, 4u);
  EXPECT_TRUE(O.CacheEnabled);
  EXPECT_EQ(O.CacheBytes, 64u);
  const std::vector<std::string> Expected = {
      "--serve", "--frontier-jobs", "2", "--row", "7", "extra"};
  EXPECT_EQ(Mixed.kept(), Expected);
}

TEST(ServingOptionsTest, ReplicateFromNeedsHostAndPortSplitOnLastColon) {
  ScopedEnv Replicate("ANTIDOTE_REPLICATE_FROM", std::nullopt);
  for (const char *Bad : {":80", "h:0", "h:65536", "h"}) {
    ServingOptions O;
    Args A({"--replicate-from", Bad});
    EXPECT_FALSE(A.parse(O)) << Bad;
  }
  ServingOptions O;
  Args A({"--replicate-from", "a:b:7"});
  ASSERT_TRUE(A.parse(O));
  EXPECT_TRUE(O.Replicate);
  EXPECT_EQ(O.ReplicateHost, "a:b");
  EXPECT_EQ(O.ReplicatePort, 7u);
}
