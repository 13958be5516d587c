#include "common/args.h"

#include <vector>

#include <gtest/gtest.h>

namespace colossal {
namespace {

StatusOr<Args> ParseVector(const std::vector<const char*>& argv) {
  return Args::Parse(static_cast<int>(argv.size()), argv.data(), 0);
}

TEST(ArgsTest, ParsesFlagValuePairs) {
  StatusOr<Args> args =
      ParseVector({"--dataset", "diag", "--n", "40", "--tau", "0.5"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args->Has("dataset"));
  EXPECT_EQ(args->GetString("dataset"), "diag");
  EXPECT_EQ(*args->GetInt("n", 0), 40);
  EXPECT_DOUBLE_EQ(*args->GetDouble("tau", 0.0), 0.5);
}

TEST(ArgsTest, FallbacksApplyWhenAbsent) {
  StatusOr<Args> args = ParseVector({});
  ASSERT_TRUE(args.ok());
  EXPECT_FALSE(args->Has("k"));
  EXPECT_EQ(args->GetString("algo", "pf"), "pf");
  EXPECT_EQ(*args->GetInt("k", 100), 100);
  EXPECT_DOUBLE_EQ(*args->GetDouble("tau", 0.25), 0.25);
}

TEST(ArgsTest, RejectsBareValue) {
  StatusOr<Args> args = ParseVector({"diag"});
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.status().message().find("expected --flag"),
            std::string::npos);
}

TEST(ArgsTest, RejectsDanglingFlag) {
  StatusOr<Args> args = ParseVector({"--out"});
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.status().message().find("needs a value"), std::string::npos);
}

TEST(ArgsTest, RejectsEmptyFlagName) {
  EXPECT_FALSE(ParseVector({"--", "x"}).ok());
}

TEST(ArgsTest, NumericParsingErrors) {
  StatusOr<Args> args = ParseVector({"--n", "fortytwo", "--tau", "0.5x"});
  ASSERT_TRUE(args.ok());
  EXPECT_FALSE(args->GetInt("n", 0).ok());
  EXPECT_FALSE(args->GetDouble("tau", 0.0).ok());
  // strtod reads all of these; NaN would pass any range check.
  for (const char* value : {"nan", "-nan", "inf", "-inf", "NAN", "infinity"}) {
    StatusOr<Args> non_finite = ParseVector({"--x", value});
    ASSERT_TRUE(non_finite.ok()) << value;
    EXPECT_FALSE(non_finite->GetDouble("x", 0.0).ok()) << value;
  }
}

TEST(ArgsTest, NegativeNumbersParse) {
  StatusOr<Args> args = ParseVector({"--offset", "-7", "--x", "-0.25"});
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(*args->GetInt("offset", 0), -7);
  EXPECT_DOUBLE_EQ(*args->GetDouble("x", 0.0), -0.25);
}

TEST(ArgsTest, CheckKnownCatchesTypos) {
  StatusOr<Args> args = ParseVector({"--dataseet", "diag"});
  ASSERT_TRUE(args.ok());
  Status status = args->CheckKnown({"dataset", "out"});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--dataseet"), std::string::npos);
  EXPECT_TRUE(args->CheckKnown({"dataseet"}).ok());
}

TEST(ArgsTest, HelpIsABareFlag) {
  StatusOr<Args> args = ParseVector({"--help"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args->HelpRequested());

  // --help consumes no value, so flags after it still parse.
  args = ParseVector({"--help", "--k", "5"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args->HelpRequested());
  EXPECT_EQ(*args->GetInt("k", 0), 5);

  args = ParseVector({"-h"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args->HelpRequested());

  EXPECT_FALSE(ParseVector({"--n", "3"})->HelpRequested());
}

TEST(ArgsTest, DeclaredBooleanFlagsTakeNoValue) {
  const std::vector<const char*> argv = {"--csv", "--out", "x"};
  StatusOr<Args> args =
      Args::Parse(static_cast<int>(argv.size()), argv.data(), 0, {"csv"});
  ASSERT_TRUE(args.ok()) << args.status().ToString();
  EXPECT_TRUE(args->Has("csv"));
  EXPECT_EQ(args->GetString("out"), "x");
  // Without the declaration, --csv still wants a value.
  EXPECT_TRUE(ParseVector({"--csv"}).status().message().find(
                  "needs a value") != std::string::npos);
}

TEST(ArgsTest, HelpIsAlwaysKnown) {
  StatusOr<Args> args = ParseVector({"--help", "--n", "3"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args->CheckKnown({"n"}).ok());
}

TEST(ArgsTest, UnknownFlagErrorListsKnownFlags) {
  StatusOr<Args> args = ParseVector({"--treads", "4"});
  ASSERT_TRUE(args.ok());
  Status status = args->CheckKnown({"threads", "tau", "k"});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--treads"), std::string::npos);
  EXPECT_NE(status.message().find("--threads"), std::string::npos);
  EXPECT_NE(status.message().find("--tau"), std::string::npos);
  EXPECT_NE(status.message().find("--k"), std::string::npos);
}

TEST(ArgsTest, ParseLineTokenizesWhitespace) {
  StatusOr<Args> args =
      Args::ParseLine("  --in  data.fimi\t--min-support 20 ");
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args->GetString("in"), "data.fimi");
  EXPECT_EQ(*args->GetInt("min-support", 0), 20);
  EXPECT_TRUE(Args::ParseLine("")->CheckKnown({}).ok());
  EXPECT_FALSE(Args::ParseLine("--dangling").ok());
}

TEST(ArgsTest, LaterValueWins) {
  StatusOr<Args> args = ParseVector({"--k", "10", "--k", "20"});
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(*args->GetInt("k", 0), 20);
}

}  // namespace
}  // namespace colossal
