// Tests for the CLI flag parser.
#include "common/cli.hpp"

#include <gtest/gtest.h>

namespace dyngossip {
namespace {

CliArgs parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return CliArgs(static_cast<int>(v.size()), v.data());
}

TEST(Cli, EqualsForm) {
  const CliArgs args = parse({"prog", "--n=64", "--rate=0.5", "--name=abc"});
  EXPECT_EQ(args.get_int("n", 0), 64);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0), 0.5);
  EXPECT_EQ(args.get_string("name", ""), "abc");
}

TEST(Cli, SpaceForm) {
  const CliArgs args = parse({"prog", "--n", "128"});
  EXPECT_EQ(args.get_int("n", 0), 128);
}

TEST(Cli, BareFlagIsBooleanTrue) {
  const CliArgs args = parse({"prog", "--quick"});
  EXPECT_TRUE(args.get_bool("quick", false));
  EXPECT_TRUE(args.has("quick"));
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, BooleanFalseForms) {
  const CliArgs a = parse({"prog", "--x=false"});
  const CliArgs b = parse({"prog", "--x=0"});
  EXPECT_FALSE(a.get_bool("x", true));
  EXPECT_FALSE(b.get_bool("x", true));
}

TEST(Cli, DefaultsWhenAbsent) {
  const CliArgs args = parse({"prog"});
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.25), 0.25);
  EXPECT_EQ(args.get_string("s", "dflt"), "dflt");
  EXPECT_TRUE(args.get_bool("b", true));
}

TEST(Cli, ProgramName) {
  const CliArgs args = parse({"./dyngossip"});
  EXPECT_EQ(args.program(), "./dyngossip");
}

TEST(CliDeath, UnknownFlagRejectedByAllowList) {
  const CliArgs args = parse({"prog", "--typo=1"});
  EXPECT_EXIT(args.allow_only({"n", "k"}, "usage"), ::testing::ExitedWithCode(2),
              "unknown flag --typo");
}

TEST(CliDeath, MalformedIntegerAborts) {
  const CliArgs args = parse({"prog", "--n=abc"});
  EXPECT_EXIT((void)args.get_int("n", 0), ::testing::ExitedWithCode(2),
              "expects an integer");
}

TEST(CliDeath, NonFlagTokenAborts) {
  EXPECT_EXIT(parse({"prog", "oops"}), ::testing::ExitedWithCode(2),
              "expected --flag");
}

}  // namespace
}  // namespace dyngossip
