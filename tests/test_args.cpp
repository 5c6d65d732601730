#include "src/support/args.hpp"

#include <gtest/gtest.h>

namespace beepmis::support {
namespace {

ArgParser make_parser() {
  ArgParser p("test tool");
  p.add_option("name", "default", "a string");
  p.add_option("count", "3", "an int");
  p.add_option("rate", "0.5", "a double");
  p.add_flag("verbose", "a flag");
  return p;
}

using Parsed = ArgParser::Parsed;

Parsed status(ArgParser& p, std::initializer_list<const char*> argv,
              std::string* err) {
  std::vector<const char*> full = {"prog"};
  full.insert(full.end(), argv.begin(), argv.end());
  return p.parse(static_cast<int>(full.size()), full.data(), err);
}

bool parse(ArgParser& p, std::initializer_list<const char*> argv,
           std::string* err) {
  return status(p, argv, err) == Parsed::Ok;
}

TEST(ArgParser, DefaultsApply) {
  ArgParser p = make_parser();
  std::string err;
  ASSERT_TRUE(parse(p, {}, &err)) << err;
  EXPECT_EQ(p.get("name"), "default");
  EXPECT_EQ(p.get_int("count"), 3);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 0.5);
  EXPECT_FALSE(p.flag("verbose"));
}

TEST(ArgParser, SpaceSeparatedValues) {
  ArgParser p = make_parser();
  std::string err;
  ASSERT_TRUE(parse(p, {"--name", "hello", "--count", "42"}, &err)) << err;
  EXPECT_EQ(p.get("name"), "hello");
  EXPECT_EQ(p.get_int("count"), 42);
}

TEST(ArgParser, EqualsSeparatedValues) {
  ArgParser p = make_parser();
  std::string err;
  ASSERT_TRUE(parse(p, {"--name=world", "--rate=0.25", "--verbose"}, &err));
  EXPECT_EQ(p.get("name"), "world");
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 0.25);
  EXPECT_TRUE(p.flag("verbose"));
}

TEST(ArgParser, NegativeNumbers) {
  ArgParser p = make_parser();
  std::string err;
  ASSERT_TRUE(parse(p, {"--count", "-5"}, &err));
  EXPECT_EQ(p.get_int("count"), -5);
}

TEST(ArgParser, UnknownArgumentRejected) {
  ArgParser p = make_parser();
  std::string err;
  EXPECT_FALSE(parse(p, {"--nope"}, &err));
  EXPECT_NE(err.find("unknown"), std::string::npos);
}

TEST(ArgParser, PositionalRejected) {
  ArgParser p = make_parser();
  std::string err;
  EXPECT_FALSE(parse(p, {"stray"}, &err));
  EXPECT_NE(err.find("positional"), std::string::npos);
}

TEST(ArgParser, MissingValueRejected) {
  ArgParser p = make_parser();
  std::string err;
  EXPECT_FALSE(parse(p, {"--name"}, &err));
  EXPECT_NE(err.find("needs a value"), std::string::npos);
}

TEST(ArgParser, FlagWithValueRejected) {
  ArgParser p = make_parser();
  std::string err;
  EXPECT_FALSE(parse(p, {"--verbose=yes"}, &err));
  EXPECT_NE(err.find("does not take"), std::string::npos);
}

TEST(ArgParser, HelpIsReportedDistinctly) {
  for (const char* help : {"--help", "-h"}) {
    ArgParser p = make_parser();
    std::string err;
    EXPECT_EQ(status(p, {"--count", "4", help}, &err), Parsed::Help);
    EXPECT_TRUE(err.empty());
  }
  ArgParser p = make_parser();
  std::string err;
  EXPECT_EQ(status(p, {"--nope"}, &err), Parsed::Error);
  const std::string usage = p.usage("prog");
  EXPECT_NE(usage.find("usage:"), std::string::npos);
  EXPECT_NE(usage.find("--name"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
}

TEST(ArgParser, ParseOrExitCodeSendsHelpToStdout) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--help"};
  int rc = -1;
  ::testing::internal::CaptureStdout();
  EXPECT_FALSE(p.parse_or_exit_code(2, argv, &rc));
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("usage: prog"), std::string::npos);

  ArgParser q = make_parser();
  const char* bad[] = {"prog", "--nope"};
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(q.parse_or_exit_code(2, bad, &rc));
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("unknown argument: --nope"), std::string::npos);

  ArgParser r = make_parser();
  const char* ok[] = {"prog", "--count", "7"};
  EXPECT_TRUE(r.parse_or_exit_code(3, ok, &rc));
  EXPECT_EQ(r.get_int("count"), 7);
}

TEST(ArgParser, RangedIntAcceptsBounds) {
  ArgParser p = make_parser();
  std::string err;
  ASSERT_TRUE(parse(p, {"--count", "1024"}, &err));
  EXPECT_EQ(p.get_int("count", 0, 1024), 1024);
  ASSERT_TRUE(parse(p, {"--count", "0"}, &err));
  EXPECT_EQ(p.get_int("count", 0, 1024), 0);
}

// Values come from outside the program, so a bad one ends the tool with
// the usage-error code and names the option — never a failed check.
TEST(ArgParserDeath, NonNumericValueExitsTwoNamingTheOption) {
  ArgParser p = make_parser();
  std::string err;
  ASSERT_TRUE(parse(p, {"--count", "abc", "--rate", "fast"}, &err));
  EXPECT_EXIT(p.get_int("count"), ::testing::ExitedWithCode(2),
              "--count: 'abc' is not an integer");
  EXPECT_EXIT(p.get_double("rate"), ::testing::ExitedWithCode(2),
              "--rate: 'fast' is not a number");
  ASSERT_TRUE(parse(p, {"--count", "99999999999999999999"}, &err));
  EXPECT_EXIT(p.get_int("count"), ::testing::ExitedWithCode(2),
              "--count: .* is not an integer");
  ASSERT_TRUE(parse(p, {"--count", ""}, &err));
  EXPECT_EXIT(p.get_int("count"), ::testing::ExitedWithCode(2),
              "--count: '' is not an integer");
}

TEST(ArgParserDeath, OutOfRangeIntExitsTwo) {
  ArgParser p = make_parser();
  std::string err;
  ASSERT_TRUE(parse(p, {"--count", "-1"}, &err));
  EXPECT_EXIT(p.get_int("count", 0, 1024), ::testing::ExitedWithCode(2),
              "--count: -1 is outside \\[0, 1024\\]");
  ASSERT_TRUE(parse(p, {"--count", "1025"}, &err));
  EXPECT_EXIT(p.get_int("count", 0, 1024), ::testing::ExitedWithCode(2),
              "--count: 1025 is outside");
}

TEST(ArgParserDeath, UndeclaredQueryAborts) {
  ArgParser p = make_parser();
  std::string err;
  ASSERT_TRUE(parse(p, {}, &err));
  EXPECT_DEATH(p.get("missing"), "undeclared");
  EXPECT_DEATH(p.flag("missing"), "undeclared");
}

TEST(ArgParserDeath, DuplicateDeclarationAborts) {
  ArgParser p("x");
  p.add_flag("a", "h");
  EXPECT_DEATH(p.add_option("a", "v", "h"), "duplicate");
}

}  // namespace
}  // namespace beepmis::support
