// Flag-parser tests: value forms, defaults, type validation, error paths and
// help generation.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/flags.hpp"

namespace {

using score::util::Flags;

Flags make_flags() {
  Flags f;
  f.add_string("name", "alpha", "a string");
  f.add_int("count", 7, "an int");
  f.add_double("rate", 1.5, "a double");
  f.add_bool("verbose", false, "a bool");
  return f;
}

int parse(Flags& f, std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return f.parse(static_cast<int>(argv.size()), argv.data()) ? 1 : 0;
}

TEST(Flags, DefaultsWithoutArguments) {
  Flags f = make_flags();
  EXPECT_EQ(parse(f, {}), 1);
  EXPECT_EQ(f.get_string("name"), "alpha");
  EXPECT_EQ(f.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(f.get_double("rate"), 1.5);
  EXPECT_FALSE(f.get_bool("verbose"));
}

TEST(Flags, SpaceSeparatedValues) {
  Flags f = make_flags();
  EXPECT_EQ(parse(f, {"--name", "beta", "--count", "42", "--rate", "0.25"}), 1);
  EXPECT_EQ(f.get_string("name"), "beta");
  EXPECT_EQ(f.get_int("count"), 42);
  EXPECT_DOUBLE_EQ(f.get_double("rate"), 0.25);
}

TEST(Flags, EqualsSeparatedValues) {
  Flags f = make_flags();
  EXPECT_EQ(parse(f, {"--count=13", "--name=x", "--verbose=true"}), 1);
  EXPECT_EQ(f.get_int("count"), 13);
  EXPECT_EQ(f.get_string("name"), "x");
  EXPECT_TRUE(f.get_bool("verbose"));
}

TEST(Flags, BareBooleanFlag) {
  Flags f = make_flags();
  EXPECT_EQ(parse(f, {"--verbose"}), 1);
  EXPECT_TRUE(f.get_bool("verbose"));
}

TEST(Flags, NegativeNumbers) {
  Flags f = make_flags();
  EXPECT_EQ(parse(f, {"--count", "-3", "--rate", "-2.5"}), 1);
  EXPECT_EQ(f.get_int("count"), -3);
  EXPECT_DOUBLE_EQ(f.get_double("rate"), -2.5);
}

TEST(Flags, GetCountRejectsNegativeValues) {
  Flags f = make_flags();
  EXPECT_EQ(f.get_count("count"), 7u);
  EXPECT_EQ(parse(f, {"--count", "0"}), 1);
  EXPECT_EQ(f.get_count("count"), 0u);
  EXPECT_EQ(parse(f, {"--count", "-1"}), 1);
  // A negative count throws, naming the flag, instead of wrapping to 2^64-1.
  try {
    (void)f.get_count("count");
    ADD_FAILURE() << "get_count accepted -1";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--count"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)f.get_count("rate"), std::logic_error);
}

TEST(Flags, HelpRequested) {
  Flags f = make_flags();
  EXPECT_EQ(parse(f, {"--help"}), 0);
  const std::string h = f.help("tool");
  EXPECT_NE(h.find("--count"), std::string::npos);
  EXPECT_NE(h.find("default 7"), std::string::npos);
  EXPECT_NE(h.find("usage: tool"), std::string::npos);
}

TEST(Flags, UnknownFlagThrows) {
  Flags f = make_flags();
  EXPECT_THROW(parse(f, {"--missing", "1"}), std::invalid_argument);
  EXPECT_THROW(parse(f, {"--missing=1"}), std::invalid_argument);
}

TEST(Flags, TypeValidation) {
  Flags f = make_flags();
  EXPECT_THROW(parse(f, {"--count", "abc"}), std::invalid_argument);
  EXPECT_THROW(parse(f, {"--count", "1.5"}), std::invalid_argument);
  EXPECT_THROW(parse(f, {"--rate", "xyz"}), std::invalid_argument);
  EXPECT_THROW(parse(f, {"--verbose=maybe"}), std::invalid_argument);
}

TEST(Flags, MissingValueThrows) {
  Flags f = make_flags();
  EXPECT_THROW(parse(f, {"--count"}), std::invalid_argument);
}

TEST(Flags, PositionalArgumentsRejected) {
  Flags f = make_flags();
  EXPECT_THROW(parse(f, {"stray"}), std::invalid_argument);
}

TEST(Flags, WrongTypeAccessorIsLogicError) {
  Flags f = make_flags();
  parse(f, {});
  EXPECT_THROW((void)f.get_int("name"), std::logic_error);
  EXPECT_THROW((void)f.get_string("count"), std::logic_error);
  EXPECT_THROW((void)f.get_bool("unregistered"), std::logic_error);
}

TEST(Flags, LastValueWins) {
  Flags f = make_flags();
  EXPECT_EQ(parse(f, {"--count", "1", "--count", "2"}), 1);
  EXPECT_EQ(f.get_int("count"), 2);
}

}  // namespace
