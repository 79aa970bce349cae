/**
 * @file
 * Tests for the declarative CLI parser.
 */

#include <gtest/gtest.h>

#include "base/argparse.hh"

using namespace biglittle;

namespace
{

ArgParser
makeParser()
{
    ArgParser p("prog", "test program");
    p.addString("name", "default-name", "a string");
    p.addInt("count", 10, "an int");
    p.addDouble("ratio", 0.5, "a double");
    p.addFlag("verbose", "a flag");
    return p;
}

std::vector<std::string>
parse(ArgParser &p, std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "prog");
    return p.parse(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(ArgParser, DefaultsApplyWhenUnset)
{
    ArgParser p = makeParser();
    parse(p, {});
    EXPECT_EQ(p.getString("name"), "default-name");
    EXPECT_EQ(p.getInt("count"), 10);
    EXPECT_DOUBLE_EQ(p.getDouble("ratio"), 0.5);
    EXPECT_FALSE(p.getFlag("verbose"));
    EXPECT_FALSE(p.wasSet("name"));
}

TEST(ArgParser, SpaceSeparatedValues)
{
    ArgParser p = makeParser();
    parse(p, {"--name", "abc", "--count", "42", "--ratio", "2.25"});
    EXPECT_EQ(p.getString("name"), "abc");
    EXPECT_EQ(p.getInt("count"), 42);
    EXPECT_DOUBLE_EQ(p.getDouble("ratio"), 2.25);
    EXPECT_TRUE(p.wasSet("count"));
}

TEST(ArgParser, EqualsSeparatedValues)
{
    ArgParser p = makeParser();
    parse(p, {"--name=xyz", "--count=-3"});
    EXPECT_EQ(p.getString("name"), "xyz");
    EXPECT_EQ(p.getInt("count"), -3);
}

TEST(ArgParser, FlagPresenceSetsTrue)
{
    ArgParser p = makeParser();
    parse(p, {"--verbose"});
    EXPECT_TRUE(p.getFlag("verbose"));
}

TEST(ArgParser, PositionalArgumentsReturned)
{
    ArgParser p = makeParser();
    const auto rest = parse(p, {"one", "--count", "5", "two"});
    EXPECT_EQ(rest, (std::vector<std::string>{"one", "two"}));
}

TEST(ArgParser, HelpTextMentionsEveryOption)
{
    ArgParser p = makeParser();
    const std::string help = p.helpText();
    for (const char *needle :
         {"--name", "--count", "--ratio", "--verbose", "--help",
          "default-name"}) {
        EXPECT_NE(help.find(needle), std::string::npos) << needle;
    }
    EXPECT_NE(help.find("  --count <value>             an int"),
              std::string::npos);

    // An option too long for the 30-column pad still keeps two
    // spaces before its help text.
    p.addInt("checkpoint-every-ms", 200, "interval");
    EXPECT_NE(p.helpText().find(
                  "  --checkpoint-every-ms <value>  interval"),
              std::string::npos);
}

TEST(ArgParser, TryParseRejectsUnknownOption)
{
    ArgParser p = makeParser();
    std::vector<const char *> argv = {"prog", "--bogus", "1"};
    const auto parsed = p.tryParse(3, argv.data());
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::invalidArgument);
    EXPECT_NE(parsed.status().message().find("unknown option"),
              std::string::npos);
}

TEST(ArgParser, TryParseRejectsMissingValue)
{
    ArgParser p = makeParser();
    std::vector<const char *> argv = {"prog", "--count"};
    const auto parsed = p.tryParse(2, argv.data());
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("requires a value"),
              std::string::npos);
}

TEST(ArgParser, TryGetIntRejectsNonNumeric)
{
    ArgParser p = makeParser();
    std::vector<const char *> argv = {"prog", "--count", "abc"};
    ASSERT_TRUE(p.tryParse(3, argv.data()).ok());
    const auto v = p.tryGetInt("count");
    ASSERT_FALSE(v.ok());
    EXPECT_NE(v.status().message().find("not an integer"),
              std::string::npos);
}

TEST(ArgParser, TryGetDoubleRejectsNonNumeric)
{
    ArgParser p = makeParser();
    std::vector<const char *> argv = {"prog", "--ratio", "wide"};
    ASSERT_TRUE(p.tryParse(3, argv.data()).ok());
    const auto v = p.tryGetDouble("ratio");
    ASSERT_FALSE(v.ok());
    EXPECT_NE(v.status().message().find("not a number"),
              std::string::npos);
}

TEST(ArgParser, TryParseRejectsFlagWithValue)
{
    ArgParser p = makeParser();
    std::vector<const char *> argv = {"prog", "--verbose=yes"};
    const auto parsed = p.tryParse(2, argv.data());
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("does not take a value"),
              std::string::npos);
}

TEST(ArgParser, TryParseRecordsHelpWithoutExiting)
{
    ArgParser p = makeParser();
    std::vector<const char *> argv = {"prog", "--help"};
    const auto parsed = p.tryParse(2, argv.data());
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(p.helpRequested());
}

TEST(ArgParserDeathTest, UnknownOptionExitsUsage)
{
    ArgParser p = makeParser();
    std::vector<const char *> argv = {"prog", "--bogus", "1"};
    EXPECT_EXIT(p.parse(3, argv.data()),
                ::testing::ExitedWithCode(2), "unknown option");
}

TEST(ArgParserDeathTest, NonNumericIntExitsUsage)
{
    ArgParser p = makeParser();
    std::vector<const char *> argv = {"prog", "--count", "abc"};
    p.parse(3, argv.data());
    EXPECT_EXIT(p.getInt("count"), ::testing::ExitedWithCode(2),
                "not an integer");
}

TEST(ArgParserDeathTest, UndeclaredAccessPanics)
{
    ArgParser p = makeParser();
    EXPECT_DEATH((void)p.getString("nope"), "never declared");
}

TEST(ArgParserDeathTest, WrongTypeAccessPanics)
{
    ArgParser p = makeParser();
    EXPECT_DEATH((void)p.getInt("name"), "wrong type");
}
