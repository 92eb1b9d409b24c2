#include "support/str.hh"

#include <gtest/gtest.h>

namespace ximd {
namespace {

TEST(Str, TrimRemovesSurroundingWhitespace)
{
    EXPECT_EQ(trim("  abc \t"), "abc");
    EXPECT_EQ(trim("abc"), "abc");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim(" a b "), "a b");
}

TEST(Str, SplitKeepsEmptyFields)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(Str, SplitSingleField)
{
    auto parts = split("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(Str, SplitTrailingSeparatorYieldsEmpty)
{
    auto parts = split("a,", ',');
    ASSERT_EQ(parts.size(), 2u);
    EXPECT_EQ(parts[1], "");
}

TEST(Str, ToLower)
{
    EXPECT_EQ(toLower("IAdd R3"), "iadd r3");
}

TEST(Str, Hex2Formatting)
{
    EXPECT_EQ(hex2(0), "00");
    EXPECT_EQ(hex2(10), "0a");
    EXPECT_EQ(hex2(255), "ff");
    EXPECT_EQ(hex2(256), "100");
}

TEST(Str, Padding)
{
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padLeft("abcdef", 4), "abcdef");
}

TEST(Str, FixedDigits)
{
    EXPECT_EQ(fixed(3.14159, 2), "3.14");
    EXPECT_EQ(fixed(2.0, 0), "2");
}

} // namespace
} // namespace ximd
