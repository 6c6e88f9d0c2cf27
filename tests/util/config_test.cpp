#include "util/config.h"

#include <gtest/gtest.h>

namespace goofi {
namespace {

constexpr const char* kSample = R"(
# a comment
top_key = top value

[campaign]
name = regs
experiments = 500
ratio = 0.25
enabled = yes
location[] = cpu.regs.*
location[] = cpu.pc

[campaign]
name = caches

; semicolon comment
[env]
gain = 8
)";

TEST(ConfigTest, ParsesSectionsInOrder) {
  auto config = Config::Parse(kSample);
  ASSERT_TRUE(config.ok());
  // Implicit top section + campaign + campaign + env.
  ASSERT_EQ(config->sections().size(), 4u);
  EXPECT_EQ(config->sections()[0].name(), "");
  EXPECT_EQ(config->sections()[1].name(), "campaign");
  EXPECT_EQ(config->sections()[3].name(), "env");
}

TEST(ConfigTest, TopLevelKeys) {
  auto config = Config::Parse(kSample);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->sections()[0].GetStringOr("top_key", ""), "top value");
}

TEST(ConfigTest, FindSectionReturnsFirst) {
  auto config = Config::Parse(kSample);
  ASSERT_TRUE(config.ok());
  const ConfigSection* campaign = config->FindSection("campaign");
  ASSERT_NE(campaign, nullptr);
  EXPECT_EQ(campaign->GetStringOr("name", ""), "regs");
  EXPECT_EQ(config->FindSections("campaign").size(), 2u);
  EXPECT_EQ(config->FindSection("missing"), nullptr);
}

TEST(ConfigTest, TypedGetters) {
  auto config = Config::Parse(kSample);
  ASSERT_TRUE(config.ok());
  const ConfigSection* campaign = config->FindSection("campaign");
  EXPECT_EQ(*campaign->GetInt("experiments"), 500);
  EXPECT_DOUBLE_EQ(*campaign->GetDouble("ratio"), 0.25);
  EXPECT_TRUE(*campaign->GetBool("enabled"));
  EXPECT_EQ(campaign->GetInt("missing").status().code(),
            ErrorCode::kNotFound);
  const auto bad = campaign->GetInt("name");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kParseError);
  const auto missing = campaign->GetInt("nope");
  EXPECT_EQ(missing.status().code(), ErrorCode::kNotFound);
}

TEST(ConfigTest, ListKeys) {
  auto config = Config::Parse(kSample);
  ASSERT_TRUE(config.ok());
  const ConfigSection* campaign = config->FindSection("campaign");
  EXPECT_EQ(campaign->GetList("location"),
            (std::vector<std::string>{"cpu.regs.*", "cpu.pc"}));
  EXPECT_TRUE(campaign->GetList("nothing").empty());
}

TEST(ConfigTest, BooleanSpellings) {
  auto config = Config::Parse(
      "a = true\nb = FALSE\nc = 1\nd = off\ne = maybe\n");
  ASSERT_TRUE(config.ok());
  const ConfigSection& top = config->sections()[0];
  EXPECT_TRUE(*top.GetBool("a"));
  EXPECT_FALSE(*top.GetBool("b"));
  EXPECT_TRUE(*top.GetBool("c"));
  EXPECT_FALSE(*top.GetBool("d"));
  EXPECT_FALSE(top.GetBool("e").ok());
}

TEST(ConfigTest, ParseErrorsCarryLineNumbers) {
  const auto no_eq = Config::Parse("just some words\n");
  ASSERT_FALSE(no_eq.ok());
  EXPECT_NE(no_eq.status().message().find("line 1"), std::string::npos);

  const auto bad_section = Config::Parse("\n[unclosed\n");
  ASSERT_FALSE(bad_section.ok());
  EXPECT_NE(bad_section.status().message().find("line 2"), std::string::npos);

  EXPECT_FALSE(Config::Parse("= value\n").ok());
}

TEST(ConfigTest, SerializeRoundTrip) {
  auto config = Config::Parse(kSample);
  ASSERT_TRUE(config.ok());
  auto reparsed = Config::Parse(config->Serialize());
  ASSERT_TRUE(reparsed.ok());
  const ConfigSection* campaign = reparsed->FindSection("campaign");
  ASSERT_NE(campaign, nullptr);
  EXPECT_EQ(campaign->GetList("location").size(), 2u);
  EXPECT_EQ(*reparsed->FindSection("env")->GetInt("gain"), 8);
}

TEST(ConfigTest, LoadFileReportsMissing) {
  const auto missing = Config::LoadFile("/nonexistent/path.ini");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), ErrorCode::kIo);
}

TEST(ConfigTest, ScalarGetUsesLastOccurrence) {
  auto config = Config::Parse("k = first\nk = second\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->sections()[0].GetStringOr("k", ""), "second");
  EXPECT_EQ(config->sections()[0].GetList("k").size(), 2u);
}

}  // namespace
}  // namespace goofi
