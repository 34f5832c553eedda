#include "util/ini.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace adaptviz {
namespace {

TEST(Ini, ParsesSectionsAndValues) {
  const auto doc = IniDocument::parse(
      "# comment\n"
      "[application]\n"
      "processors = 48\n"
      "ratio = 2.5\n"
      "name = fire cluster\n"
      "; another comment\n"
      "[other]\n"
      "flag = true\n");
  EXPECT_EQ(doc.get_int("application", "processors"), 48);
  EXPECT_EQ(doc.get_double("application", "ratio"), 2.5);
  EXPECT_EQ(doc.get("application", "name"), "fire cluster");
  EXPECT_EQ(doc.get_bool("other", "flag"), true);
}

TEST(Ini, MissingKeysReturnNullopt) {
  const auto doc = IniDocument::parse("[a]\nk = 1\n");
  EXPECT_FALSE(doc.get("a", "missing").has_value());
  EXPECT_FALSE(doc.get("nosection", "k").has_value());
}

TEST(Ini, TypedGettersThrowOnMalformed) {
  const auto doc = IniDocument::parse("[a]\nk = notanumber\nb = maybe\n");
  EXPECT_THROW((void)doc.get_int("a", "k"), std::runtime_error);
  EXPECT_THROW((void)doc.get_double("a", "k"), std::runtime_error);
  EXPECT_THROW((void)doc.get_bool("a", "b"), std::runtime_error);
}

TEST(Ini, ParseErrorsCarryLineNumbers) {
  try {
    (void)IniDocument::parse("[a]\nvalid = 1\nnot-a-kv-line\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
  EXPECT_THROW((void)IniDocument::parse("[unclosed\n"), std::runtime_error);
  EXPECT_THROW((void)IniDocument::parse("= value\n"), std::runtime_error);
}

TEST(Ini, RejectsDuplicateKeys) {
  const char* duplicated[] = {
      "[a]\nk = 1\nk = 2\n",
      "[a]\nk = 1\n[b]\nx = 1\n[a]\nk = 2\n",  // across a repeated header
  };
  for (const char* text : duplicated) {
    try {
      (void)IniDocument::parse(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'k'"), std::string::npos) << what;
      EXPECT_NE(what.find("line"), std::string::npos) << what;
    }
  }
  // One key in two sections, and a repeated header with new keys, are fine.
  const auto doc = IniDocument::parse("[a]\nk = 1\n[b]\nk = 2\n[a]\nj = 3\n");
  EXPECT_EQ(doc.get("a", "k"), "1");
  EXPECT_EQ(doc.get("b", "k"), "2");
  EXPECT_EQ(doc.get("a", "j"), "3");
}

TEST(Ini, RoundTripsThroughStr) {
  IniDocument doc;
  doc.set("s", "key", "value");
  doc.set_int("s", "n", -42);
  doc.set_double("s", "d", 0.125);
  doc.set_bool("s", "b", true);
  const IniDocument again = IniDocument::parse(doc.str());
  EXPECT_EQ(doc, again);
  EXPECT_EQ(again.get_int("s", "n"), -42);
  EXPECT_EQ(again.get_double("s", "d"), 0.125);
}

TEST(Ini, PreservesExactDoubles) {
  IniDocument doc;
  doc.set_double("s", "pi", 3.14159265358979311600);
  const auto again = IniDocument::parse(doc.str());
  EXPECT_DOUBLE_EQ(*again.get_double("s", "pi"), 3.14159265358979311600);
}

TEST(Ini, SaveAndLoadFile) {
  const std::string path = testing::TempDir() + "/adaptviz_ini_test.ini";
  IniDocument doc;
  doc.set("application", "key", "value with spaces");
  doc.save(path);
  const auto loaded = IniDocument::load(path);
  EXPECT_EQ(loaded.get("application", "key"), "value with spaces");
  std::remove(path.c_str());
  EXPECT_THROW((void)IniDocument::load(path), std::runtime_error);
}

TEST(Ini, WhitespaceIsTrimmed) {
  const auto doc = IniDocument::parse("  [ sec ]  \n  key  =  value  \n");
  EXPECT_EQ(doc.get("sec", "key"), "value");
}

TEST(Ini, EmptySectionAllowed) {
  const auto doc = IniDocument::parse("[empty]\n");
  EXPECT_TRUE(doc.has_section("empty"));
  EXPECT_FALSE(doc.has_section("other"));
}

}  // namespace
}  // namespace adaptviz
