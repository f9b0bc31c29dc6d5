#include "common/json.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace adahealth {
namespace common {
namespace {

TEST(JsonTest, DefaultIsNull) {
  Json value;
  EXPECT_EQ(value.type(), Json::Type::kNull);
  EXPECT_EQ(value.Dump(), "null");
}

TEST(JsonTest, ScalarConstruction) {
  EXPECT_TRUE(Json(true).AsBool());
  EXPECT_EQ(Json(int64_t{42}).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Json(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Json("text").AsString(), "text");
}

TEST(JsonTest, IntIsAlsoNumericDouble) {
  Json value(int64_t{7});
  EXPECT_TRUE(value.is_number());
  EXPECT_DOUBLE_EQ(value.AsDouble(), 7.0);
}

TEST(JsonParseTest, Scalars) {
  EXPECT_EQ(Json::Parse("null")->type(), Json::Type::kNull);
  EXPECT_TRUE(Json::Parse("true")->AsBool());
  EXPECT_FALSE(Json::Parse("false")->AsBool());
  EXPECT_EQ(Json::Parse("-17")->AsInt(), -17);
  EXPECT_DOUBLE_EQ(Json::Parse("3.25")->AsDouble(), 3.25);
  EXPECT_DOUBLE_EQ(Json::Parse("1e3")->AsDouble(), 1000.0);
  EXPECT_EQ(Json::Parse("\"hi\"")->AsString(), "hi");
}

TEST(JsonParseTest, IntegerVsDoubleTypes) {
  EXPECT_TRUE(Json::Parse("5")->is_int());
  EXPECT_TRUE(Json::Parse("5.0")->is_double());
  EXPECT_TRUE(Json::Parse("5e0")->is_double());
}

TEST(JsonParseTest, HugeIntegerFallsBackToDouble) {
  auto value = Json::Parse("123456789012345678901234567890");
  ASSERT_TRUE(value.ok());
  EXPECT_TRUE(value->is_double());
}

TEST(JsonParseTest, Arrays) {
  auto value = Json::Parse("[1, 2, [3]]");
  ASSERT_TRUE(value.ok());
  ASSERT_TRUE(value->is_array());
  EXPECT_EQ(value->AsArray().size(), 3u);
  EXPECT_EQ(value->AsArray()[2].AsArray()[0].AsInt(), 3);
}

TEST(JsonParseTest, Objects) {
  auto value = Json::Parse(R"({"a": 1, "b": {"c": true}})");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->Find("a")->AsInt(), 1);
  EXPECT_TRUE(value->Find("b")->Find("c")->AsBool());
  EXPECT_EQ(value->Find("missing"), nullptr);
}

TEST(JsonParseTest, StringEscapes) {
  auto value = Json::Parse(R"("a\"b\\c\nd\tA")");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->AsString(), "a\"b\\c\nd\tA");
}

TEST(JsonParseTest, UnicodeEscapeMultibyte) {
  auto value = Json::Parse("\"\\u00e9\"");  // é as a \u escape.
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->AsString(), "\xc3\xa9");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("nul").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("{'a': 1}").ok());
}

TEST(JsonParseTest, RejectsControlCharacterInString) {
  std::string bad = "\"a\x01b\"";
  EXPECT_FALSE(Json::Parse(bad).ok());
}

TEST(JsonDumpTest, CompactRoundTrip) {
  const char* text = R"({"arr":[1,2.5,"x"],"flag":true,"nil":null})";
  auto value = Json::Parse(text);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->Dump(), text);
}

TEST(JsonDumpTest, EscapesSpecials) {
  Json value(std::string("tab\there\"quote\""));
  EXPECT_EQ(value.Dump(), R"("tab\there\"quote\"")");
}

TEST(JsonDumpTest, ObjectKeysSorted) {
  Json::Object object;
  object["zebra"] = Json(1);
  object["apple"] = Json(2);
  EXPECT_EQ(Json(std::move(object)).Dump(), R"({"apple":2,"zebra":1})");
}

TEST(JsonDumpTest, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).Dump(), "null");
  EXPECT_EQ(Json(std::nan("")).Dump(), "null");
}

TEST(JsonDumpTest, PrettyIsReparseable) {
  auto value = Json::Parse(R"({"a":[1,2],"b":{"c":"d"}})");
  ASSERT_TRUE(value.ok());
  auto reparsed = Json::Parse(value->Pretty());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value(), value.value());
}

TEST(JsonEqualityTest, TypeSensitive) {
  EXPECT_EQ(Json(int64_t{1}), Json(int64_t{1}));
  EXPECT_FALSE(Json(int64_t{1}) == Json(1.0));  // Int vs double.
  EXPECT_EQ(Json(Json::Array{Json(1), Json("x")}),
            Json(Json::Array{Json(1), Json("x")}));
}

TEST(JsonParseTest, DeepNestingRejected) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(JsonParseTest, WhitespaceTolerant) {
  auto value = Json::Parse("  \n\t{ \"a\" :\t1 }  ");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->Find("a")->AsInt(), 1);
}

}  // namespace
}  // namespace common
}  // namespace adahealth
