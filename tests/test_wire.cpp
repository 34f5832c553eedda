// The shared wire codec: percent codec, hexfloat + strict number parsing,
// JSON quoting and the minimal JSON reader.
#include "util/wire.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace adaptviz::wire {
namespace {

TEST(WirePercent, EveryByteRoundTripsAndSeparatorsAreEncoded) {
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  EXPECT_EQ(percent_decode(percent_encode(all)), all);
  // View keys join fields with '/', manifest file stamps with ':'.
  EXPECT_EQ(percent_encode("a:b/c d~"), "a%3Ab%2Fc%20d~");
  EXPECT_EQ(percent_decode("disk:full/now"), "disk:full/now");
  for (const char* bad : {"%", "ab%4", "%G0"}) {
    EXPECT_THROW(percent_decode(bad), std::runtime_error) << bad;
  }
}

TEST(WireNumbers, HexfloatRoundTripsAndParsingIsStrict) {
  for (const double v : {0.1, -1.0 / 3.0, 4.9406564584124654e-324, -0.0}) {
    const auto back = parse_double(hexfloat(v));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(std::signbit(*back), std::signbit(v));
    EXPECT_EQ(*back, v);
  }
  EXPECT_EQ(parse_double("-1e3").value(), -1000.0);
  EXPECT_TRUE(std::isnan(parse_double("nan").value()));
  for (const char* bad : {"", " 1", "1 ", "50GB", "0.1x", "fast", "1e400"}) {
    EXPECT_FALSE(parse_double(bad).has_value()) << bad;
  }
  EXPECT_EQ(parse_int("9223372036854775807").value(),
            std::numeric_limits<std::int64_t>::max());
  for (const char* bad : {"", " 1", "1.5", "3x", "9223372036854775808"}) {
    EXPECT_FALSE(parse_int(bad).has_value()) << bad;
  }
}

TEST(WireJson, QuoteAndReadRoundTrip) {
  const std::string s = "a \"b\"\\/\n\t\r\x01\xC3\xA9";
  EXPECT_EQ(json_quote(s), "\"a \\\"b\\\"\\\\/\\n\\t\\r\\u0001\xC3\xA9\"");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  const JsonValue v = parse_json("{\"s\": " + json_quote(s) +
                                 ", \"a\": [-2.5e1, true, null, {}]}");
  EXPECT_EQ(v.find("s")->string, s);
  const JsonValue* a = v.find("a");
  ASSERT_EQ(a->array.size(), 4u);
  EXPECT_EQ(a->array[0].number, -25.0);
  EXPECT_TRUE(a->array[1].boolean);
  EXPECT_EQ(a->array[2].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(a->array[3].kind, JsonValue::Kind::kObject);
  EXPECT_EQ(v.find("missing"), nullptr);
  for (const char* bad :
       {"", "{", "{\"a\": 1,}", "{\"a\" 1}", "[1 2]", "\"open", "{} x",
        "{\"a\": 1, \"a\": 2}", "\"\\u0100\"", "\"\\q\"", "1.2.3"}) {
    EXPECT_THROW(parse_json(bad), std::runtime_error) << bad;
  }
}

}  // namespace
}  // namespace adaptviz::wire
