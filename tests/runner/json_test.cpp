// Tests for the minimal JSON value type.
#include "sim/runner/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace dyngossip {
namespace {

TEST(Json, BuildAndDumpCompact) {
  JsonValue doc = JsonValue::object();
  doc.set("name", JsonValue::str("table1"));
  doc.set("trials", JsonValue::number(2));
  doc.set("quick", JsonValue::boolean(true));
  JsonValue rows = JsonValue::array();
  rows.push(JsonValue::str("a"));
  rows.push(JsonValue::number(1.5));
  rows.push(JsonValue::null());
  doc.set("rows", std::move(rows));
  EXPECT_EQ(doc.dump(),
            "{\"name\":\"table1\",\"trials\":2,\"quick\":true,"
            "\"rows\":[\"a\",1.5,null]}");
}

TEST(Json, ParseRoundTripsDump) {
  const std::string text =
      "{\"a\":[1,2.25,-300],\"b\":{\"nested\":\"x\"},\"c\":false,\"d\":null}";
  const JsonValue doc = JsonValue::parse(text);
  EXPECT_EQ(doc.dump(), text);
  // Scientific notation is accepted and canonicalized.
  EXPECT_EQ(JsonValue::parse("[-3e2]").dump(), "[-300]");
}

TEST(Json, ObjectOrderIsPreserved) {
  const JsonValue doc = JsonValue::parse("{\"z\":1,\"a\":2,\"m\":3}");
  const auto& members = doc.members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(Json, StringEscapes) {
  JsonValue v = JsonValue::str("line\n\"quoted\"\tand \\ back");
  const std::string dumped = v.dump();
  EXPECT_EQ(dumped, "\"line\\n\\\"quoted\\\"\\tand \\\\ back\"");
  EXPECT_EQ(JsonValue::parse(dumped).as_string(), v.as_string());
}

TEST(Json, UnicodeEscapeDecodesToUtf8) {
  EXPECT_EQ(JsonValue::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(JsonValue::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");  // é
}

TEST(Json, NumberRoundTripIsExact) {
  for (const double v : {0.0, -1.5, 1.0 / 3.0, 1e-300, 12345678901234.5}) {
    const JsonValue parsed = JsonValue::parse(JsonValue::number(v).dump());
    EXPECT_EQ(parsed.as_number(), v);
  }
}

/// The shortest of %.15g / %.16g / %.17g that reads back exactly — the
/// general rendering every number had before the integer fast path.
std::string snprintf_reference(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  for (const int prec : {15, 16, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

TEST(Json, NumberRenderingMatchesTheSnprintfReference) {
  const double edge[] = {0.0,     1.0,     -1.0,        1e15 - 1,     -(1e15 - 1),
                         1e15,    -1e15,   9007199254740992.0, -0.0,  1e15 + 2,
                         0.5,     -2.25,   1.0 / 3.0,   1e-300,       12345678901234.5,
                         1e300,   -7e22,   123456789012345.6};
  for (const double v : edge) {
    EXPECT_EQ(JsonValue::number(v).dump(), snprintf_reference(v)) << v;
  }
  EXPECT_EQ(JsonValue::number(-0.0).dump(), "-0");
  EXPECT_EQ(JsonValue::number(1e15 - 1).dump(), "999999999999999");
  EXPECT_EQ(JsonValue::number(1e15).dump(), "1e+15");

  // Integers of every magnitude up to 2^60, both signs: those below 1e15
  // take the fast path, the rest the general one.
  std::mt19937_64 rng(20261020);
  for (int i = 0; i < 100000; ++i) {
    const int bits = 1 + static_cast<int>(rng() % 60);
    const auto magnitude = static_cast<double>(rng() >> (64 - bits));
    const double v = (rng() & 1) != 0 ? -magnitude : magnitude;
    ASSERT_EQ(JsonValue::number(v).dump(), snprintf_reference(v)) << v;
  }
}

TEST(Json, FindOnObjects) {
  const JsonValue doc = JsonValue::parse("{\"a\":1,\"b\":\"x\"}");
  ASSERT_NE(doc.find("b"), nullptr);
  EXPECT_EQ(doc.find("b")->as_string(), "x");
  EXPECT_EQ(doc.find("zz"), nullptr);
  EXPECT_EQ(JsonValue::number(1).find("a"), nullptr);
}

TEST(Json, MalformedInputThrows) {
  for (const char* bad : {"", "{", "[1,", "{\"a\"}", "tru", "\"unterminated",
                          "{\"a\":1} trailing", "[1 2]", "nan"}) {
    EXPECT_THROW((void)JsonValue::parse(bad), std::runtime_error) << bad;
  }
}

TEST(Json, PrettyDumpParsesBack) {
  JsonValue doc = JsonValue::object();
  doc.set("xs", JsonValue::array());
  doc.set("s", JsonValue::str("v"));
  const JsonValue reparsed = JsonValue::parse(doc.dump(2));
  EXPECT_EQ(reparsed.dump(), doc.dump());
}

}  // namespace
}  // namespace dyngossip
