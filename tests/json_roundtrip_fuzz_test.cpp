// Round-trip coverage for the common JSON layer (common/json.h): the
// writer/parser pair is the wire format of serve mode and of every
// --format=json surface, so emit -> parse -> re-emit must be
// byte-identical across the whole value space — uint64-range counters,
// control characters, non-ASCII text, astral-plane escapes, deep
// nesting. Also pins the failure modes: integer overflow and unpaired
// surrogates are parse errors, writer misuse is a hard error.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>

#include "common/json.h"

namespace rapar {
namespace {

// --- exact integer round-trips ----------------------------------------------

TEST(JsonNumbers, Uint64RangeRoundTrips) {
  const std::uint64_t values[] = {
      0,
      1,
      static_cast<std::uint64_t>(std::numeric_limits<long long>::max()),
      static_cast<std::uint64_t>(std::numeric_limits<long long>::max()) + 1,
      std::numeric_limits<std::uint64_t>::max(),
  };
  for (const std::uint64_t v : values) {
    JsonWriter w;
    w.UInt(v);
    auto parsed = ParseJson(w.str());
    ASSERT_TRUE(parsed.ok()) << v << ": " << parsed.error();
    EXPECT_TRUE(parsed.value().number_is_uint) << v;
    EXPECT_EQ(parsed.value().uinteger, v);
    // Tokens above INT64_MAX must not pretend to fit int64.
    const bool fits_int64 =
        v <= static_cast<std::uint64_t>(std::numeric_limits<long long>::max());
    EXPECT_EQ(parsed.value().number_is_int, fits_int64) << v;
    JsonWriter again;
    WriteJsonValue(parsed.value(), &again);
    EXPECT_EQ(again.str(), w.str());
  }
}

TEST(JsonNumbers, Int64MinRoundTrips) {
  const long long v = std::numeric_limits<long long>::min();
  JsonWriter w;
  w.Int(v);
  auto parsed = ParseJson(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_TRUE(parsed.value().number_is_int);
  EXPECT_FALSE(parsed.value().number_is_uint);
  EXPECT_EQ(parsed.value().integer, v);
  JsonWriter again;
  WriteJsonValue(parsed.value(), &again);
  EXPECT_EQ(again.str(), w.str());
}

TEST(JsonNumbers, OutOfRangeIntegersAreParseErrors) {
  // One past UINT64_MAX and one below INT64_MIN: previously strtoll
  // saturated these silently (no ERANGE check); now they must fail.
  EXPECT_FALSE(ParseJson("18446744073709551616").ok());
  EXPECT_FALSE(ParseJson("-9223372036854775809").ok());
  // A plausible telemetry-counter overflow artifact, rejected not capped.
  auto r = ParseJson("{\"counter\": 99999999999999999999}");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("out of range"), std::string::npos) << r.error();
}

TEST(JsonNumbers, FractionalAndExponentStayDouble) {
  auto r = ParseJson("[0.5, 1e3, -2.25]");
  ASSERT_TRUE(r.ok()) << r.error();
  for (const JsonValue& v : r.value().items) {
    EXPECT_FALSE(v.number_is_int);
    EXPECT_FALSE(v.number_is_uint);
  }
  EXPECT_DOUBLE_EQ(r.value().items[1].number, 1000.0);
}

// --- strings: escapes, control chars, surrogates ----------------------------

TEST(JsonStrings, ControlCharsRoundTrip) {
  std::string s;
  for (int c = 0; c < 0x20; ++c) s.push_back(static_cast<char>(c));
  s += "\"\\/ plain \xC3\xA9\xE6\x97\xA5";
  // The exact bytes: newline, carriage return and tab by their short
  // escapes, every other control character as a u-escape with four
  // lowercase hex digits, '"' and the backslash backslashed, '/' and
  // UTF-8 verbatim.
  const std::string escaped =
      "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
      "\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f"
      "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
      "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
      "\\\"\\\\/ plain \xC3\xA9\xE6\x97\xA5";
  JsonWriter w;
  w.String(s);
  EXPECT_EQ(w.str(), "\"" + escaped + "\"");
  auto parsed = ParseJson(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().string, s);

  JsonWriter k;
  k.BeginObject().Key(s).Int(1).EndObject();
  EXPECT_EQ(k.str(), "{\"" + escaped + "\":1}");
  auto object = ParseJson(k.str());
  ASSERT_TRUE(object.ok()) << object.error();
  ASSERT_EQ(object.value().members.size(), 1u);
  EXPECT_EQ(object.value().members[0].first, s);
}

TEST(JsonStrings, NonAsciiUtf8PassesThrough) {
  const std::string s = "héllo wörld — ≤ ∀x. 日本語";
  JsonWriter w;
  w.String(s);
  auto parsed = ParseJson(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().string, s);
}

TEST(JsonStrings, SurrogatePairDecodesToFourByteUtf8) {
  // U+1F600 GRINNING FACE as an escaped surrogate pair.
  auto r = ParseJson("\"\\uD83D\\uDE00\"");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().string, "\xF0\x9F\x98\x80");
  // Boundary pairs: U+10000 and U+10FFFF.
  auto lo = ParseJson("\"\\uD800\\uDC00\"");
  ASSERT_TRUE(lo.ok()) << lo.error();
  EXPECT_EQ(lo.value().string, "\xF0\x90\x80\x80");
  auto hi = ParseJson("\"\\uDBFF\\uDFFF\"");
  ASSERT_TRUE(hi.ok()) << hi.error();
  EXPECT_EQ(hi.value().string, "\xF4\x8F\xBF\xBF");
}

TEST(JsonStrings, UnpairedSurrogatesAreParseErrors) {
  // Previously these emitted a 3-byte encoding of the surrogate code
  // point itself — ill-formed UTF-8 that downstream consumers reject.
  const char* bad[] = {
      "\"\\uD83D\"",          // lone high surrogate at end of string
      "\"\\uD83D rest\"",     // high surrogate followed by plain text
      "\"\\uD83D\\n\"",       // high surrogate followed by another escape
      "\"\\uD83D\\u0041\"",   // high surrogate + non-surrogate escape
      "\"\\uDE00\"",          // lone low surrogate
      "\"x\\uDC00y\"",        // low surrogate mid-string
  };
  for (const char* text : bad) {
    auto r = ParseJson(text);
    EXPECT_FALSE(r.ok()) << text;
    EXPECT_NE(r.error().find("surrogate"), std::string::npos)
        << text << ": " << r.error();
  }
}

TEST(JsonStrings, BasicPlaneEscapeStillWorks) {
  auto r = ParseJson("\"\\u00e9\\u65e5\"");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().string, "é日");
}

// --- writer misuse is a hard error ------------------------------------------
//
// assert(false) in debug builds, std::logic_error under NDEBUG; both
// paths kill the process before an unbalanced document escapes, and both
// print the "JsonWriter misuse" marker. The throwing path is unit-tested
// with EXPECT_THROW in json_release_guard_test (compiled with NDEBUG).

using JsonWriterMisuseDeathTest = ::testing::Test;

TEST(JsonWriterMisuseDeathTest, EndObjectOnEmptyStack) {
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.EndObject();
      },
      "JsonWriter misuse");
}

TEST(JsonWriterMisuseDeathTest, EndArrayClosingAnObject) {
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.BeginObject();
        w.EndArray();
      },
      "JsonWriter misuse");
}

TEST(JsonWriterMisuseDeathTest, DoubleKey) {
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.BeginObject();
        w.Key("a");
        w.Key("b");
      },
      "JsonWriter misuse");
}

TEST(JsonWriterMisuseDeathTest, KeyOutsideObject) {
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.BeginArray();
        w.Key("a");
      },
      "JsonWriter misuse");
}

TEST(JsonWriterMisuseDeathTest, ValueInObjectWithoutKey) {
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.BeginObject();
        w.Int(1);
      },
      "JsonWriter misuse");
}

// --- depth limit -------------------------------------------------------------

TEST(JsonDepth, NestingBoundary) {
  // The parser admits 65 levels (root at depth 0, children at +1, limit
  // depth > 64) and rejects 66. The writer has no depth limit — pin the
  // exact boundary so a refactor cannot silently move it.
  const auto nested = [](int n) {
    std::string s(static_cast<std::size_t>(n), '[');
    s.append(static_cast<std::size_t>(n), ']');
    return s;
  };
  EXPECT_TRUE(ParseJson(nested(65)).ok());
  auto deep = ParseJson(nested(66));
  EXPECT_FALSE(deep.ok());
  EXPECT_NE(deep.error().find("nesting too deep"), std::string::npos);
}

// --- randomized round-trip ---------------------------------------------------

// Grows a random JsonValue tree. Strings draw from a pool that covers
// escapes, control chars, non-ASCII and astral-plane characters; numbers
// cover the full uint64/int64 token space.
JsonValue RandomValue(std::mt19937_64& rng, int depth) {
  JsonValue v;
  std::uniform_int_distribution<int> kind_dist(0, depth >= 6 ? 3 : 5);
  switch (kind_dist(rng)) {
    case 0:
      v.kind = JsonValue::Kind::kNull;
      break;
    case 1:
      v.kind = JsonValue::Kind::kBool;
      v.boolean = (rng() & 1) != 0;
      break;
    case 2: {
      v.kind = JsonValue::Kind::kNumber;
      const std::uint64_t raw = rng();
      if ((rng() & 1) != 0) {
        v.number_is_uint = true;
        v.uinteger = raw;
        v.number = static_cast<double>(raw);
        if (raw <= static_cast<std::uint64_t>(
                       std::numeric_limits<long long>::max())) {
          v.number_is_int = true;
          v.integer = static_cast<long long>(raw);
        }
      } else {
        v.number_is_int = true;
        v.integer = static_cast<long long>(raw);
        v.number = static_cast<double>(v.integer);
        if (v.integer >= 0) {
          v.number_is_uint = true;
          v.uinteger = static_cast<std::uint64_t>(v.integer);
        }
      }
      break;
    }
    case 3: {
      v.kind = JsonValue::Kind::kString;
      static const char* pool[] = {"",     "plain", "\"quoted\"", "a\\b",
                                   "\n\t", "\x01",  "日本語",     "😀🎉",
                                   "é",    "x\ry"};
      std::uniform_int_distribution<int> len_dist(0, 4);
      std::uniform_int_distribution<std::size_t> pick(
          0, sizeof(pool) / sizeof(pool[0]) - 1);
      const int n = len_dist(rng);
      for (int i = 0; i < n; ++i) v.string += pool[pick(rng)];
      break;
    }
    case 4: {
      v.kind = JsonValue::Kind::kArray;
      std::uniform_int_distribution<int> len_dist(0, 4);
      const int n = len_dist(rng);
      for (int i = 0; i < n; ++i) {
        v.items.push_back(RandomValue(rng, depth + 1));
      }
      break;
    }
    default: {
      v.kind = JsonValue::Kind::kObject;
      std::uniform_int_distribution<int> len_dist(0, 4);
      const int n = len_dist(rng);
      for (int i = 0; i < n; ++i) {
        v.members.emplace_back("k" + std::to_string(i),
                               RandomValue(rng, depth + 1));
      }
      break;
    }
  }
  return v;
}

TEST(JsonRoundTripFuzz, EmitParseReemitIsByteIdentical) {
  std::mt19937_64 rng(20260808);
  for (int iter = 0; iter < 500; ++iter) {
    const JsonValue tree = RandomValue(rng, 0);
    const bool pretty = (iter & 1) != 0;
    JsonWriter w(pretty);
    WriteJsonValue(tree, &w);
    const std::string first = w.TakeString();
    auto parsed = ParseJson(first);
    ASSERT_TRUE(parsed.ok()) << "iter " << iter << ": " << parsed.error()
                             << "\n" << first;
    JsonWriter again(pretty);
    WriteJsonValue(parsed.value(), &again);
    EXPECT_EQ(again.str(), first) << "iter " << iter;
  }
}

}  // namespace
}  // namespace rapar
