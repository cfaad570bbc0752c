/**
 * Byte-level tests for the JSON writer. Its output is part of every
 * contract that hashes or compares bytes (report digests, job-spec keys,
 * serve cache hits), so each token format is checked against a simple
 * reference: doubles against printf's "%.17g", strings against a
 * byte-at-a-time escaper. Every document must also parse back to the
 * values written. Inputs are seeded, so a failure reproduces.
 */

#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "obs/json_parse.hpp"

namespace stackscope::obs {
namespace {

std::string
printfG17(double x)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    return buf;
}

/** The escaping rule, one byte at a time, as a plain reference. */
std::string
referenceEscape(std::string_view text)
{
    std::string out;
    for (const char ch : text) {
        const auto c = static_cast<unsigned char>(ch);
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

/** Doubles whose formatting has an edge: signs, subnormals, limits,
 *  where "%.17g" switches to exponent form, and their neighbours. */
std::vector<double>
edgeDoubles()
{
    constexpr double kMax = std::numeric_limits<double>::max();
    std::vector<double> xs = {
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        0.5,
        1.5,
        2.0 / 3.0,
        123456789.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::nextafter(DBL_MIN, 0.0),  // largest subnormal
        DBL_MIN,
        -DBL_MIN,
        DBL_EPSILON,
        kMax,
        -kMax,
        std::nextafter(kMax, 0.0),
        9007199254740992.0,  // 2^53
        9007199254740993.0,
        1e-5,
        1e-4,
        1e-3,
    };
    for (int e = -310; e <= 308; ++e) {
        const double p = std::pow(10.0, e);
        for (const double x : {p, std::nextafter(p, 0.0),
                               std::nextafter(p, kMax)}) {
            xs.push_back(x);
            xs.push_back(-x);
        }
    }
    // %g's switch to exponent form sits at 1e17 for 17 digits; the
    // 1e16..1e22 range is where exactly representable integers end.
    for (double p = 1e15; p <= 1e23; p *= 10.0) {
        for (int k = -4; k <= 4; ++k)
            xs.push_back(p + k);
    }
    return xs;
}

std::string
written(double x)
{
    JsonWriter w;
    w.value(x);
    return w.take();
}

TEST(JsonWriterBytes, DoublesMatchPrintfOnEdgeCases)
{
    for (const double x : edgeDoubles()) {
        ASSERT_EQ(written(x), printfG17(x))
            << "bits " << std::bit_cast<std::uint64_t>(x);
    }
}

TEST(JsonWriterBytes, DoublesMatchPrintfOnRandomValues)
{
    std::mt19937_64 rng(20180402);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::size_t mismatches = 0;
    std::string first_mismatch;
    const auto check = [&](double x) {
        const std::string got = written(x);
        const std::string want = printfG17(x);
        if (got != want && mismatches++ == 0)
            first_mismatch = got + " != " + want;
    };
    std::size_t bit_patterns = 0;
    while (bit_patterns < 1'000'000) {
        const double x = std::bit_cast<double>(rng());
        if (!std::isfinite(x))
            continue;
        check(x);
        ++bit_patterns;
    }
    for (int i = 0; i < 200'000; ++i) {
        // Values the reports carry: shares, CPIs, rates, and dyadic
        // fractions that print exactly.
        check(unit(rng));
        check(unit(rng) * 1e6);
        check(std::ldexp(static_cast<double>(rng() >> 40),
                         -static_cast<int>(rng() % 40)));
    }
    EXPECT_EQ(mismatches, 0u) << "first: " << first_mismatch;
}

TEST(JsonWriterBytes, IntegersMatchDecimal)
{
    JsonWriter w;
    w.beginArray()
        .value(std::uint64_t{0})
        .value(std::numeric_limits<std::uint64_t>::max())
        .value(std::numeric_limits<std::int64_t>::min())
        .value(-1)
        .value(4294967295u)
        .endArray();
    EXPECT_EQ(w.str(), "[0,18446744073709551615,-9223372036854775808,-1,"
                       "4294967295]");
}

TEST(JsonWriterBytes, StringsEscapeLikeTheReference)
{
    std::vector<std::string> inputs = {
        "",
        "plain",
        "quote\"d",
        "back\\slash",
        "nl\ncr\rtab\t",
        "\x7f del",
        "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x93\x88",  // 2-, 3-, 4-byte UTF-8
        std::string("nul\0byte", 8),
        "\"\"\\\\\n\n",
    };
    for (int b = 0; b < 256; ++b)
        inputs.push_back(std::string(1, static_cast<char>(b)));
    std::mt19937_64 rng(7);
    for (int i = 0; i < 2'000; ++i) {
        std::string s(rng() % 40, '\0');
        for (char &c : s)
            c = static_cast<char>(rng() % 0x90);  // mostly ASCII + controls
        inputs.push_back(s);
    }
    for (const std::string &s : inputs) {
        JsonWriter w;
        w.beginObject().key(s).value(s).endObject();
        const std::string esc = referenceEscape(s);
        ASSERT_EQ(w.str(), "{\"" + esc + "\":\"" + esc + "\"}");
        // Bytes >= 0x80 here are not always valid UTF-8; the parser
        // copies them verbatim, so the round trip is still exact.
        const JsonValue doc = parseJson(w.str());
        ASSERT_EQ(doc.object.size(), 1u);
        EXPECT_EQ(doc.object[0].first, s);
        EXPECT_EQ(doc.object[0].second.string, s);
    }
}

TEST(JsonWriterBytes, DocumentsRoundTripThroughTheParser)
{
    std::mt19937_64 rng(1);
    const std::vector<double> edges = edgeDoubles();
    JsonWriter w;
    w.beginObject().key("doubles").beginArray();
    std::vector<double> doubles;
    for (std::size_t i = 0; i < 20'000; ++i) {
        const double x = i < edges.size() ? edges[i]
                                          : std::bit_cast<double>(rng());
        if (!std::isfinite(x))
            continue;
        doubles.push_back(x);
        w.value(x);
    }
    w.endArray()
        .key("ints").beginArray().value(-7).value(42u).endArray()
        .key("empty_object").beginObject().endObject()
        .key("empty_array").beginArray().endArray()
        .key("nested").beginArray()
        .beginObject().key("a").null().key("b").value(true).endObject()
        .beginArray().value(false).value("s").endArray()
        .endArray()
        .key("raw").raw("{\"x\":[1,2]}")
        .endObject();

    const JsonValue doc = parseJson(w.str());
    const std::vector<JsonValue> &got = doc.at("doubles").array;
    ASSERT_EQ(got.size(), doubles.size());
    for (std::size_t i = 0; i < doubles.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].number),
                  std::bit_cast<std::uint64_t>(doubles[i]))
            << printfG17(doubles[i]);
    }
    EXPECT_EQ(doc.at("ints").array.at(0).number, -7.0);
    EXPECT_EQ(doc.at("ints").array.at(1).number, 42.0);
    EXPECT_TRUE(doc.at("empty_object").isObject());
    EXPECT_TRUE(doc.at("empty_array").array.empty());
    EXPECT_TRUE(doc.at("nested").array.at(0).at("a").isNull());
    EXPECT_TRUE(doc.at("nested").array.at(0).at("b").boolean);
    EXPECT_EQ(doc.at("nested").array.at(1).array.at(1).string, "s");
    EXPECT_EQ(doc.at("raw").at("x").array.size(), 2u);
}

TEST(JsonWriterBytes, TakeMovesTheDocumentAndStartsAnew)
{
    JsonWriter w;
    w.beginArray().value(1).endArray();
    EXPECT_EQ(w.take(), "[1]");
    EXPECT_TRUE(w.str().empty());
    w.beginObject().key("k").value(2).endObject();
    EXPECT_EQ(w.take(), "{\"k\":2}");
}

}  // namespace
}  // namespace stackscope::obs
