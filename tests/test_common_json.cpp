#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "common/strings.hpp"

namespace rw::json {
namespace {

// The number formatter the writer used when it went through printf, kept
// verbatim as the oracle for the writer's bytes: %.15g when it reads back
// exactly, else %.17g. std::stod throws out_of_range when the %.15g text
// reads back as a subnormal (every subnormal, and DBL_MIN itself) or
// overflows (values next to DBL_MAX), so those values are checked against
// the printf forms directly instead.
std::string printf_oracle(double v) {
  std::string s = strformat("%.17g", v);
  if (const std::string shorter = strformat("%.15g", v);
      std::stod(shorter) == v)
    s = shorter;
  return s;
}

std::string emit(double v) {
  Writer w(/*pretty=*/false);
  w.value(v);
  return w.str();
}

bool oracle_throws(double v) {
  try {
    (void)printf_oracle(v);
    return false;
  } catch (const std::out_of_range&) {
    return true;
  }
}

// Compares the writer against the oracle over many values and reports the
// first mismatch, so a formatting bug fails once rather than 100k times.
class Sweep {
 public:
  void check(double v) {
    std::string want = "null";  // JSON has no Inf/NaN
    if (std::isfinite(v)) {
      try {
        want = printf_oracle(v);
      } catch (const std::out_of_range&) {
        const double back =
            std::strtod(strformat("%.15g", v).c_str(), nullptr);
        ASSERT_TRUE(std::fpclassify(back) == FP_SUBNORMAL ||
                    std::isinf(back))
            << strformat("%.17g", v);
        want = printf_form(v);
      }
    }
    ++checked_;
    const std::string got = emit(v);
    if (got != want && mismatches_++ == 0)
      first_ = strformat("%a: got %s, want %s", v, got.c_str(), want.c_str());
  }

  void expect_clean(std::size_t min_checked) const {
    EXPECT_GE(checked_, min_checked);
    EXPECT_EQ(mismatches_, 0u) << "first mismatch: " << first_;
  }

 private:
  // What the oracle would emit if stod accepted every finite value.
  static std::string printf_form(double v) {
    const std::string p15 = strformat("%.15g", v);
    return std::strtod(p15.c_str(), nullptr) == v ? p15
                                                  : strformat("%.17g", v);
  }

  std::size_t checked_ = 0;
  std::size_t mismatches_ = 0;
  std::string first_;
};

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  static_assert(sizeof v == sizeof bits);
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

TEST(JsonWriter, DoublesMatchPrintfOracle) {
  Rng rng(20091);
  Sweep sweep;
  // Chrome-trace timestamps and durations: picoseconds scaled to us, on
  // 400 MHz cycle multiples and at arbitrary picoseconds.
  for (int i = 0; i < 20000; ++i) {
    sweep.check(static_cast<double>(rng.next_below(4'000'000) * 2500) * 1e-6);
    sweep.check(static_cast<double>(rng.next_below(10'000'000'000'000)) *
                1e-6);
  }
  // Random bit patterns cover every exponent, NaN payloads and infinities.
  for (int i = 0; i < 40000; ++i) sweep.check(from_bits(rng.next_u64()));
  // Integers up to 2^53, where every value is exact.
  constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;
  for (int i = 0; i < 20000; ++i) {
    const auto n = static_cast<double>(rng.next_below(kTwo53 + 1));
    sweep.check(n);
    sweep.check(-n);
  }
  for (const std::uint64_t n : {kTwo53 - 1, kTwo53, kTwo53 + 2})
    sweep.check(static_cast<double>(n));
  // Ratios such as utilisations and means.
  for (int i = 0; i < 10000; ++i) {
    sweep.check(rng.next_double());
    sweep.check(static_cast<double>(rng.next_below(1000)) /
                static_cast<double>(1 + rng.next_below(1000)));
  }
  // Powers of ten across the whole range, both signs; the smallest ones
  // are subnormal.
  for (int e = -323; e <= 308; ++e) {
    const double p = std::strtod(strformat("1e%d", e).c_str(), nullptr);
    sweep.check(p);
    sweep.check(-p);
  }
  // Subnormals, zeros and the edges of the finite range.
  for (int i = 0; i < 2000; ++i)
    sweep.check(from_bits(1 + rng.next_below((std::uint64_t{1} << 52) - 1)));
  for (const double v :
       {0.0, -0.0, 5e-324, -5e-324, 1e-310, DBL_TRUE_MIN, DBL_MIN,
        std::nextafter(DBL_MIN, 0.0), DBL_MAX, -DBL_MAX,
        std::nextafter(DBL_MAX, 0.0), DBL_EPSILON, 0.1, 1.0 / 3.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()})
    sweep.check(v);
  sweep.expect_clean(100'000);
}

// Regression: the printf formatter threw std::out_of_range from std::stod
// on every subnormal (and on DBL_MIN and DBL_MAX), so one such metric
// aborted a whole export.
TEST(JsonWriter, SubnormalsAndRangeEdgesDoNotThrow) {
  EXPECT_TRUE(oracle_throws(5e-324));
  EXPECT_TRUE(oracle_throws(1e-310));
  EXPECT_TRUE(oracle_throws(DBL_MIN));
  EXPECT_TRUE(oracle_throws(DBL_MAX));
  EXPECT_EQ(emit(5e-324), "4.94065645841247e-324");
  EXPECT_EQ(emit(-5e-324), "-4.94065645841247e-324");
  EXPECT_EQ(emit(1e-310), "9.99999999999997e-311");
  EXPECT_EQ(emit(DBL_MIN), "2.2250738585072014e-308");
  EXPECT_EQ(emit(DBL_MAX), "1.7976931348623157e+308");
  EXPECT_EQ(emit(-DBL_MAX), "-1.7976931348623157e+308");
}

TEST(JsonWriter, NonFiniteDoublesEmitNull) {
  EXPECT_EQ(emit(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(emit(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(emit(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(emit(-std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(JsonWriter, IntegerExtremes) {
  Writer w(/*pretty=*/false);
  w.begin_array();
  w.value(std::numeric_limits<std::uint64_t>::max());
  w.value(std::numeric_limits<std::int64_t>::min());
  w.value(std::numeric_limits<std::int64_t>::max());
  w.value(std::uint64_t{0});
  w.value(-1);
  w.end_array();
  EXPECT_EQ(w.str(),
            "[18446744073709551615,-9223372036854775808,"
            "9223372036854775807,0,-1]");
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters) {
  static constexpr char kRaw[] =
      "q\"b\\n\nr\rt\tb\bf\f\x01\x1f\x7f\xc3\xa9z\0end";
  const std::string raw(kRaw, sizeof kRaw - 1);  // keeps the embedded NUL
  const std::string escaped =
      "q\\\"b\\\\n\\nr\\rt\\tb\\u0008f\\u000c\\u0001\\u001f\x7f\xc3\xa9z"
      "\\u0000end";
  EXPECT_EQ(Writer::escape(raw), escaped);
  EXPECT_EQ(Writer::escape(""), "");
  EXPECT_EQ(Writer::escape("plain"), "plain");

  Writer w(/*pretty=*/false);
  w.begin_object();
  w.key(raw).value(raw);
  w.end_object();
  EXPECT_EQ(w.str(), "{\"" + escaped + "\":\"" + escaped + "\"}");

  // The parser reads both back to the original bytes.
  const auto doc = parse(w.str());
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().members().size(), 1u);
  EXPECT_EQ(doc.value().members()[0].first, raw);
  EXPECT_EQ(doc.value().members()[0].second.string(), raw);
}

TEST(JsonWriter, PrettyAndCompactLayout) {
  auto build = [](Writer& w) {
    w.begin_object();
    w.key("name").value("a5");
    w.key("runs").begin_array();
    w.value(1.5).value(std::uint64_t{2}).value(true).null();
    w.begin_object().end_object();
    w.end_array();
    w.key("empty").begin_array().end_array();
    w.end_object();
  };
  Writer compact(/*pretty=*/false);
  build(compact);
  EXPECT_EQ(compact.str(),
            "{\"name\":\"a5\",\"runs\":[1.5,2,true,null,{}],\"empty\":[]}");
  Writer pretty;
  build(pretty);
  EXPECT_EQ(pretty.str(),
            "{\n  \"name\": \"a5\",\n  \"runs\": [\n    1.5,\n    2,\n"
            "    true,\n    null,\n    {}\n  ],\n  \"empty\": []\n}");
}

}  // namespace
}  // namespace rw::json
