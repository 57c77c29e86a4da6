// Tests for the common substrate: error handling, deterministic RNG,
// string utilities, ASCII tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace hlp {
namespace {

TEST(Error, CheckThrowsWithMessage) {
  try {
    HLP_CHECK(1 == 2, "custom detail " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("custom detail 42"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(HLP_CHECK(2 + 2 == 4, "unused"));
}

TEST(Error, IsRuntimeError) {
  EXPECT_THROW(HLP_REQUIRE(false, "x"), std::runtime_error);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u32() == b.next_u32();
  EXPECT_LT(same, 4);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  const auto x0 = a.next_u32();
  const auto x1 = a.next_u32();
  a.reseed(7);
  EXPECT_EQ(a.next_u32(), x0);
  EXPECT_EQ(a.next_u32(), x1);
}

TEST(Rng, BelowStaysInBounds) {
  Rng r(5);
  for (std::uint32_t bound : {1u, 2u, 3u, 10u, 1000u}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
  }
}

TEST(Rng, BelowZeroThrows) {
  Rng r(5);
  EXPECT_THROW(r.below(0), Error);
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) {
    const int v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, UniformInHalfOpenUnit) {
  Rng r(11);
  double sum = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 2000.0, 0.5, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto sorted = v;
  r.shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), sorted.begin()));
}

TEST(Rng, ShuffleDeterministic) {
  std::vector<int> a{1, 2, 3, 4, 5}, b{1, 2, 3, 4, 5};
  Rng ra(3), rb(3);
  ra.shuffle(a);
  rb.shuffle(b);
  EXPECT_EQ(a, b);
}

TEST(Strings, SplitWs) {
  const auto t = split_ws("  a  bb\tccc \n d ");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[3], "d");
}

TEST(Strings, SplitWsEmpty) {
  EXPECT_TRUE(split_ws("").empty());
  EXPECT_TRUE(split_ws("   \t\n").empty());
}

TEST(Strings, SplitOnKeepsEmptyFields) {
  const auto t = split_on("a,,b,", ',');
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[1], "");
  EXPECT_EQ(t[3], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t"), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with(".model top", ".model"));
  EXPECT_FALSE(starts_with(".mod", ".model"));
}

TEST(Strings, FmtFixed) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(-0.5, 1), "-0.5");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, StrictNumberParsesTakeWholeTokensInRange) {
  EXPECT_EQ(parse_i64("-42"), -42);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ull);
  EXPECT_EQ(parse_int("2147483647"), 2147483647);
  EXPECT_EQ(parse_double("0.5"), 0.5);
  for (const char* bad : {"", "x", "1x", "1 ", "1.5"}) {
    EXPECT_FALSE(parse_i64(bad)) << bad;
    EXPECT_FALSE(parse_u64(bad)) << bad;
    EXPECT_FALSE(parse_int(bad)) << bad;
  }
  EXPECT_FALSE(parse_i64("9223372036854775808"));  // overflow, not clamped
  EXPECT_FALSE(parse_u64("18446744073709551616"));
  EXPECT_FALSE(parse_u64("-1"));  // rejected, not wrapped
  EXPECT_FALSE(parse_int("2147483648"));
  EXPECT_FALSE(parse_int("-2147483649"));
  EXPECT_FALSE(parse_double("0.5junk"));
  EXPECT_FALSE(parse_double("1e999"));
  // Hexfloat text round-trips every double bit for bit.
  for (const double v : {0.1, -1.0 / 3.0, 6.02214076e23, 5e-324})
    EXPECT_EQ(parse_double(fmt_hexfloat(v)), v) << fmt_hexfloat(v);
}

TEST(Table, AlignsColumns) {
  AsciiTable t({"name", "value"});
  t.row().add("x").add(1);
  t.row().add("longer").add(2.5, 1);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, RejectsTooManyCells) {
  AsciiTable t({"only"});
  t.row().add("a");
  EXPECT_THROW(t.add("b"), Error);
}

TEST(Table, RejectsAddBeforeRow) {
  AsciiTable t({"c"});
  EXPECT_THROW(t.add("x"), Error);
}

}  // namespace
}  // namespace hlp
