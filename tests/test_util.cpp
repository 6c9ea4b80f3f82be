// Unit tests for src/util: env parsing, statistics, tables.

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <vector>

#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace util = rcua::util;

namespace {
struct EnvGuard {
  std::string name;
  explicit EnvGuard(const char* n, const char* value) : name(n) {
    setenv(n, value, 1);
  }
  ~EnvGuard() { unsetenv(name.c_str()); }
};
}  // namespace

TEST(Env, U64ParsesAndFallsBack) {
  EXPECT_EQ(util::env_u64("RCUA_TEST_UNSET_VAR", 7), 7u);
  EnvGuard g("RCUA_TEST_U64", "1234");
  EXPECT_EQ(util::env_u64("RCUA_TEST_U64", 7), 1234u);
}

TEST(Env, U64FallsBackOnGarbage) {
  EnvGuard g("RCUA_TEST_U64", "not-a-number");
  EXPECT_EQ(util::env_u64("RCUA_TEST_U64", 9), 9u);
}

TEST(Env, BoolAcceptsCommonSpellings) {
  {
    EnvGuard g("RCUA_TEST_BOOL", "TRUE");
    EXPECT_TRUE(util::env_bool("RCUA_TEST_BOOL", false));
  }
  {
    EnvGuard g("RCUA_TEST_BOOL", "0");
    EXPECT_FALSE(util::env_bool("RCUA_TEST_BOOL", true));
  }
  {
    EnvGuard g("RCUA_TEST_BOOL", "whatever");
    EXPECT_TRUE(util::env_bool("RCUA_TEST_BOOL", true));
  }
}

TEST(Env, U64ListParsesCsv) {
  EnvGuard g("RCUA_TEST_LIST", "1,2,4,8");
  const auto v = util::env_u64_list("RCUA_TEST_LIST", {3});
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 1u);
  EXPECT_EQ(v[3], 8u);
}

TEST(Env, U64ListSkipsGarbageElements) {
  EnvGuard g("RCUA_TEST_LIST", "1,x,4");
  const auto v = util::env_u64_list("RCUA_TEST_LIST", {});
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1], 4u);
}

TEST(Env, U64RejectsTrailingGarbage) {
  // "12junk" must NOT silently parse as 12 — partial parses are the
  // classic stoull footgun this layer hardens away.
  EnvGuard g("RCUA_TEST_U64_TRAIL", "12junk");
  EXPECT_EQ(util::env_u64("RCUA_TEST_U64_TRAIL", 5), 5u);
}

TEST(Env, U64RejectsNegative) {
  // stoull would wrap "-1" to 2^64-1; the hardened parser refuses signs.
  EnvGuard g("RCUA_TEST_U64_NEG", "-1");
  EXPECT_EQ(util::env_u64("RCUA_TEST_U64_NEG", 5), 5u);
}

TEST(Env, U64RejectsOverflow) {
  EnvGuard g("RCUA_TEST_U64_OVER", "99999999999999999999999999");  // > 2^64
  EXPECT_EQ(util::env_u64("RCUA_TEST_U64_OVER", 5), 5u);
}

TEST(Env, U64RejectsEmptyAndWhitespace) {
  {
    EnvGuard g("RCUA_TEST_U64_EMPTY", "");
    EXPECT_EQ(util::env_u64("RCUA_TEST_U64_EMPTY", 5), 5u);
  }
  {
    EnvGuard g("RCUA_TEST_U64_WS", "   ");
    EXPECT_EQ(util::env_u64("RCUA_TEST_U64_WS", 5), 5u);
  }
  {
    // Surrounding whitespace around a valid number is tolerated.
    EnvGuard g("RCUA_TEST_U64_PAD", "  42  ");
    EXPECT_EQ(util::env_u64("RCUA_TEST_U64_PAD", 5), 42u);
  }
}

TEST(Env, MalformedValuesWarnOncePerVariable) {
  const std::uint64_t before = util::env_parse_warnings();
  EnvGuard g("RCUA_TEST_WARN_ONCE", "garbage");
  util::env_u64("RCUA_TEST_WARN_ONCE", 1);
  util::env_u64("RCUA_TEST_WARN_ONCE", 1);
  util::env_u64("RCUA_TEST_WARN_ONCE", 1);
  EXPECT_EQ(util::env_parse_warnings(), before + 1)
      << "three bad reads of one variable must warn exactly once";
  EnvGuard h("RCUA_TEST_WARN_TWICE", "also-garbage");
  util::env_u64("RCUA_TEST_WARN_TWICE", 1);
  EXPECT_EQ(util::env_parse_warnings(), before + 2)
      << "a distinct variable gets its own warning";
}

TEST(Env, BoolWarnsOnUnrecognizedToken) {
  const std::uint64_t before = util::env_parse_warnings();
  EnvGuard g("RCUA_TEST_BOOL_BAD", "maybe");
  EXPECT_TRUE(util::env_bool("RCUA_TEST_BOOL_BAD", true));
  EXPECT_FALSE(util::env_bool("RCUA_TEST_BOOL_BAD", false));
  EXPECT_EQ(util::env_parse_warnings(), before + 1);
}

TEST(Env, U64ListFallsBackWhenUnsetOrEmpty) {
  const auto v = util::env_u64_list("RCUA_TEST_LIST_UNSET", {5, 6});
  ASSERT_EQ(v.size(), 2u);
  EnvGuard g("RCUA_TEST_LIST", "x,y");
  const auto w = util::env_u64_list("RCUA_TEST_LIST", {9});
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0], 9u);
}

TEST(Stats, SummaryOfKnownSample) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const auto s = util::summarize(xs);
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
}

TEST(Stats, SummaryOfEmptyAndSingle) {
  EXPECT_EQ(util::summarize({}).n, 0u);
  const std::vector<double> one{42};
  const auto s = util::summarize(one);
  EXPECT_DOUBLE_EQ(s.mean, 42);
  EXPECT_DOUBLE_EQ(s.stddev, 0);
  EXPECT_DOUBLE_EQ(s.p99, 42);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(util::quantile_sorted(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(util::quantile_sorted(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(util::quantile_sorted(xs, 1.0), 10.0);
}

TEST(Stats, GeomeanOfPowers) {
  const std::vector<double> xs{1, 4, 16};
  EXPECT_NEAR(util::geomean(xs), 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(util::geomean({}), 0.0);
}

TEST(Stats, OnlineMatchesBatch) {
  const std::vector<double> xs{3.5, -1.0, 7.25, 0.0, 2.5, 9.0};
  util::OnlineStats acc;
  for (double x : xs) acc.add(x);
  const auto s = util::summarize(xs);
  EXPECT_NEAR(acc.mean(), s.mean, 1e-12);
  EXPECT_NEAR(acc.stddev(), s.stddev, 1e-12);
  EXPECT_EQ(acc.count(), xs.size());
}

TEST(Table, AlignedPrintContainsAllCells) {
  util::Table t({"a", "bbbb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("bbbb"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvFormat) {
  util::Table t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, ShortRowsArePadded) {
  util::Table t({"x", "y", "z"});
  t.add_row({"1"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y,z\n1,,\n");
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(util::Table::num(0), "0");
  EXPECT_EQ(util::Table::num(12.345), "12.35");
  EXPECT_EQ(util::Table::fixed(1.23456, 2), "1.23");
  // Large numbers go scientific.
  EXPECT_NE(util::Table::num(5.93e8).find("e"), std::string::npos);
}
