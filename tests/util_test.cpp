/// \file util_test.cpp
/// Unit tests for the util module: RNG determinism and statistics, CLI
/// option parsing, table formatting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace hxsp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 4);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng r(123);
  constexpr int kBuckets = 8;
  constexpr int kSamples = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[r.next_below(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kSamples / kBuckets * 0.9);
    EXPECT_LT(c, kSamples / kBuckets * 1.1);
  }
}

TEST(Rng, NextRangeInclusive) {
  Rng r(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng r(11);
  int hits = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) hits += r.next_bool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.next_bool(0.0));
    EXPECT_TRUE(r.next_bool(1.0));
  }
}

TEST(Rng, PermutationIsBijection) {
  Rng r(17);
  const auto p = r.permutation(257);
  std::set<std::int32_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 256);
}

TEST(Rng, ShuffleKeepsMultiset) {
  Rng r(19);
  std::vector<int> v{1, 1, 2, 3, 5, 8, 13};
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng base(21);
  Rng a = base.fork(1);
  Rng b = base.fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 4);
}

TEST(Options, ParsesKeyEqualsValue) {
  const char* argv[] = {"prog", "--side=16", "--load=0.5"};
  Options opt(3, argv);
  EXPECT_EQ(opt.get_int("side", 0), 16);
  EXPECT_DOUBLE_EQ(opt.get_double("load", 0), 0.5);
}

TEST(Options, ParsesKeySpaceValue) {
  const char* argv[] = {"prog", "--side", "8", "--name", "polsp"};
  Options opt(5, argv);
  EXPECT_EQ(opt.get_int("side", 0), 8);
  EXPECT_EQ(opt.get("name", ""), "polsp");
}

TEST(Options, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--paper"};
  Options opt(2, argv);
  EXPECT_TRUE(opt.get_bool("paper", false));
  EXPECT_FALSE(opt.get_bool("absent", false));
}

TEST(Options, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=off"};
  Options opt(5, argv);
  EXPECT_TRUE(opt.get_bool("a", false));
  EXPECT_FALSE(opt.get_bool("b", true));
  EXPECT_TRUE(opt.get_bool("c", false));
  EXPECT_FALSE(opt.get_bool("d", true));
}

TEST(Options, DoubleList) {
  const char* argv[] = {"prog", "--loads=0.1,0.5,0.9"};
  Options opt(2, argv);
  const auto v = opt.get_double_list("loads", {});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 0.1);
  EXPECT_DOUBLE_EQ(v[2], 0.9);
}

TEST(Options, StringList) {
  const char* argv[] = {"prog", "--mechs=omnisp,polsp"};
  Options opt(2, argv);
  const auto v = opt.get_list("mechs", {});
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], "omnisp");
  EXPECT_EQ(v[1], "polsp");
}

TEST(Options, IntegerThatFitsItsFieldIsReturned) {
  const char* argv[] = {"prog", "--side=2147483647", "--root=-2147483648",
                        "--seed=18", "--warmup=4294967298"};
  Options opt(5, argv);
  EXPECT_EQ(opt.get_int_as<int>("side", 0), 2147483647);
  EXPECT_EQ(opt.get_int_as<int>("root", 0), -2147483647 - 1);
  EXPECT_EQ(opt.get_int_as<std::uint64_t>("seed", 1), 18u);
  EXPECT_EQ(opt.get_int("warmup", 0), 4294967298L);
  EXPECT_EQ(opt.get_int_as<int>("absent", -7), -7);
}

TEST(OptionsDeathTest, IntegerPastItsFieldAbortsNamingTheFlag) {
  // 2^32 + 2 used to narrow to a side of 2, and a value past a long used
  // to saturate silently.
  const char* argv[] = {"prog", "--side=4294967298", "--seed=-1",
                        "--vcs=99999999999999999999"};
  Options opt(4, argv);
  EXPECT_DEATH(opt.get_int_as<int>("side", 4),
               "--side = 4294967298 is not an integer in "
               "\\[-2147483648, 2147483647\\]");
  EXPECT_DEATH(opt.get_int_as<std::uint64_t>("seed", 1),
               "--seed = -1 is not an integer in "
               "\\[0, 18446744073709551615\\]");
  EXPECT_DEATH(opt.get_int("vcs", 4),
               "--vcs = 99999999999999999999 is not an integer in "
               "\\[-9223372036854775808, 9223372036854775807\\]");
  EXPECT_DEATH(opt.get_int_as<int>("vcs", 4), "--vcs = 99999999999999999999");
}

TEST(Options, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Options opt(1, argv);
  EXPECT_EQ(opt.get_int("x", 42), 42);
  EXPECT_EQ(opt.get("s", "dflt"), "dflt");
  const auto v = opt.get_double_list("loads", {1.0, 2.0});
  EXPECT_EQ(v.size(), 2u);
}

TEST(Options, Positional) {
  const char* argv[] = {"prog", "alpha", "--k=1", "beta"};
  Options opt(4, argv);
  ASSERT_EQ(opt.positional().size(), 2u);
  EXPECT_EQ(opt.positional()[0], "alpha");
  EXPECT_EQ(opt.positional()[1], "beta");
}

TEST(Split, BasicAndEmptyFields) {
  const auto v = split("a,b,,c", ',');
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[2], "");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.row().cell("x").cell(1L);
  t.row().cell("longer").cell(2L);
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // Header row and separator plus two data rows -> 4 lines.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Table, FormatsDoubles) {
  EXPECT_EQ(format_double(0.5, 3), "0.500");
  EXPECT_EQ(format_double(1.0 / 3.0, 2), "0.33");
}

} // namespace
} // namespace hxsp
