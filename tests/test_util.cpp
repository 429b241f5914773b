// Unit tests for the utility layer: bit tricks, RNGs, zipfian generator,
// environment knobs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <set>

#include "util/bits.hpp"
#include "util/env.hpp"
#include "util/random.hpp"
#include "util/zipf.hpp"

namespace u = cpma::util;

TEST(Bits, Log2Floor) {
  EXPECT_EQ(u::log2_floor(1), 0u);
  EXPECT_EQ(u::log2_floor(2), 1u);
  EXPECT_EQ(u::log2_floor(3), 1u);
  EXPECT_EQ(u::log2_floor(4), 2u);
  EXPECT_EQ(u::log2_floor(uint64_t{1} << 63), 63u);
  EXPECT_EQ(u::log2_floor((uint64_t{1} << 63) + 5), 63u);
}

TEST(Bits, Log2Ceil) {
  EXPECT_EQ(u::log2_ceil(1), 0u);
  EXPECT_EQ(u::log2_ceil(2), 1u);
  EXPECT_EQ(u::log2_ceil(3), 2u);
  EXPECT_EQ(u::log2_ceil(4), 2u);
  EXPECT_EQ(u::log2_ceil(5), 3u);
  EXPECT_EQ(u::log2_ceil(1024), 10u);
  EXPECT_EQ(u::log2_ceil(1025), 11u);
}

TEST(Bits, NextPow2) {
  EXPECT_EQ(u::next_pow2(1), 1u);
  EXPECT_EQ(u::next_pow2(2), 2u);
  EXPECT_EQ(u::next_pow2(3), 4u);
  EXPECT_EQ(u::next_pow2(255), 256u);
  EXPECT_EQ(u::next_pow2(256), 256u);
  EXPECT_EQ(u::next_pow2(257), 512u);
}

TEST(Bits, IsPow2) {
  EXPECT_FALSE(u::is_pow2(0));
  EXPECT_TRUE(u::is_pow2(1));
  EXPECT_TRUE(u::is_pow2(64));
  EXPECT_FALSE(u::is_pow2(65));
}

TEST(Bits, DivRoundUp) {
  EXPECT_EQ(u::div_round_up(0, 4), 0u);
  EXPECT_EQ(u::div_round_up(1, 4), 1u);
  EXPECT_EQ(u::div_round_up(4, 4), 1u);
  EXPECT_EQ(u::div_round_up(5, 4), 2u);
}

TEST(Random, Hash64Deterministic) {
  EXPECT_EQ(u::hash64(42), u::hash64(42));
  EXPECT_NE(u::hash64(42), u::hash64(43));
}

TEST(Random, RngSequenceDiffersBySeed) {
  u::Rng a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Random, NextBelowInRange) {
  u::Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Random, NextDoubleInUnitInterval) {
  u::Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Random, UniformKeyRespectsBitWidthAndNonzero) {
  for (uint64_t i = 0; i < 10000; ++i) {
    uint64_t k = u::uniform_key(123, i, 40);
    EXPECT_NE(k, 0u);
    EXPECT_LT(k, uint64_t{1} << 40);
  }
}

TEST(Random, UniformKeyRandomAccessIsDeterministic) {
  EXPECT_EQ(u::uniform_key(5, 1000), u::uniform_key(5, 1000));
  EXPECT_NE(u::uniform_key(5, 1000), u::uniform_key(6, 1000));
}

TEST(Random, UniformKeysSpreadAcrossSpace) {
  // Crude uniformity check: bucket into 16 bins, expect no bin dominates.
  std::map<uint64_t, uint64_t> bins;
  const uint64_t n = 1 << 16;
  for (uint64_t i = 0; i < n; ++i) {
    bins[u::uniform_key(3, i, 40) >> 36] += 1;
  }
  for (auto& [bin, cnt] : bins) {
    EXPECT_GT(cnt, n / 32);
    EXPECT_LT(cnt, n / 8);
  }
}

TEST(Zipf, RanksWithinDomain) {
  u::ZipfGenerator z(1000, 0.99, 42);
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_LT(z.rank(i), 1000u);
  }
}

TEST(Zipf, SkewFavorsSmallRanks) {
  u::ZipfGenerator z(1 << 20, 0.99, 1);
  uint64_t hot = 0;
  const uint64_t n = 100000;
  for (uint64_t i = 0; i < n; ++i) {
    if (z.rank(i) < 100) ++hot;
  }
  // With alpha=0.99 over 1M ranks, the top-100 ranks draw a large constant
  // fraction; uniform would give ~0.01%.
  EXPECT_GT(hot, n / 10);
}

TEST(Zipf, KeysNonzeroAndWithinBits) {
  u::ZipfGenerator z(1 << 20, 0.99, 7);
  for (uint64_t i = 0; i < 10000; ++i) {
    uint64_t k = z.key(i, 34);
    EXPECT_NE(k, 0u);
    EXPECT_LT(k, uint64_t{1} << 34);
  }
}

TEST(Zipf, DeterministicAcrossCalls) {
  u::ZipfGenerator z(1 << 16, 0.99, 11);
  EXPECT_EQ(z.key(5), z.key(5));
}

// A malformed or out-of-range value reads as the fallback, never as a
// prefix or a wrapped number. The variable is test-only, so no library
// knob is touched.
TEST(Env, U64AcceptsOnlyWholeInRangeNumbers) {
  constexpr const char* kVar = "CPMA_TEST_ENV_KNOB";
  auto read = [&](const char* value) {
    ::setenv(kVar, value, 1);
    return u::env_u64(kVar, 7);
  };
  ::unsetenv(kVar);
  EXPECT_EQ(u::env_u64(kVar, 7), 7u);
  EXPECT_EQ(read(""), 7u);
  EXPECT_EQ(read("12"), 12u);
  EXPECT_EQ(read("0"), 0u);
  EXPECT_EQ(read("18446744073709551615"), ~uint64_t{0});
  EXPECT_EQ(read("1M"), 7u);
  EXPECT_EQ(read("abc"), 7u);
  EXPECT_EQ(read("-1"), 7u);
  EXPECT_EQ(read(" 12"), 7u);
  EXPECT_EQ(read("18446744073709551616"), 7u);
  ::unsetenv(kVar);
}

TEST(Env, DoubleAcceptsOnlyWholeFiniteNumbers) {
  constexpr const char* kVar = "CPMA_TEST_ENV_KNOB";
  auto read = [&](const char* value) {
    ::setenv(kVar, value, 1);
    return u::env_double(kVar, 1.5);
  };
  EXPECT_EQ(read(""), 1.5);
  EXPECT_EQ(read("12"), 12.0);
  EXPECT_EQ(read("0.25"), 0.25);
  EXPECT_EQ(read("1M"), 1.5);
  EXPECT_EQ(read("abc"), 1.5);
  EXPECT_EQ(read("inf"), 1.5);
  EXPECT_EQ(read("1e999"), 1.5);
  ::unsetenv(kVar);
}
