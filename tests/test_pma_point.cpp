// Typed point-operation tests for the PMA and CPMA engines: insert/remove/
// has/successor/min/max/sum, iteration, range maps, growth and shrink, the
// key-0 sentinel, and structural invariants after every phase.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "pma/cpma.hpp"
#include "scalar_only_codec.hpp"
#include "util/random.hpp"

using cpma::CPMA;
using cpma::PMA;
using cpma::util::Rng;

template <typename T>
class PmaPointTest : public ::testing::Test {};

using Engines = ::testing::Types<PMA, CPMA, ScalarCPMA>;
TYPED_TEST_SUITE(PmaPointTest, Engines);

template <typename T>
void expect_invariants(const T& p) {
  std::string err;
  ASSERT_TRUE(p.check_invariants(&err)) << err;
}

TYPED_TEST(PmaPointTest, EmptyState) {
  TypeParam p;
  EXPECT_EQ(p.size(), 0u);
  EXPECT_TRUE(p.empty());
  EXPECT_FALSE(p.has(5));
  EXPECT_FALSE(p.successor(1).has_value());
  EXPECT_EQ(p.sum(), 0u);
  EXPECT_TRUE(p.begin() == p.end());
  expect_invariants(p);
}

TYPED_TEST(PmaPointTest, InsertAndHas) {
  TypeParam p;
  EXPECT_TRUE(p.insert(42));
  EXPECT_FALSE(p.insert(42));
  EXPECT_TRUE(p.has(42));
  EXPECT_FALSE(p.has(41));
  EXPECT_EQ(p.size(), 1u);
  expect_invariants(p);
}

TYPED_TEST(PmaPointTest, RemoveExistingAndAbsent) {
  TypeParam p;
  p.insert(1);
  p.insert(2);
  p.insert(3);
  EXPECT_TRUE(p.remove(2));
  EXPECT_FALSE(p.remove(2));
  EXPECT_FALSE(p.remove(99));
  EXPECT_EQ(p.size(), 2u);
  EXPECT_TRUE(p.has(1));
  EXPECT_FALSE(p.has(2));
  EXPECT_TRUE(p.has(3));
  expect_invariants(p);
}

TYPED_TEST(PmaPointTest, ZeroKeyIsSupported) {
  TypeParam p;
  EXPECT_FALSE(p.has(0));
  EXPECT_TRUE(p.insert(0));
  EXPECT_FALSE(p.insert(0));
  EXPECT_TRUE(p.has(0));
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(p.min(), 0u);
  p.insert(10);
  EXPECT_EQ(p.min(), 0u);
  EXPECT_EQ(p.successor(0).value(), 0u);
  EXPECT_TRUE(p.remove(0));
  EXPECT_FALSE(p.remove(0));
  EXPECT_EQ(p.min(), 10u);
  expect_invariants(p);
}

TYPED_TEST(PmaPointTest, ManyInsertsTriggerGrowth) {
  TypeParam p;
  const uint64_t n = 20000;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(p.insert(i * 7 + 1));
  }
  EXPECT_EQ(p.size(), n);
  expect_invariants(p);
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(p.has(i * 7 + 1)) << i;
  }
  EXPECT_FALSE(p.has(2));  // 2 mod 7 != 1
}

TYPED_TEST(PmaPointTest, DescendingInsertsExerciseHeadPath) {
  TypeParam p;
  const uint64_t n = 5000;
  for (uint64_t i = n; i > 0; --i) {
    ASSERT_TRUE(p.insert(i * 3));
  }
  EXPECT_EQ(p.size(), n);
  EXPECT_EQ(p.min(), 3u);
  EXPECT_EQ(p.max(), n * 3);
  expect_invariants(p);
}

TYPED_TEST(PmaPointTest, RemoveAllTriggersShrink) {
  TypeParam p;
  const uint64_t n = 20000;
  std::vector<uint64_t> keys;
  Rng r(4);
  for (uint64_t i = 0; i < n; ++i) keys.push_back(1 + r.next() % (1ull << 40));
  for (uint64_t k : keys) p.insert(k);
  uint64_t bytes_full = p.total_bytes();
  for (uint64_t k : keys) p.remove(k);
  EXPECT_EQ(p.size(), 0u);
  EXPECT_LT(p.total_bytes(), bytes_full);
  expect_invariants(p);
  // Structure stays usable after draining.
  EXPECT_TRUE(p.insert(123));
  EXPECT_TRUE(p.has(123));
}

TYPED_TEST(PmaPointTest, SuccessorQueries) {
  TypeParam p;
  for (uint64_t k : {10, 20, 30, 1000}) p.insert(k);
  EXPECT_EQ(p.successor(1).value(), 10u);
  EXPECT_EQ(p.successor(10).value(), 10u);
  EXPECT_EQ(p.successor(11).value(), 20u);
  EXPECT_EQ(p.successor(31).value(), 1000u);
  EXPECT_FALSE(p.successor(1001).has_value());
}

TYPED_TEST(PmaPointTest, MinMaxSum) {
  TypeParam p;
  p.insert(5);
  p.insert(500);
  p.insert(50);
  EXPECT_EQ(p.min(), 5u);
  EXPECT_EQ(p.max(), 500u);
  EXPECT_EQ(p.sum(), 555u);
}

TYPED_TEST(PmaPointTest, MapVisitsAllInOrder) {
  TypeParam p;
  std::vector<uint64_t> keys{9, 4, 7, 2, 100, 55};
  for (uint64_t k : keys) p.insert(k);
  std::sort(keys.begin(), keys.end());
  std::vector<uint64_t> seen;
  p.map([&](uint64_t k) { seen.push_back(k); });
  EXPECT_EQ(seen, keys);
}

TYPED_TEST(PmaPointTest, IteratorMatchesMap) {
  TypeParam p;
  Rng r(6);
  std::set<uint64_t> ref;
  for (int i = 0; i < 3000; ++i) {
    uint64_t k = r.next() % 100000;
    p.insert(k);
    ref.insert(k);
  }
  std::vector<uint64_t> want(ref.begin(), ref.end());
  std::vector<uint64_t> seen;
  for (uint64_t k : p) seen.push_back(k);
  EXPECT_EQ(seen, want);
}

TYPED_TEST(PmaPointTest, MapRangeBounds) {
  TypeParam p;
  for (uint64_t i = 1; i <= 100; ++i) p.insert(i * 10);
  std::vector<uint64_t> seen;
  p.map_range([&](uint64_t k) { seen.push_back(k); }, 95, 305);
  std::vector<uint64_t> want;
  for (uint64_t i = 1; i <= 100; ++i) {
    if (i * 10 >= 95 && i * 10 < 305) want.push_back(i * 10);
  }
  EXPECT_EQ(seen, want);
}

TYPED_TEST(PmaPointTest, MapRangeEmptyAndDegenerate) {
  TypeParam p;
  for (uint64_t k : {10, 20, 30}) p.insert(k);
  int count = 0;
  p.map_range([&](uint64_t) { ++count; }, 50, 40);  // start >= end
  EXPECT_EQ(count, 0);
  p.map_range([&](uint64_t) { ++count; }, 11, 12);  // no keys inside
  EXPECT_EQ(count, 0);
  p.map_range([&](uint64_t) { ++count; }, 31, 1000);  // past the end
  EXPECT_EQ(count, 0);
}

TYPED_TEST(PmaPointTest, MapRangeLength) {
  TypeParam p;
  for (uint64_t i = 1; i <= 50; ++i) p.insert(i);
  std::vector<uint64_t> seen;
  uint64_t applied =
      p.map_range_length([&](uint64_t k) { seen.push_back(k); }, 10, 5);
  EXPECT_EQ(applied, 5u);
  EXPECT_EQ(seen, (std::vector<uint64_t>{10, 11, 12, 13, 14}));
  // Asking for more than available stops at the end.
  seen.clear();
  applied = p.map_range_length([&](uint64_t k) { seen.push_back(k); }, 48, 10);
  EXPECT_EQ(applied, 3u);
  EXPECT_EQ(seen, (std::vector<uint64_t>{48, 49, 50}));
}

TYPED_TEST(PmaPointTest, ParallelMapVisitsEverything) {
  TypeParam p;
  const uint64_t n = 50000;
  for (uint64_t i = 1; i <= n; ++i) p.insert(i);
  std::atomic<uint64_t> total{0};
  std::atomic<uint64_t> count{0};
  p.parallel_map([&](uint64_t k) {
    total.fetch_add(k, std::memory_order_relaxed);
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(total.load(), n * (n + 1) / 2);
  EXPECT_EQ(p.sum(), n * (n + 1) / 2);
}

TYPED_TEST(PmaPointTest, BuildFromRangeConstructor) {
  std::vector<uint64_t> keys{5, 3, 9, 3, 1, 5, 7};  // dups + unsorted
  TypeParam p(keys.data(), keys.data() + keys.size());
  EXPECT_EQ(p.size(), 5u);
  std::vector<uint64_t> seen;
  p.map([&](uint64_t k) { seen.push_back(k); });
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 3, 5, 7, 9}));
  expect_invariants(p);
}

TYPED_TEST(PmaPointTest, GetSizeTracksGrowth) {
  TypeParam p;
  uint64_t initial = p.get_size();
  for (uint64_t i = 1; i <= 100000; ++i) p.insert(i * 11);
  EXPECT_GT(p.get_size(), initial);
}

TYPED_TEST(PmaPointTest, RandomizedAgainstStdSet) {
  TypeParam p;
  std::set<uint64_t> ref;
  Rng r(99);
  for (int step = 0; step < 30000; ++step) {
    uint64_t k = r.next() % 5000;  // dense space => frequent collisions
    if (r.next() % 3 != 0) {
      EXPECT_EQ(p.insert(k), ref.insert(k).second);
    } else {
      EXPECT_EQ(p.remove(k), ref.erase(k) == 1);
    }
    if (step % 5000 == 4999) {
      ASSERT_EQ(p.size(), ref.size());
      expect_invariants(p);
      std::vector<uint64_t> want(ref.begin(), ref.end());
      std::vector<uint64_t> seen;
      p.map([&](uint64_t kk) { seen.push_back(kk); });
      ASSERT_EQ(seen, want);
    }
  }
}

TYPED_TEST(PmaPointTest, AllScanApisAgree) {
  // map, parallel_map, iterators, sum, and map_range over the full span must
  // observe identical content.
  TypeParam p;
  Rng r(55);
  for (int i = 0; i < 20000; ++i) p.insert(r.next() % (1ull << 40));
  p.insert(0);  // include the out-of-band key

  std::vector<uint64_t> via_map;
  p.map([&](uint64_t k) { via_map.push_back(k); });

  std::vector<uint64_t> via_iter(p.begin(), p.end());
  EXPECT_EQ(via_iter, via_map);

  std::vector<uint64_t> via_range;
  p.map_range([&](uint64_t k) { via_range.push_back(k); }, 0, ~uint64_t{0});
  EXPECT_EQ(via_range, via_map);

  std::atomic<uint64_t> pm_sum{0}, pm_count{0};
  p.parallel_map([&](uint64_t k) {
    pm_sum.fetch_add(k, std::memory_order_relaxed);
    pm_count.fetch_add(1, std::memory_order_relaxed);
  });
  uint64_t map_sum = 0;
  for (uint64_t k : via_map) map_sum += k;
  EXPECT_EQ(pm_count.load(), via_map.size());
  EXPECT_EQ(pm_sum.load(), map_sum);
  EXPECT_EQ(p.sum(), map_sum);
  EXPECT_EQ(p.size(), via_map.size());
}

TYPED_TEST(PmaPointTest, MapRangeSliceSweepCoversWholeSet) {
  // Partition the key space into slices; the union of map_range over the
  // slices must equal one full scan, regardless of slice alignment.
  TypeParam p;
  Rng r(56);
  for (int i = 0; i < 30000; ++i) p.insert(1 + r.next() % (1ull << 30));
  std::vector<uint64_t> whole;
  p.map([&](uint64_t k) { whole.push_back(k); });
  for (uint64_t slices : {3ull, 16ull, 101ull}) {
    std::vector<uint64_t> pieced;
    uint64_t span = (uint64_t{1} << 30) / slices + 1;
    for (uint64_t s = 0; s <= slices; ++s) {
      p.map_range([&](uint64_t k) { pieced.push_back(k); }, s * span,
                  (s + 1) * span);
    }
    ASSERT_EQ(pieced, whole) << "slices=" << slices;
  }
}

TYPED_TEST(PmaPointTest, SuccessorChainsEnumerateTheSet) {
  TypeParam p;
  std::set<uint64_t> ref;
  Rng r(57);
  for (int i = 0; i < 5000; ++i) {
    uint64_t k = 1 + r.next() % (1ull << 40);
    p.insert(k);
    ref.insert(k);
  }
  // Walking successor(prev+1) from 0 must enumerate exactly the set.
  std::vector<uint64_t> walked;
  uint64_t cur = 0;
  while (true) {
    auto nxt = p.successor(cur);
    if (!nxt) break;
    walked.push_back(*nxt);
    if (*nxt == ~uint64_t{0}) break;
    cur = *nxt + 1;
  }
  EXPECT_EQ(walked, std::vector<uint64_t>(ref.begin(), ref.end()));
}

// CPMA-specific: compression should make the structure much smaller than the
// uncompressed PMA on dense keys.
TEST(CpmaSpace, SmallerThanPmaOnDenseKeys) {
  PMA p;
  CPMA c;
  for (uint64_t i = 1; i <= 200000; ++i) {
    p.insert(i);
    c.insert(i);
  }
  EXPECT_LT(c.get_size() * 2, p.get_size());
}

TEST(CpmaSpace, GrowthFactorAffectsFootprint) {
  cpma::pma::PmaSettings small_g;
  small_g.growth_factor = 1.1;
  cpma::pma::PmaSettings big_g;
  big_g.growth_factor = 2.0;
  CPMA a(small_g), b(big_g);
  Rng r(13);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 300000; ++i) keys.push_back(1 + r.next() % (1ull << 40));
  // Any single point in time can favor either factor (the array size
  // oscillates within a growth cycle); the AVERAGE footprint must favor the
  // smaller growth factor (Appendix C, Figure 12).
  double avg_a = 0, avg_b = 0;
  int samples = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    a.insert(keys[i]);
    b.insert(keys[i]);
    if (i % 10000 == 9999) {
      avg_a += static_cast<double>(a.total_bytes());
      avg_b += static_cast<double>(b.total_bytes());
      ++samples;
    }
  }
  EXPECT_LT(avg_a / samples, avg_b / samples);
}
