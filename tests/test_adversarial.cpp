// Adversarial and boundary workloads for the PMA/CPMA: input patterns that
// stress specific code paths — monotone and clustered insertions (worst case
// for rebalancing), dense runs (1-byte deltas), maximal keys (10-byte
// varints), alternating insert/delete churn at fixed size, and key-width
// sweeps that change the compression ratio.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "pma/cpma.hpp"
#include "scalar_only_codec.hpp"
#include "util/random.hpp"

using cpma::CPMA;
using cpma::PMA;
using cpma::util::Rng;

template <typename T>
void expect_ok(const T& p) {
  std::string err;
  ASSERT_TRUE(p.check_invariants(&err)) << err;
}

template <typename T>
class AdversarialTest : public ::testing::Test {};

using Engines = ::testing::Types<PMA, CPMA, ScalarCPMA>;
TYPED_TEST_SUITE(AdversarialTest, Engines);

TYPED_TEST(AdversarialTest, AscendingPointInserts) {
  // Every insert lands in the last leaf: maximal rebalance pressure on one
  // spine of the implicit tree.
  TypeParam p;
  for (uint64_t i = 1; i <= 100000; ++i) ASSERT_TRUE(p.insert(i));
  EXPECT_EQ(p.size(), 100000u);
  EXPECT_EQ(p.sum(), 100000ull * 100001 / 2);
  expect_ok(p);
}

TYPED_TEST(AdversarialTest, DescendingPointInserts) {
  // Every insert displaces the head of leaf 0.
  TypeParam p;
  for (uint64_t i = 100000; i >= 1; --i) ASSERT_TRUE(p.insert(i));
  EXPECT_EQ(p.size(), 100000u);
  EXPECT_EQ(p.sum(), 100000ull * 100001 / 2);
  expect_ok(p);
}

TYPED_TEST(AdversarialTest, ClusteredBatches) {
  // Batches of contiguous runs at random offsets: each batch floods a
  // handful of leaves (overflow + local redistribution), unlike the uniform
  // case that spreads one key per leaf.
  TypeParam p;
  std::set<uint64_t> ref;
  Rng r(3);
  for (int round = 0; round < 30; ++round) {
    uint64_t base = 1 + (r.next() % (1ull << 40));
    std::vector<uint64_t> batch(4000);
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i] = base + i;  // dense run -> 1-byte deltas in the CPMA
    }
    for (uint64_t k : batch) ref.insert(k);
    p.insert_batch(batch.data(), batch.size());
    ASSERT_EQ(p.size(), ref.size()) << round;
  }
  expect_ok(p);
}

TYPED_TEST(AdversarialTest, SawtoothChurnAtFixedSize) {
  // Insert a block, delete the previous block: size oscillates, forcing
  // both upper- and lower-bound rebalances (and growth/shrink interleaving).
  TypeParam p;
  std::vector<uint64_t> prev;
  Rng r(5);
  for (int round = 0; round < 25; ++round) {
    std::vector<uint64_t> cur(8000);
    for (auto& k : cur) k = 1 + (r.next() % (1ull << 40));
    p.insert_batch(std::vector<uint64_t>(cur));
    if (!prev.empty()) p.remove_batch(std::vector<uint64_t>(prev));
    prev = std::move(cur);
  }
  expect_ok(p);
  // Everything left is the final block (dedup'ed).
  std::sort(prev.begin(), prev.end());
  prev.erase(std::unique(prev.begin(), prev.end()), prev.end());
  EXPECT_EQ(p.size(), prev.size());
  for (uint64_t k : prev) ASSERT_TRUE(p.has(k));
}

TYPED_TEST(AdversarialTest, MaximalKeysTenByteVarints) {
  // Keys near 2^64: deltas can need 10-byte varints; heads near UINT64_MAX.
  TypeParam p;
  std::set<uint64_t> ref;
  Rng r(7);
  for (int i = 0; i < 20000; ++i) {
    uint64_t k = ~uint64_t{0} - (r.next() % (1ull << 50));
    if (k == 0) continue;
    p.insert(k);
    ref.insert(k);
  }
  EXPECT_EQ(p.size(), ref.size());
  EXPECT_TRUE(p.has(*ref.rbegin()));
  EXPECT_EQ(p.max(), *ref.rbegin());
  expect_ok(p);
}

TYPED_TEST(AdversarialTest, BimodalKeySpace) {
  // Two far-apart clusters: the delta at the cluster boundary is huge while
  // intra-cluster deltas are tiny — stresses the byte-budget spread.
  TypeParam p;
  std::vector<uint64_t> batch;
  for (uint64_t i = 1; i <= 50000; ++i) batch.push_back(i);
  for (uint64_t i = 0; i < 50000; ++i) {
    batch.push_back((~uint64_t{0} - 100000) + i);
  }
  p.insert_batch(batch.data(), batch.size());
  EXPECT_EQ(p.size(), 100000u);
  expect_ok(p);
  EXPECT_EQ(p.min(), 1u);
  EXPECT_EQ(p.max(), (~uint64_t{0} - 100000) + 49999);
  // Range query across the gap sees nothing.
  int count = 0;
  p.map_range([&](uint64_t) { ++count; }, 60000, ~uint64_t{0} - 100001);
  EXPECT_EQ(count, 0);
}

TYPED_TEST(AdversarialTest, RepeatedIdenticalBatches) {
  TypeParam p;
  std::vector<uint64_t> batch(50000);
  Rng r(11);
  for (auto& k : batch) k = 1 + (r.next() % (1ull << 40));
  uint64_t first = p.insert_batch(std::vector<uint64_t>(batch));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(p.insert_batch(std::vector<uint64_t>(batch)), 0u);
  }
  EXPECT_EQ(p.size(), first);
  expect_ok(p);
}

TYPED_TEST(AdversarialTest, DenseRunsWithSparseGaps) {
  // Alternating fully-dense runs (consecutive keys — worst case for delta
  // chains) and huge gaps (10-byte varints). Stresses byte-density
  // balancing at both extremes and the boundaries where a leaf straddles a
  // run edge; interleaved point deletes then punch holes into the dense
  // regions.
  TypeParam p;
  std::set<uint64_t> ref;
  Rng r(17);
  std::vector<uint64_t> batch;
  for (int run = 0; run < 200; ++run) {
    uint64_t base = 1 + (r.next() % (1ull << 50));
    uint64_t len = 200 + r.next() % 800;
    for (uint64_t i = 0; i < len; ++i) batch.push_back(base + i);
  }
  for (uint64_t k : batch) ref.insert(k);
  p.insert_batch(std::vector<uint64_t>(batch));
  ASSERT_EQ(p.size(), ref.size());
  expect_ok(p);
  // Punch random holes, then re-fill some of them point-wise.
  for (int i = 0; i < 20000; ++i) {
    uint64_t k = batch[r.next() % batch.size()];
    if (r.next() % 3 == 0) {
      bool expect = ref.insert(k).second;
      ASSERT_EQ(p.insert(k), expect);
    } else {
      bool expect = ref.erase(k) == 1;
      ASSERT_EQ(p.remove(k), expect);
    }
  }
  ASSERT_EQ(p.size(), ref.size());
  expect_ok(p);
  std::vector<uint64_t> got;
  p.map([&](uint64_t k) { got.push_back(k); });
  EXPECT_EQ(got, std::vector<uint64_t>(ref.begin(), ref.end()));
}

TYPED_TEST(AdversarialTest, DeleteEverythingThenReuse) {
  TypeParam p;
  for (int cycle = 0; cycle < 3; ++cycle) {
    std::vector<uint64_t> keys(30000);
    Rng r(cycle + 13);
    for (auto& k : keys) k = 1 + (r.next() % (1ull << 40));
    p.insert_batch(std::vector<uint64_t>(keys));
    p.remove_batch(std::vector<uint64_t>(keys));
    ASSERT_EQ(p.size(), 0u);
    expect_ok(p);
  }
}

// Key-width sweep: narrower keys compress better; correctness must hold at
// every width and the CPMA size per element must shrink with the width.
class KeyWidth : public ::testing::TestWithParam<unsigned> {};

TEST_P(KeyWidth, CorrectAtEveryWidth) {
  unsigned bits = GetParam();
  CPMA c;
  std::set<uint64_t> ref;
  for (uint64_t i = 0; i < 100000; ++i) {
    uint64_t k = cpma::util::uniform_key(bits, i, bits);
    c.insert(k);
    ref.insert(k);
  }
  EXPECT_EQ(c.size(), ref.size());
  std::string err;
  ASSERT_TRUE(c.check_invariants(&err)) << err;
  std::vector<uint64_t> got;
  c.map([&](uint64_t k) { got.push_back(k); });
  EXPECT_EQ(got, std::vector<uint64_t>(ref.begin(), ref.end()));
}

INSTANTIATE_TEST_SUITE_P(Widths, KeyWidth,
                         ::testing::Values(20u, 28u, 34u, 40u, 48u, 56u,
                                           64u));

TEST(KeyWidthSpace, CompressionImprovesWithDensity) {
  // 1e5 keys in 2^24 space (dense) vs 2^56 space (sparse).
  auto bytes_per_elt = [](unsigned bits) {
    CPMA c;
    std::vector<uint64_t> keys(100000);
    for (uint64_t i = 0; i < keys.size(); ++i) {
      keys[i] = cpma::util::uniform_key(bits, i, bits);
    }
    c.insert_batch(keys.data(), keys.size());
    return static_cast<double>(c.get_size()) / static_cast<double>(c.size());
  };
  EXPECT_LT(bytes_per_elt(24), bytes_per_elt(56));
}
