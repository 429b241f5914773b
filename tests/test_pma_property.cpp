// Property-based tests: parameterized sweeps asserting the PMA/CPMA
// invariants that the paper's analysis depends on — structural validity
// after arbitrary operation sequences, density stays within the configured
// bounds, compression ratios, iterator/set equivalence, and determinism.
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

// ---------------------------------------------------------------------------
// Random operation sequences, parameterized over (seed, key-space size).
// ---------------------------------------------------------------------------

class OpSequence
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

template <typename T>
void run_op_sequence(uint64_t seed, uint64_t space) {
  T p;
  std::set<uint64_t> ref;
  Rng r(seed);
  for (int step = 0; step < 6000; ++step) {
    int op = static_cast<int>(r.next() % 10);
    if (op < 5) {  // point insert
      uint64_t k = r.next() % space;
      ASSERT_EQ(p.insert(k), ref.insert(k).second);
    } else if (op < 7) {  // point remove
      uint64_t k = r.next() % space;
      ASSERT_EQ(p.remove(k), ref.erase(k) == 1);
    } else if (op == 7) {  // batch insert
      std::vector<uint64_t> batch(1 + r.next() % 800);
      for (auto& k : batch) k = r.next() % space;
      for (uint64_t k : batch) ref.insert(k);
      p.insert_batch(batch.data(), batch.size());
      ASSERT_EQ(p.size(), ref.size());
    } else if (op == 8) {  // batch remove
      std::vector<uint64_t> batch(1 + r.next() % 400);
      for (auto& k : batch) k = r.next() % space;
      for (uint64_t k : batch) ref.erase(k);
      p.remove_batch(batch.data(), batch.size());
      ASSERT_EQ(p.size(), ref.size());
    } else {  // queries
      uint64_t k = r.next() % space;
      ASSERT_EQ(p.has(k), ref.count(k) == 1);
      auto suc = p.successor(k);
      auto rit = ref.lower_bound(k);
      if (rit == ref.end()) {
        ASSERT_FALSE(suc.has_value());
      } else {
        ASSERT_TRUE(suc.has_value());
        ASSERT_EQ(*suc, *rit);
      }
    }
  }
  std::string err;
  ASSERT_TRUE(p.check_invariants(&err)) << err;
  std::vector<uint64_t> want(ref.begin(), ref.end());
  std::vector<uint64_t> got;
  p.map([&](uint64_t k) { got.push_back(k); });
  ASSERT_EQ(got, want);
}

TEST_P(OpSequence, PmaMatchesReference) {
  auto [seed, space] = GetParam();
  run_op_sequence<PMA>(seed, space);
}

TEST_P(OpSequence, CpmaMatchesReference) {
  auto [seed, space] = GetParam();
  run_op_sequence<CPMA>(seed, space);
}

TEST_P(OpSequence, ScalarCpmaMatchesReference) {
  auto [seed, space] = GetParam();
  run_op_sequence<ScalarCPMA>(seed, space);
}

// ScalarOnlyCodec writes CPMA's byte-varint format without the bulk decode
// hooks, and the engine sizes, spreads and resizes leaves from byte counts
// alone. So one operation stream must leave both engines with the same
// leaves: the same count, and the same (head, used bytes) profile, which
// split_key_for_bytes samples. A read path that moved a write decision
// would show up here as diverging geometry.
template <typename A, typename B>
void expect_same_layout(const A& a, const B& b, int step) {
  ASSERT_EQ(a.size(), b.size()) << "step " << step;
  ASSERT_EQ(a.num_leaves(), b.num_leaves()) << "step " << step;
  ASSERT_EQ(a.total_bytes(), b.total_bytes()) << "step " << step;
  const uint64_t span = a.num_leaves() * a.leaf_bytes();
  for (uint64_t i = 0; i <= 32; ++i) {
    const uint64_t target = span * i / 32;
    ASSERT_EQ(a.split_key_for_bytes(target), b.split_key_for_bytes(target))
        << "step " << step << " target " << target;
  }
}

TEST_P(OpSequence, ScalarCpmaKeepsCpmaLayout) {
  auto [seed, space] = GetParam();
  CPMA a;
  ScalarCPMA b;
  Rng r(seed);
  for (int step = 0; step < 3000; ++step) {
    int op = static_cast<int>(r.next() % 8);
    if (op < 3) {
      uint64_t k = r.next() % space;
      ASSERT_EQ(a.insert(k), b.insert(k));
    } else if (op < 5) {
      uint64_t k = r.next() % space;
      ASSERT_EQ(a.remove(k), b.remove(k));
    } else if (op == 5) {
      std::vector<uint64_t> batch(1 + r.next() % 800);
      for (auto& k : batch) k = r.next() % space;
      std::vector<uint64_t> copy = batch;  // batch calls may permute the input
      ASSERT_EQ(a.insert_batch(batch.data(), batch.size()),
                b.insert_batch(copy.data(), copy.size()));
    } else if (op == 6) {
      std::vector<uint64_t> batch(1 + r.next() % 400);
      for (auto& k : batch) k = r.next() % space;
      std::vector<uint64_t> copy = batch;
      ASSERT_EQ(a.remove_batch(batch.data(), batch.size()),
                b.remove_batch(copy.data(), copy.size()));
    } else {
      expect_same_layout(a, b, step);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  expect_same_layout(a, b, -1);
  if (::testing::Test::HasFatalFailure()) return;
  std::string err;
  ASSERT_TRUE(b.check_invariants(&err)) << err;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSpaces, OpSequence,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values(uint64_t{256}, uint64_t{1} << 16,
                                         uint64_t{1} << 40)));

// ---------------------------------------------------------------------------
// Density bounds hold after bulk loads of different sizes & distributions.
// ---------------------------------------------------------------------------

class DensityAfterLoad : public ::testing::TestWithParam<uint64_t> {};

template <typename T>
void check_density(uint64_t n) {
  T p;
  Rng r(n);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = 1 + (r.next() % (1ull << 40));
  p.insert_batch(keys.data(), keys.size());
  double d = p.density();
  // Stays under the root's upper bound with a bit of tolerance for per-leaf
  // head storage, and above a sanity floor (no pathological sparsity).
  EXPECT_LT(d, 0.80) << "n=" << n;
  EXPECT_GT(d, 0.15) << "n=" << n;
  std::string err;
  ASSERT_TRUE(p.check_invariants(&err)) << err;
}

TEST_P(DensityAfterLoad, Pma) { check_density<PMA>(GetParam()); }
TEST_P(DensityAfterLoad, Cpma) { check_density<CPMA>(GetParam()); }
TEST_P(DensityAfterLoad, ScalarCpma) {
  check_density<ScalarCPMA>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, DensityAfterLoad,
                         ::testing::Values(1000u, 10000u, 100000u, 1000000u));

// ---------------------------------------------------------------------------
// Compression-ratio properties (Table 6's qualitative claims).
// ---------------------------------------------------------------------------

class SpaceRatio : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpaceRatio, CpmaAtLeastTwiceSmallerThanPmaOnUniform40Bit) {
  uint64_t n = GetParam();
  Rng r(7);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = 1 + (r.next() % (1ull << 40));
  PMA p;
  CPMA c;
  p.insert_batch(std::vector<uint64_t>(keys));
  c.insert_batch(std::vector<uint64_t>(keys));
  double pma_bpe = static_cast<double>(p.get_size()) / p.size();
  double cpma_bpe = static_cast<double>(c.get_size()) / c.size();
  // Paper Table 6: PMA ~10-12 B/elt, CPMA ~3-5 B/elt at these scales.
  EXPECT_GT(pma_bpe / cpma_bpe, 2.0) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpaceRatio,
                         ::testing::Values(100000u, 1000000u));

// ---------------------------------------------------------------------------
// Batch insert/remove inverse property: (S + B) - B == S.
// ---------------------------------------------------------------------------

class InverseBatch : public ::testing::TestWithParam<uint64_t> {};

template <typename T>
void check_inverse(uint64_t batch_size) {
  T p;
  Rng r(batch_size + 17);
  std::vector<uint64_t> base(100000);
  for (auto& k : base) k = 1 + (r.next() % (1ull << 40));
  p.insert_batch(std::vector<uint64_t>(base));
  std::vector<uint64_t> before;
  p.map([&](uint64_t k) { before.push_back(k); });

  // Build a batch of keys NOT currently present.
  std::vector<uint64_t> batch;
  batch.reserve(batch_size);
  while (batch.size() < batch_size) {
    uint64_t k = 1 + (r.next() % (1ull << 40));
    if (!p.has(k)) batch.push_back(k);
  }
  uint64_t added = p.insert_batch(std::vector<uint64_t>(batch));
  std::sort(batch.begin(), batch.end());
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
  ASSERT_EQ(added, batch.size());
  uint64_t removed = p.remove_batch(std::vector<uint64_t>(batch));
  ASSERT_EQ(removed, batch.size());

  std::vector<uint64_t> after;
  p.map([&](uint64_t k) { after.push_back(k); });
  ASSERT_EQ(after, before);
  std::string err;
  ASSERT_TRUE(p.check_invariants(&err)) << err;
}

TEST_P(InverseBatch, Pma) { check_inverse<PMA>(GetParam()); }
TEST_P(InverseBatch, Cpma) { check_inverse<CPMA>(GetParam()); }

INSTANTIATE_TEST_SUITE_P(BatchSizes, InverseBatch,
                         ::testing::Values(50u, 1000u, 5000u, 60000u));

// ---------------------------------------------------------------------------
// Determinism: the same inputs produce the same structure regardless of the
// parallel schedule.
// ---------------------------------------------------------------------------

TEST(Determinism, SameContentAcrossRuns) {
  auto build = [] {
    CPMA c;
    Rng r(123);
    for (int round = 0; round < 5; ++round) {
      std::vector<uint64_t> batch(50000);
      for (auto& k : batch) k = 1 + (r.next() % (1ull << 40));
      c.insert_batch(batch.data(), batch.size());
    }
    return c.sum();
  };
  uint64_t a = build();
  uint64_t b = build();
  EXPECT_EQ(a, b);
}

// Growth-factor sweep: all configurations stay valid, smaller factors give
// smaller (or equal) arrays on average (Appendix C's qualitative claim).
class GrowthFactor : public ::testing::TestWithParam<double> {};

TEST_P(GrowthFactor, StructureStaysValid) {
  cpma::pma::PmaSettings s;
  s.growth_factor = GetParam();
  CPMA c(s);
  Rng r(31);
  for (int round = 0; round < 10; ++round) {
    std::vector<uint64_t> batch(20000);
    for (auto& k : batch) k = 1 + (r.next() % (1ull << 40));
    c.insert_batch(batch.data(), batch.size());
  }
  std::string err;
  ASSERT_TRUE(c.check_invariants(&err)) << err;
  EXPECT_GT(c.size(), 150000u);
}

INSTANTIATE_TEST_SUITE_P(Factors, GrowthFactor,
                         ::testing::Values(1.1, 1.2, 1.5, 2.0));

// ---------------------------------------------------------------------------
// Batch edge cases: degenerate batches must be no-ops or exact duplicates of
// the point-op semantics, and must leave the structure valid.
// ---------------------------------------------------------------------------

template <typename T>
class BatchEdgeCases : public ::testing::Test {};

using Engines = ::testing::Types<PMA, CPMA, ScalarCPMA>;
TYPED_TEST_SUITE(BatchEdgeCases, Engines);

template <typename T>
void expect_valid(const T& p) {
  std::string err;
  ASSERT_TRUE(p.check_invariants(&err)) << err;
}

TYPED_TEST(BatchEdgeCases, EmptyBatch) {
  TypeParam p;
  EXPECT_EQ(p.insert_batch(nullptr, 0), 0u);
  EXPECT_EQ(p.remove_batch(nullptr, 0), 0u);
  EXPECT_TRUE(p.empty());
  expect_valid(p);

  // Also a no-op on a populated structure.
  std::vector<uint64_t> keys{5, 9, 200, 70000};
  p.insert_batch(std::vector<uint64_t>(keys));
  EXPECT_EQ(p.insert_batch(nullptr, 0), 0u);
  EXPECT_EQ(p.remove_batch(nullptr, 0), 0u);
  EXPECT_EQ(p.size(), keys.size());
  expect_valid(p);
}

TYPED_TEST(BatchEdgeCases, AllDuplicateBatch) {
  TypeParam p;
  // Every element the same key: exactly one insert happens.
  std::vector<uint64_t> batch(5000, 42);
  EXPECT_EQ(p.insert_batch(batch.data(), batch.size()), 1u);
  EXPECT_EQ(p.size(), 1u);
  EXPECT_TRUE(p.has(42));
  expect_valid(p);

  // Re-inserting the same all-duplicate batch adds nothing.
  std::vector<uint64_t> again(5000, 42);
  EXPECT_EQ(p.insert_batch(again.data(), again.size()), 0u);
  EXPECT_EQ(p.size(), 1u);

  // Removing it drains exactly the one key.
  std::vector<uint64_t> rm(5000, 42);
  EXPECT_EQ(p.remove_batch(rm.data(), rm.size()), 1u);
  EXPECT_TRUE(p.empty());
  expect_valid(p);
}

TYPED_TEST(BatchEdgeCases, BatchEqualsCurrentContents) {
  TypeParam p;
  Rng r(404);
  std::vector<uint64_t> keys(20000);
  for (auto& k : keys) k = 1 + (r.next() % (1ull << 40));
  p.insert_batch(std::vector<uint64_t>(keys));
  uint64_t n = p.size();

  // Full-overlap insert: every key already present, nothing is added and the
  // contents are unchanged.
  std::vector<uint64_t> overlap;
  p.map([&](uint64_t k) { overlap.push_back(k); });
  EXPECT_EQ(p.insert_batch(std::vector<uint64_t>(overlap)), 0u);
  EXPECT_EQ(p.size(), n);
  std::vector<uint64_t> after;
  p.map([&](uint64_t k) { after.push_back(k); });
  EXPECT_EQ(after, overlap);
  expect_valid(p);

  // Full-overlap remove: drains the structure completely.
  EXPECT_EQ(p.remove_batch(std::vector<uint64_t>(overlap)), n);
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.sum(), 0u);
  expect_valid(p);
}

TYPED_TEST(BatchEdgeCases, BatchSpansKeyZeroSentinel) {
  TypeParam p;
  // Key 0 is stored out-of-band (the leaf format uses 0 as the empty
  // sentinel); a batch mixing 0 with its neighbors must hit both paths.
  std::vector<uint64_t> batch{0, 1, 2, 0, 3, 0};
  EXPECT_EQ(p.insert_batch(batch.data(), batch.size()), 4u);
  EXPECT_EQ(p.size(), 4u);
  EXPECT_TRUE(p.has(0));
  EXPECT_EQ(p.min(), 0u);
  std::vector<uint64_t> got;
  p.map([&](uint64_t k) { got.push_back(k); });
  EXPECT_EQ(got, (std::vector<uint64_t>{0, 1, 2, 3}));
  expect_valid(p);

  // successor must see the sentinel too.
  auto suc = p.successor(0);
  ASSERT_TRUE(suc.has_value());
  EXPECT_EQ(*suc, 0u);

  // Removing a batch spanning the boundary removes 0 exactly once.
  std::vector<uint64_t> rm{0, 2, 0};
  EXPECT_EQ(p.remove_batch(rm.data(), rm.size()), 2u);
  EXPECT_FALSE(p.has(0));
  EXPECT_EQ(p.size(), 2u);
  got.clear();
  p.map([&](uint64_t k) { got.push_back(k); });
  EXPECT_EQ(got, (std::vector<uint64_t>{1, 3}));
  expect_valid(p);
}
