// Stress tests for the direct-spread resize path: repeated grows and
// shrinks driven through every resize caller (merge-path root violation,
// remove-path shrink, and the point-update rebalance walk), checked
// differentially against std::set. The direct spread stitches encoded
// source runs straight into the resized array, so these tests hammer the
// split/join bookkeeping with dense, sparse, skewed, and near-2^64 keys.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "pma/cpma.hpp"
#include "scalar_only_codec.hpp"
#include "util/random.hpp"

using cpma::CPMA;
using cpma::PMA;
using cpma::util::Rng;

template <typename T>
class PmaResizeTest : public ::testing::Test {};

using Engines = ::testing::Types<PMA, CPMA, ScalarCPMA>;
TYPED_TEST_SUITE(PmaResizeTest, Engines);

namespace {

template <typename T>
void expect_matches_reference(const T& p, const std::set<uint64_t>& ref,
                              const char* where) {
  std::string err;
  ASSERT_TRUE(p.check_invariants(&err)) << where << ": " << err;
  ASSERT_EQ(p.size(), ref.size()) << where;
  std::vector<uint64_t> got;
  got.reserve(ref.size());
  p.map([&](uint64_t k) { got.push_back(k); });
  ASSERT_EQ(got, std::vector<uint64_t>(ref.begin(), ref.end())) << where;
}

}  // namespace

TYPED_TEST(PmaResizeTest, RepeatedMergePathGrowsMatchReference) {
  // Merge-regime batches (< count/10, so never the rebuild strategy) until
  // the array has grown several times; every grow runs the direct spread.
  TypeParam p;
  Rng r(101);
  std::set<uint64_t> ref;
  std::vector<uint64_t> base(100000);
  for (auto& k : base) k = 1 + (r.next() % (1ull << 40));
  for (uint64_t k : base) ref.insert(k);
  p.insert_batch(base.data(), base.size());
  p.reset_batch_phase_times();
  int grows = 0;
  uint64_t bytes = p.total_bytes();
  for (int round = 0; round < 80 && grows < 4; ++round) {
    std::vector<uint64_t> batch(p.size() / 20);
    for (auto& k : batch) k = 1 + (r.next() % (1ull << 40));
    for (uint64_t k : batch) ref.insert(k);
    p.insert_batch(batch.data(), batch.size());
    ASSERT_EQ(p.size(), ref.size()) << "round " << round;
    if (p.total_bytes() > bytes) {
      ++grows;
      bytes = p.total_bytes();
      expect_matches_reference(p, ref, "after grow");
    }
  }
  ASSERT_GE(grows, 4) << "stress did not force repeated grows";
  EXPECT_GE(p.batch_phase_times().spreads, 4u);
  expect_matches_reference(p, ref, "final");
}

TYPED_TEST(PmaResizeTest, RepeatedRemoveShrinksMatchReference) {
  // Merge-regime remove batches (sampled from the stored keys) until the
  // array has shrunk repeatedly; shrinks run the direct spread too.
  TypeParam p;
  Rng r(102);
  std::set<uint64_t> ref;
  std::vector<uint64_t> base(200000);
  for (auto& k : base) k = 1 + (r.next() % (1ull << 40));
  for (uint64_t k : base) ref.insert(k);
  p.insert_batch(base.data(), base.size());
  int shrinks = 0;
  int round = 0;
  while (p.size() > 2000 && round < 300) {
    ++round;
    std::vector<uint64_t> rm;
    uint64_t want = p.size() / 12;  // < count/10: merge path
    auto it = ref.begin();
    for (uint64_t i = 0; i < want && it != ref.end(); ++i) {
      rm.push_back(*it);
      for (int s = 0; s < 13 && it != ref.end(); ++s) ++it;
    }
    for (uint64_t k : rm) ref.erase(k);
    uint64_t bytes = p.total_bytes();
    p.remove_batch(rm.data(), rm.size());
    ASSERT_EQ(p.size(), ref.size()) << "round " << round;
    if (p.total_bytes() < bytes) {
      ++shrinks;
      expect_matches_reference(p, ref, "after shrink");
    }
  }
  // One resize can take several shrink steps at once, so distinct shrink
  // events undercount the factor actually reclaimed.
  ASSERT_GE(shrinks, 2) << "stress did not force repeated shrinks";
  expect_matches_reference(p, ref, "final");
}

TYPED_TEST(PmaResizeTest, GrowShrinkCyclesStayConsistent) {
  // Alternate growth bursts and removal bursts so the array resizes in both
  // directions across the same key population.
  TypeParam p;
  Rng r(103);
  std::set<uint64_t> ref;
  std::vector<uint64_t> base(60000);
  for (auto& k : base) k = 1 + (r.next() % (1ull << 36));
  for (uint64_t k : base) ref.insert(k);
  p.insert_batch(base.data(), base.size());
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int round = 0; round < 12; ++round) {
      std::vector<uint64_t> batch(p.size() / 15);
      for (auto& k : batch) k = 1 + (r.next() % (1ull << 36));
      for (uint64_t k : batch) ref.insert(k);
      p.insert_batch(batch.data(), batch.size());
      ASSERT_EQ(p.size(), ref.size()) << "cycle " << cycle;
    }
    for (int round = 0; round < 10; ++round) {
      std::vector<uint64_t> rm;
      uint64_t want = p.size() / 12;
      auto it = ref.begin();
      for (uint64_t i = 0; i < want && it != ref.end(); ++i) {
        rm.push_back(*it);
        for (int s = 0; s < 11 && it != ref.end(); ++s) ++it;
      }
      for (uint64_t k : rm) ref.erase(k);
      p.remove_batch(rm.data(), rm.size());
      ASSERT_EQ(p.size(), ref.size()) << "cycle " << cycle;
    }
    expect_matches_reference(p, ref, "cycle end");
  }
}

TYPED_TEST(PmaResizeTest, PointUpdateResizesMatchReference) {
  // Point inserts drive rebalance_insert's root-violation resize (the same
  // direct spread, via resize_rebuild); point removes drive the shrink.
  TypeParam p;
  Rng r(104);
  std::set<uint64_t> ref;
  int grows = 0;
  uint64_t bytes = p.total_bytes();
  for (int i = 0; i < 60000; ++i) {
    uint64_t k = 1 + (r.next() % (1ull << 40));
    ASSERT_EQ(p.insert(k), ref.insert(k).second);
    if (p.total_bytes() > bytes) {
      ++grows;
      bytes = p.total_bytes();
    }
  }
  ASSERT_GE(grows, 2) << "point inserts never grew the array";
  expect_matches_reference(p, ref, "after point grows");
  int shrinks = 0;
  while (ref.size() > 500) {
    auto it = ref.begin();
    uint64_t k = *it;
    ref.erase(it);
    ASSERT_TRUE(p.remove(k));
    if (p.total_bytes() < bytes) {
      ++shrinks;
      bytes = p.total_bytes();
    }
  }
  ASSERT_GE(shrinks, 1) << "point removes never shrank the array";
  expect_matches_reference(p, ref, "after point shrinks");
}

TYPED_TEST(PmaResizeTest, SkewedOverflowingBatchesAcrossGrows) {
  // Batches concentrated on one leaf overflow it out-of-place; when the same
  // batch violates the root bound, the direct spread must splice the
  // overflowed leaf's flat keys in between the encoded runs.
  TypeParam p;
  Rng r(105);
  std::set<uint64_t> ref;
  std::vector<uint64_t> base(80000);
  for (auto& k : base) k = 1 + (r.next() % (1ull << 40));
  for (uint64_t k : base) ref.insert(k);
  p.insert_batch(base.data(), base.size());
  int grows = 0;
  uint64_t bytes = p.total_bytes();
  for (int round = 0; round < 40 && grows < 3; ++round) {
    std::vector<uint64_t> batch(p.size() / 15);
    uint64_t center = 1 + (r.next() % (1ull << 40));
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i] = (i % 8 == 0) ? 1 + (r.next() % (1ull << 40))
                              : center + (r.next() % 8192);
    }
    for (uint64_t k : batch) ref.insert(k);
    p.insert_batch(batch.data(), batch.size());
    ASSERT_EQ(p.size(), ref.size()) << "round " << round;
    if (p.total_bytes() > bytes) {
      ++grows;
      bytes = p.total_bytes();
      expect_matches_reference(p, ref, "after skewed grow");
    }
  }
  ASSERT_GE(grows, 3);
  expect_matches_reference(p, ref, "final");
}

TYPED_TEST(PmaResizeTest, HugeDeltasAndSentinelSurviveResizes) {
  // Keys spanning the full 64-bit range make source-leaf join deltas encode
  // larger than the 8-byte heads they replace (the join-excess accounting),
  // and the out-of-band zero key must ride along untouched.
  TypeParam p;
  Rng r(106);
  std::set<uint64_t> ref;
  std::vector<uint64_t> base;
  base.push_back(0);
  for (int i = 0; i < 30000; ++i) base.push_back(1 + (r.next() % (1ull << 62)));
  for (uint64_t k : base) ref.insert(k);
  p.insert_batch(base.data(), base.size());
  uint64_t bytes = p.total_bytes();
  int grows = 0;
  for (int round = 0; round < 60 && grows < 3; ++round) {
    std::vector<uint64_t> batch(p.size() / 20);
    for (auto& k : batch) k = 1 + (r.next() % (1ull << 62));
    for (uint64_t k : batch) ref.insert(k);
    p.insert_batch(batch.data(), batch.size());
    ASSERT_EQ(p.size(), ref.size()) << "round " << round;
    if (p.total_bytes() > bytes) {
      ++grows;
      bytes = p.total_bytes();
    }
  }
  ASSERT_GE(grows, 3);
  EXPECT_TRUE(p.has(0));
  expect_matches_reference(p, ref, "final");
}
