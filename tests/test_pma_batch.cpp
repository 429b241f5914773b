// Tests for the parallel batch-update algorithm (Section 4): batch inserts
// and removes across the three strategy regimes (point loop, batch merge,
// full rebuild), overflow handling, duplicate handling, and agreement with a
// reference std::set under interleaved batch workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "pma/cpma.hpp"
#include "scalar_only_codec.hpp"
#include "util/random.hpp"
#include "util/zipf.hpp"

using cpma::CPMA;
using cpma::PMA;
using cpma::util::Rng;

template <typename T>
class PmaBatchTest : public ::testing::Test {};

using Engines = ::testing::Types<PMA, CPMA, ScalarCPMA>;
TYPED_TEST_SUITE(PmaBatchTest, Engines);

template <typename T>
void expect_invariants(const T& p) {
  std::string err;
  ASSERT_TRUE(p.check_invariants(&err)) << err;
}

template <typename T>
std::vector<uint64_t> contents(const T& p) {
  std::vector<uint64_t> out;
  p.map([&](uint64_t k) { out.push_back(k); });
  return out;
}

TYPED_TEST(PmaBatchTest, EmptyBatchIsANoop) {
  TypeParam p;
  EXPECT_EQ(p.insert_batch(nullptr, 0), 0u);
  EXPECT_EQ(p.remove_batch(nullptr, 0), 0u);
  EXPECT_EQ(p.size(), 0u);
}

TYPED_TEST(PmaBatchTest, BatchIntoEmptyStructure) {
  TypeParam p;
  std::vector<uint64_t> batch{5, 1, 9, 3, 7};
  EXPECT_EQ(p.insert_batch(batch.data(), batch.size()), 5u);
  EXPECT_EQ(contents(p), (std::vector<uint64_t>{1, 3, 5, 7, 9}));
  expect_invariants(p);
}

TYPED_TEST(PmaBatchTest, SortedFlagSkipsSorting) {
  TypeParam p;
  std::vector<uint64_t> batch{1, 3, 5, 7, 9};
  EXPECT_EQ(p.insert_batch(batch.data(), batch.size(), /*sorted=*/true), 5u);
  EXPECT_EQ(contents(p), batch);
}

TYPED_TEST(PmaBatchTest, DuplicatesWithinBatchCountOnce) {
  TypeParam p;
  std::vector<uint64_t> batch{4, 4, 4, 2, 2, 8};
  EXPECT_EQ(p.insert_batch(batch.data(), batch.size()), 3u);
  EXPECT_EQ(p.size(), 3u);
}

TYPED_TEST(PmaBatchTest, DuplicatesOfExistingKeysDoNotCount) {
  TypeParam p;
  std::vector<uint64_t> first{1, 2, 3};
  p.insert_batch(first.data(), first.size());
  std::vector<uint64_t> second{2, 3, 4, 5};
  EXPECT_EQ(p.insert_batch(second.data(), second.size()), 2u);
  EXPECT_EQ(p.size(), 5u);
}

TYPED_TEST(PmaBatchTest, ZeroKeyInBatch) {
  TypeParam p;
  std::vector<uint64_t> batch{0, 0, 5, 9};
  EXPECT_EQ(p.insert_batch(batch.data(), batch.size()), 3u);
  EXPECT_TRUE(p.has(0));
  EXPECT_EQ(p.size(), 3u);
  std::vector<uint64_t> rm{0, 9};
  EXPECT_EQ(p.remove_batch(rm.data(), rm.size()), 2u);
  EXPECT_FALSE(p.has(0));
  EXPECT_EQ(contents(p), (std::vector<uint64_t>{5}));
}

// The three regimes: small (point loop), medium (batch merge), huge (rebuild).
TYPED_TEST(PmaBatchTest, SmallBatchUsesPointPath) {
  TypeParam p;
  std::vector<uint64_t> base(100000);
  for (size_t i = 0; i < base.size(); ++i) base[i] = (i + 1) * 5;
  p.insert_batch(base.data(), base.size());
  std::vector<uint64_t> batch{7, 13, 21};  // < kPointThreshold
  EXPECT_EQ(p.insert_batch(batch.data(), batch.size()), 3u);
  EXPECT_EQ(p.size(), 100003u);
  expect_invariants(p);
}

TYPED_TEST(PmaBatchTest, MediumBatchUsesMergePath) {
  TypeParam p;
  Rng r(1);
  std::vector<uint64_t> base(200000);
  for (auto& k : base) k = 1 + (r.next() % (1ull << 40));
  p.insert_batch(base.data(), base.size());
  const uint64_t before = p.size();
  // ~1% of current size: squarely in the merge regime.
  std::vector<uint64_t> batch(2000);
  for (auto& k : batch) k = 1 + (r.next() % (1ull << 40));
  std::set<uint64_t> uniq(batch.begin(), batch.end());
  uint64_t expected_new = 0;
  for (uint64_t k : uniq) expected_new += p.has(k) ? 0 : 1;
  EXPECT_EQ(p.insert_batch(batch.data(), batch.size()), expected_new);
  EXPECT_EQ(p.size(), before + expected_new);
  expect_invariants(p);
  for (uint64_t k : uniq) EXPECT_TRUE(p.has(k));
}

TYPED_TEST(PmaBatchTest, HugeBatchUsesRebuildPath) {
  TypeParam p;
  Rng r(2);
  std::vector<uint64_t> base(50000);
  for (auto& k : base) k = 1 + (r.next() % (1ull << 40));
  p.insert_batch(base.data(), base.size());
  std::vector<uint64_t> batch(40000);  // ~80%: rebuild regime
  for (auto& k : batch) k = 1 + (r.next() % (1ull << 40));
  std::set<uint64_t> ref(base.begin(), base.end());
  uint64_t before_unique = ref.size();
  for (uint64_t k : batch) ref.insert(k);
  EXPECT_EQ(p.insert_batch(batch.data(), batch.size()),
            ref.size() - before_unique);
  EXPECT_EQ(p.size(), ref.size());
  expect_invariants(p);
  EXPECT_EQ(contents(p), std::vector<uint64_t>(ref.begin(), ref.end()));
}

TYPED_TEST(PmaBatchTest, SkewedBatchOverflowsOneLeaf) {
  // All batch keys land in a single leaf: exercises the out-of-place
  // overflow + redistribution path of Figure 4.
  TypeParam p;
  std::vector<uint64_t> base;
  for (uint64_t i = 1; i <= 100000; ++i) base.push_back(i * 1000000);
  p.insert_batch(base.data(), base.size());
  // Offset by 1 so no batch key collides with the multiples of 1e6 in base.
  std::vector<uint64_t> batch;
  for (uint64_t i = 0; i < 5000; ++i) batch.push_back(500000001 + i);
  EXPECT_EQ(p.insert_batch(batch.data(), batch.size()), batch.size());
  expect_invariants(p);
  for (uint64_t k : batch) ASSERT_TRUE(p.has(k));
  EXPECT_EQ(p.size(), base.size() + batch.size());
}

TYPED_TEST(PmaBatchTest, BatchRemoveBasic) {
  TypeParam p;
  std::vector<uint64_t> base{1, 2, 3, 4, 5, 6, 7, 8};
  p.insert_batch(base.data(), base.size());
  std::vector<uint64_t> rm{2, 4, 6, 100};  // 100 absent
  EXPECT_EQ(p.remove_batch(rm.data(), rm.size()), 3u);
  EXPECT_EQ(contents(p), (std::vector<uint64_t>{1, 3, 5, 7, 8}));
  expect_invariants(p);
}

TYPED_TEST(PmaBatchTest, BatchRemoveMergeRegime) {
  TypeParam p;
  Rng r(3);
  std::vector<uint64_t> base(300000);
  for (auto& k : base) k = 1 + (r.next() % (1ull << 40));
  p.insert_batch(base.data(), base.size());
  std::set<uint64_t> ref;
  p.map([&](uint64_t k) { ref.insert(k); });
  // Remove ~1% of the keys (half existing, half absent).
  std::vector<uint64_t> rm;
  auto it = ref.begin();
  for (int i = 0; i < 1500 && it != ref.end(); ++i) {
    rm.push_back(*it);
    std::advance(it, 97);
  }
  size_t present = rm.size();
  for (int i = 0; i < 1500; ++i) rm.push_back(2 + (r.next() | (1ull << 41)));
  EXPECT_EQ(p.remove_batch(rm.data(), rm.size()), present);
  for (size_t i = 0; i < present; ++i) ref.erase(rm[i]);
  EXPECT_EQ(p.size(), ref.size());
  expect_invariants(p);
}

TYPED_TEST(PmaBatchTest, BatchRemoveEverything) {
  TypeParam p;
  Rng r(4);
  std::vector<uint64_t> base(100000);
  for (auto& k : base) k = 1 + (r.next() % (1ull << 40));
  p.insert_batch(base.data(), base.size());
  std::vector<uint64_t> all = contents(p);
  EXPECT_EQ(p.remove_batch(all.data(), all.size()), all.size());
  EXPECT_EQ(p.size(), 0u);
  expect_invariants(p);
  // Still usable.
  std::vector<uint64_t> batch{10, 20};
  EXPECT_EQ(p.insert_batch(batch.data(), batch.size()), 2u);
}

TYPED_TEST(PmaBatchTest, RepeatedBatchesGrowTheArray) {
  TypeParam p;
  Rng r(5);
  uint64_t expected = 0;
  std::set<uint64_t> ref;
  for (int round = 0; round < 20; ++round) {
    std::vector<uint64_t> batch(20000);
    for (auto& k : batch) k = 1 + (r.next() % (1ull << 40));
    for (uint64_t k : batch) ref.insert(k);
    p.insert_batch(batch.data(), batch.size());
    expected = ref.size();
    ASSERT_EQ(p.size(), expected) << "round " << round;
  }
  expect_invariants(p);
  EXPECT_EQ(contents(p), std::vector<uint64_t>(ref.begin(), ref.end()));
}

TYPED_TEST(PmaBatchTest, InterleavedBatchInsertRemoveAgainstReference) {
  TypeParam p;
  std::set<uint64_t> ref;
  Rng r(6);
  for (int round = 0; round < 15; ++round) {
    std::vector<uint64_t> ins(5000);
    for (auto& k : ins) k = 1 + (r.next() % 200000);  // dense => many dups
    for (uint64_t k : ins) ref.insert(k);
    p.insert_batch(ins.data(), ins.size());
    ASSERT_EQ(p.size(), ref.size());

    std::vector<uint64_t> rm(2500);
    for (auto& k : rm) k = 1 + (r.next() % 200000);
    for (uint64_t k : rm) ref.erase(k);
    p.remove_batch(rm.data(), rm.size());
    ASSERT_EQ(p.size(), ref.size()) << "round " << round;
  }
  expect_invariants(p);
  EXPECT_EQ(contents(p), std::vector<uint64_t>(ref.begin(), ref.end()));
}

TYPED_TEST(PmaBatchTest, ZipfianBatches) {
  TypeParam p;
  cpma::util::ZipfGenerator z(1 << 20, 0.99, 9);
  std::set<uint64_t> ref;
  uint64_t idx = 0;
  for (int round = 0; round < 10; ++round) {
    std::vector<uint64_t> batch(10000);
    for (auto& k : batch) k = z.key(idx++);
    for (uint64_t k : batch) ref.insert(k);
    p.insert_batch(batch.data(), batch.size());
    ASSERT_EQ(p.size(), ref.size()) << "round " << round;
  }
  expect_invariants(p);
}

TYPED_TEST(PmaBatchTest, BatchSizesSweep) {
  // One test per decade of batch size, hitting every strategy crossover.
  for (uint64_t batch_size : {8ull, 100ull, 1000ull, 20000ull, 200000ull}) {
    TypeParam p;
    Rng r(batch_size);
    std::vector<uint64_t> base(100000);
    for (auto& k : base) k = 1 + (r.next() % (1ull << 40));
    p.insert_batch(base.data(), base.size());
    std::set<uint64_t> ref;
    p.map([&](uint64_t k) { ref.insert(k); });
    std::vector<uint64_t> batch(batch_size);
    for (auto& k : batch) k = 1 + (r.next() % (1ull << 40));
    for (uint64_t k : batch) ref.insert(k);
    p.insert_batch(batch.data(), batch.size());
    ASSERT_EQ(p.size(), ref.size()) << "batch_size=" << batch_size;
    expect_invariants(p);
  }
}

TYPED_TEST(PmaBatchTest, ZipfSkewedBatchConcentratesOnOneLeaf) {
  // Base keys spread wide; Zipf-skewed batches concentrate most keys in the
  // lowest leaf's range (hot keys are small), so one leaf repeatedly takes
  // nearly the whole batch while a few keys scatter elsewhere.
  TypeParam p;
  std::vector<uint64_t> base;
  for (uint64_t i = 1; i <= 100000; ++i) base.push_back(i * (1ull << 22));
  p.insert_batch(base.data(), base.size());
  std::set<uint64_t> ref(base.begin(), base.end());
  cpma::util::ZipfGenerator z(1 << 30, 0.99, 17);
  uint64_t idx = 0;
  for (int round = 0; round < 5; ++round) {
    std::vector<uint64_t> batch(4000);
    for (auto& k : batch) k = z.key(idx++);
    for (uint64_t k : batch) ref.insert(k);
    p.insert_batch(batch.data(), batch.size());
    ASSERT_EQ(p.size(), ref.size()) << "round " << round;
    expect_invariants(p);
  }
  EXPECT_EQ(contents(p), std::vector<uint64_t>(ref.begin(), ref.end()));
}

TYPED_TEST(PmaBatchTest, BatchSizesStraddleMergeRebuildCrossover) {
  // The strategy crossover is n >= count_/10; exercise one batch just
  // below, at, and just above it on identically-built structures.
  for (int64_t offset : {-1, 0, 1}) {
    TypeParam p;
    Rng r(42);
    std::vector<uint64_t> base(100000);
    for (auto& k : base) k = 1 + (r.next() % (1ull << 40));
    p.insert_batch(base.data(), base.size());
    const uint64_t count = p.size();
    std::set<uint64_t> ref;
    p.map([&](uint64_t k) { ref.insert(k); });
    const uint64_t n =
        static_cast<uint64_t>(static_cast<int64_t>(count / 10) + offset);
    std::vector<uint64_t> batch(n);
    for (auto& k : batch) k = 1 + (r.next() % (1ull << 40));
    for (uint64_t k : batch) ref.insert(k);
    p.insert_batch(batch.data(), batch.size());
    ASSERT_EQ(p.size(), ref.size()) << "offset " << offset;
    expect_invariants(p);
    EXPECT_EQ(contents(p), std::vector<uint64_t>(ref.begin(), ref.end()));
  }
}

TYPED_TEST(PmaBatchTest, MergePathGrowsOnRootViolation) {
  // Feed merge-regime batches (always < count/10) until the array must
  // grow: some batch hits the root bound inside insert_batch_merge and
  // takes the pack-and-rebuild-larger path.
  TypeParam p;
  Rng r(43);
  std::vector<uint64_t> base(200000);
  for (auto& k : base) k = 1 + (r.next() % (1ull << 40));
  p.insert_batch(base.data(), base.size());
  std::set<uint64_t> ref;
  p.map([&](uint64_t k) { ref.insert(k); });
  const uint64_t bytes_before = p.total_bytes();
  bool grew = false;
  for (int round = 0; round < 60 && !grew; ++round) {
    std::vector<uint64_t> batch(p.size() / 20);
    for (auto& k : batch) k = 1 + (r.next() % (1ull << 40));
    for (uint64_t k : batch) ref.insert(k);
    p.insert_batch(batch.data(), batch.size());
    ASSERT_EQ(p.size(), ref.size()) << "round " << round;
    grew = p.total_bytes() > bytes_before;
  }
  ASSERT_TRUE(grew) << "no merge-path batch triggered a grow";
  expect_invariants(p);
  EXPECT_EQ(contents(p), std::vector<uint64_t>(ref.begin(), ref.end()));
}

TEST(BatchPhaseTimes, PlusEqualsAddsEveryField) {
  cpma::pma::BatchPhaseTimes a{1, 2, 3, 4, 5, 6, 7, 8, 9};
  const cpma::pma::BatchPhaseTimes b{10, 20, 30, 40, 50, 60, 70, 80, 90};
  cpma::pma::BatchPhaseTimes& r = (a += b);
  EXPECT_EQ(&r, &a);
  EXPECT_EQ(a.route_ns, 11u);
  EXPECT_EQ(a.merge_ns, 22u);
  EXPECT_EQ(a.count_ns, 33u);
  EXPECT_EQ(a.redistribute_ns, 44u);
  EXPECT_EQ(a.spread_ns, 55u);
  EXPECT_EQ(a.rebuild_ns, 66u);
  EXPECT_EQ(a.batches, 77u);
  EXPECT_EQ(a.rebuilds, 88u);
  EXPECT_EQ(a.spreads, 99u);
  EXPECT_EQ(b.route_ns, 10u);  // the right-hand side is untouched
}

TYPED_TEST(PmaBatchTest, PhaseTimesAccumulateAcrossStrategies) {
  TypeParam p;
  EXPECT_EQ(p.batch_phase_times().batches, 0u);
  Rng r(44);
  std::vector<uint64_t> base(100000);
  for (auto& k : base) k = 1 + (r.next() % (1ull << 40));
  p.insert_batch(base.data(), base.size());  // rebuild strategy
  EXPECT_EQ(p.batch_phase_times().rebuilds, 1u);
  std::vector<uint64_t> batch(2000);  // merge strategy
  for (auto& k : batch) k = 1 + (r.next() % (1ull << 40));
  p.insert_batch(batch.data(), batch.size());
  const auto& t = p.batch_phase_times();
  EXPECT_EQ(t.batches, 1u);
  EXPECT_GT(t.merge_ns, 0u);
  p.reset_batch_phase_times();
  EXPECT_EQ(p.batch_phase_times().batches, 0u);
  EXPECT_EQ(p.batch_phase_times().merge_ns, 0u);
}

TYPED_TEST(PmaBatchTest, SpreadTimesPopulatedByGrowRebuildOnlyByHugeBatches) {
  // Drive merge-regime batches (always < count/10, so never the rebuild
  // strategy) until one violates the root bound and grows: that grow must be
  // accounted to the direct-spread phase, and rebuild_ns must stay untouched
  // because only the huge-batch strategy rebuilds.
  TypeParam p;
  Rng r(45);
  std::vector<uint64_t> base(150000);
  for (auto& k : base) k = 1 + (r.next() % (1ull << 40));
  p.insert_batch(base.data(), base.size());  // huge batch: rebuild strategy
  EXPECT_GT(p.batch_phase_times().rebuild_ns, 0u);
  EXPECT_EQ(p.batch_phase_times().spreads, 0u);
  p.reset_batch_phase_times();
  const uint64_t bytes_before = p.total_bytes();
  bool grew = false;
  for (int round = 0; round < 60 && !grew; ++round) {
    std::vector<uint64_t> batch(p.size() / 20);
    for (auto& k : batch) k = 1 + (r.next() % (1ull << 40));
    p.insert_batch(batch.data(), batch.size());
    grew = p.total_bytes() > bytes_before;
  }
  ASSERT_TRUE(grew) << "no merge-path batch triggered a grow";
  const auto& t = p.batch_phase_times();
  EXPECT_GT(t.spreads, 0u);
  EXPECT_GT(t.spread_ns, 0u);
  EXPECT_EQ(t.rebuilds, 0u);
  EXPECT_EQ(t.rebuild_ns, 0u) << "merge-path grows must not rebuild";
  std::string err;
  EXPECT_TRUE(p.check_invariants(&err)) << err;
}

TYPED_TEST(PmaBatchTest, MixedPointAndBatchOperations) {
  TypeParam p;
  std::set<uint64_t> ref;
  Rng r(8);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 200; ++i) {
      uint64_t k = 1 + r.next() % 100000;
      EXPECT_EQ(p.insert(k), ref.insert(k).second);
    }
    std::vector<uint64_t> batch(3000);
    for (auto& k : batch) k = 1 + (r.next() % 100000);
    for (uint64_t k : batch) ref.insert(k);
    p.insert_batch(batch.data(), batch.size());
    for (int i = 0; i < 100; ++i) {
      uint64_t k = 1 + r.next() % 100000;
      EXPECT_EQ(p.remove(k), ref.erase(k) == 1);
    }
    ASSERT_EQ(p.size(), ref.size());
  }
  expect_invariants(p);
  EXPECT_EQ(contents(p), std::vector<uint64_t>(ref.begin(), ref.end()));
}
