// Randomized differential harness: drives PMA, CPMA, and std::set through
// identical interleaved workloads (point inserts/removes, batch
// inserts/removes, successor probes, bounded range scans) and asserts
// elementwise parity plus structural invariants after every phase. This is
// the PaC-tree-style methodology: validate the compressed structures against
// an uncompressed reference on the exact same operation stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "pma/cpma.hpp"
#include "util/random.hpp"

using cpma::CPMA;
using cpma::PMA;
using cpma::util::Rng;

namespace {

// All three structures under one roof; every mutation goes through here so
// the operation streams cannot diverge.
struct Trio {
  PMA pma;
  CPMA cpma;
  std::set<uint64_t> ref;

  void insert(uint64_t k) {
    bool expect = ref.insert(k).second;
    ASSERT_EQ(pma.insert(k), expect) << "PMA insert(" << k << ")";
    ASSERT_EQ(cpma.insert(k), expect) << "CPMA insert(" << k << ")";
  }

  void remove(uint64_t k) {
    bool expect = ref.erase(k) == 1;
    ASSERT_EQ(pma.remove(k), expect) << "PMA remove(" << k << ")";
    ASSERT_EQ(cpma.remove(k), expect) << "CPMA remove(" << k << ")";
  }

  void insert_batch(std::vector<uint64_t> batch) {
    uint64_t expect = 0;
    for (uint64_t k : batch) expect += ref.insert(k).second ? 1 : 0;
    std::vector<uint64_t> copy = batch;  // batch calls may permute the input
    ASSERT_EQ(pma.insert_batch(copy.data(), copy.size()), expect);
    ASSERT_EQ(cpma.insert_batch(batch.data(), batch.size()), expect);
  }

  void remove_batch(std::vector<uint64_t> batch) {
    uint64_t expect = 0;
    for (uint64_t k : batch) expect += ref.erase(k);
    std::vector<uint64_t> copy = batch;
    ASSERT_EQ(pma.remove_batch(copy.data(), copy.size()), expect);
    ASSERT_EQ(cpma.remove_batch(batch.data(), batch.size()), expect);
  }

  // Full elementwise parity (iterator order + map order) and invariants.
  void check_full() {
    std::string err;
    ASSERT_TRUE(pma.check_invariants(&err)) << "PMA: " << err;
    ASSERT_TRUE(cpma.check_invariants(&err)) << "CPMA: " << err;

    ASSERT_EQ(pma.size(), ref.size());
    ASSERT_EQ(cpma.size(), ref.size());

    std::vector<uint64_t> expect(ref.begin(), ref.end());
    std::vector<uint64_t> got_pma;
    for (uint64_t k : pma) got_pma.push_back(k);
    ASSERT_EQ(got_pma, expect) << "PMA iteration order diverged";
    std::vector<uint64_t> got_cpma;
    cpma.map([&](uint64_t k) { got_cpma.push_back(k); });
    ASSERT_EQ(got_cpma, expect) << "CPMA map order diverged";

    uint64_t sum = 0;
    for (uint64_t k : expect) sum += k;
    ASSERT_EQ(pma.sum(), sum);
    ASSERT_EQ(cpma.sum(), sum);

    if (!ref.empty()) {
      ASSERT_EQ(pma.min(), *ref.begin());
      ASSERT_EQ(cpma.min(), *ref.begin());
      ASSERT_EQ(pma.max(), *ref.rbegin());
      ASSERT_EQ(cpma.max(), *ref.rbegin());
    }
  }

  // Spot queries: successor + bounded range scans at a probe key.
  void check_queries(uint64_t probe) {
    auto it = ref.lower_bound(probe);
    std::optional<uint64_t> expect =
        it == ref.end() ? std::nullopt : std::optional<uint64_t>(*it);
    ASSERT_EQ(pma.successor(probe), expect) << "probe=" << probe;
    ASSERT_EQ(cpma.successor(probe), expect) << "probe=" << probe;

    ASSERT_EQ(pma.has(probe), ref.count(probe) == 1);
    ASSERT_EQ(cpma.has(probe), ref.count(probe) == 1);

    const uint64_t len = 64;
    std::vector<uint64_t> expect_range;
    for (auto jt = it; jt != ref.end() && expect_range.size() < len; ++jt) {
      expect_range.push_back(*jt);
    }
    std::vector<uint64_t> got;
    uint64_t n = pma.map_range_length([&](uint64_t k) { got.push_back(k); },
                                      probe, len);
    ASSERT_EQ(n, expect_range.size());
    ASSERT_EQ(got, expect_range) << "PMA range scan diverged at " << probe;
    got.clear();
    n = cpma.map_range_length([&](uint64_t k) { got.push_back(k); }, probe,
                              len);
    ASSERT_EQ(n, expect_range.size());
    ASSERT_EQ(got, expect_range) << "CPMA range scan diverged at " << probe;
  }
};

// ~1e5 elementary operations per seed: interleaved phases of point ops,
// batches, and deletions over a bounded key space so collisions, duplicate
// inserts, and misses all occur.
void run_differential(uint64_t seed, uint64_t space) {
  Trio t;
  Rng r(seed);
  uint64_t ops = 0;
  const uint64_t target_ops = 100'000;
  int phase = 0;
  while (ops < target_ops) {
    int op = static_cast<int>(r.next() % 12);
    if (op < 5) {  // point insert
      t.insert(r.next() % space);
      if (::testing::Test::HasFatalFailure()) return;
      ops += 1;
    } else if (op < 8) {  // point remove
      t.remove(r.next() % space);
      if (::testing::Test::HasFatalFailure()) return;
      ops += 1;
    } else if (op < 10) {  // batch insert (unsorted, with duplicates)
      std::vector<uint64_t> batch(1 + r.next() % 2000);
      for (auto& k : batch) k = r.next() % space;
      ops += batch.size();
      t.insert_batch(std::move(batch));
      if (::testing::Test::HasFatalFailure()) return;
    } else if (op == 10) {  // batch remove
      std::vector<uint64_t> batch(1 + r.next() % 1000);
      for (auto& k : batch) k = r.next() % space;
      ops += batch.size();
      t.remove_batch(std::move(batch));
      if (::testing::Test::HasFatalFailure()) return;
    } else {  // queries
      t.check_queries(r.next() % space);
      if (::testing::Test::HasFatalFailure()) return;
      ops += 1;
    }
    // Full parity + invariants at phase boundaries (every ~1/16 of the run);
    // doing it after every op would be quadratic in the set size.
    if (ops > (phase + 1) * (target_ops / 16)) {
      ++phase;
      t.check_full();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  t.check_full();
}

class Differential
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(Differential, PmaCpmaSetParity) {
  auto [seed, space] = GetParam();
  run_differential(seed, space);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, Differential,
    ::testing::Values(std::make_tuple(1, 1 << 10),   // dense: heavy collisions
                      std::make_tuple(2, 1 << 16),   // medium
                      std::make_tuple(3, uint64_t{1} << 40),  // sparse 40-bit
                      std::make_tuple(4, 1 << 4)),   // tiny space, churn
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_space2e" +
             std::to_string(64 - __builtin_clzll(std::get<1>(info.param)) - 1);
    });

// Deletion-heavy convergence: fill, then drain through interleaved point and
// batch removes, checking parity down to empty.
TEST(Differential, DrainToEmpty) {
  Trio t;
  Rng r(99);
  std::vector<uint64_t> keys(20'000);
  for (auto& k : keys) k = r.next() % 100'000;
  t.insert_batch(keys);
  if (::testing::Test::HasFatalFailure()) return;
  t.check_full();
  if (::testing::Test::HasFatalFailure()) return;
  while (!t.ref.empty()) {
    std::vector<uint64_t> victims;
    uint64_t take = 1 + r.next() % 4000;
    for (uint64_t k : t.ref) {
      if (victims.size() == take) break;
      if (r.next() % 2 == 0) victims.push_back(k);
    }
    if (victims.empty()) victims.push_back(*t.ref.begin());
    t.remove_batch(victims);
    if (::testing::Test::HasFatalFailure()) return;
    t.check_full();
    if (::testing::Test::HasFatalFailure()) return;
  }
  ASSERT_TRUE(t.pma.empty());
  ASSERT_TRUE(t.cpma.empty());
}

}  // namespace
