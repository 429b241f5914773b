// ShardedPMA differential + boundary suite.
//
// Methodology mirrors test_differential.cpp: drive the sharded composition,
// the direct single engine, and std::set through identical operation
// streams and assert elementwise parity plus structural invariants — for
// both leaf policies, with shard counts > 1 and workloads skewed enough to
// trigger adaptive rebalancing. Boundary coverage pins down the key-0
// sentinel, UINT64_MAX, and keys exactly at / adjacent to shard splitters.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "pma/cpma.hpp"
#include "scalar_only_codec.hpp"
#include "util/random.hpp"

using cpma::pma::ShardedPMA;
using cpma::pma::ShardedSettings;
using cpma::util::Rng;

namespace {

template <typename E>
struct ShardedCase {
  using Engine = E;
};

using Engines = ::testing::Types<ShardedCase<cpma::PMA>,
                                 ShardedCase<cpma::CPMA>,
                                 ShardedCase<ScalarCPMA>>;

template <typename Case>
class Sharded : public ::testing::Test {};
TYPED_TEST_SUITE(Sharded, Engines);

// Aggressive rebalance settings so small test workloads exercise the
// boundary-move machinery (the defaults only trigger past 1 MiB).
ShardedSettings test_settings(uint64_t shards) {
  ShardedSettings s;
  s.num_shards = shards;
  s.rebalance_ratio = 1.5;
  s.min_rebalance_bytes = 1 << 12;
  return s;
}

// Sharded + direct engine + std::set under one operation stream.
template <typename Engine>
struct Trio {
  ShardedPMA<Engine> sharded;
  Engine direct;
  std::set<uint64_t> ref;

  explicit Trio(uint64_t shards) : sharded(test_settings(shards)) {}

  void insert(uint64_t k) {
    bool expect = ref.insert(k).second;
    ASSERT_EQ(sharded.insert(k), expect) << "sharded insert(" << k << ")";
    ASSERT_EQ(direct.insert(k), expect) << "direct insert(" << k << ")";
  }

  void remove(uint64_t k) {
    bool expect = ref.erase(k) == 1;
    ASSERT_EQ(sharded.remove(k), expect) << "sharded remove(" << k << ")";
    ASSERT_EQ(direct.remove(k), expect) << "direct remove(" << k << ")";
  }

  void insert_batch(std::vector<uint64_t> batch) {
    uint64_t expect = 0;
    for (uint64_t k : batch) expect += ref.insert(k).second ? 1 : 0;
    std::vector<uint64_t> copy = batch;
    ASSERT_EQ(sharded.insert_batch(copy.data(), copy.size()), expect);
    ASSERT_EQ(direct.insert_batch(batch.data(), batch.size()), expect);
  }

  void remove_batch(std::vector<uint64_t> batch) {
    uint64_t expect = 0;
    for (uint64_t k : batch) expect += ref.erase(k);
    std::vector<uint64_t> copy = batch;
    ASSERT_EQ(sharded.remove_batch(copy.data(), copy.size()), expect);
    ASSERT_EQ(direct.remove_batch(batch.data(), batch.size()), expect);
  }

  void check_full() {
    std::string err;
    ASSERT_TRUE(sharded.check_invariants(&err)) << "sharded: " << err;
    ASSERT_TRUE(direct.check_invariants(&err)) << "direct: " << err;
    ASSERT_EQ(sharded.size(), ref.size());

    std::vector<uint64_t> expect(ref.begin(), ref.end());
    std::vector<uint64_t> got;
    for (uint64_t k : sharded) got.push_back(k);
    ASSERT_EQ(got, expect) << "sharded iteration diverged";
    got.clear();
    sharded.map([&](uint64_t k) { got.push_back(k); });
    ASSERT_EQ(got, expect) << "sharded map diverged";

    uint64_t sum = 0;
    for (uint64_t k : expect) sum += k;
    ASSERT_EQ(sharded.sum(), sum);
    if (!ref.empty()) {
      ASSERT_EQ(sharded.min(), *ref.begin());
      ASSERT_EQ(sharded.max(), *ref.rbegin());
    }
  }

  void check_queries(uint64_t probe) {
    auto it = ref.lower_bound(probe);
    std::optional<uint64_t> expect =
        it == ref.end() ? std::nullopt : std::optional<uint64_t>(*it);
    ASSERT_EQ(sharded.successor(probe), expect) << "probe=" << probe;
    ASSERT_EQ(sharded.has(probe), ref.count(probe) == 1) << "probe=" << probe;

    const uint64_t len = 48;
    std::vector<uint64_t> expect_range;
    for (auto jt = it; jt != ref.end() && expect_range.size() < len; ++jt) {
      expect_range.push_back(*jt);
    }
    std::vector<uint64_t> got;
    uint64_t n = sharded.map_range_length(
        [&](uint64_t k) { got.push_back(k); }, probe, len);
    ASSERT_EQ(n, expect_range.size());
    ASSERT_EQ(got, expect_range) << "sharded range scan diverged at " << probe;
  }
};

// Randomized interleaving of point ops, batches, and queries; the batch
// key distribution alternates between uniform and a narrow moving window,
// which concentrates content in one shard and forces rebalance passes.
TYPED_TEST(Sharded, DifferentialWithRebalance) {
  using Engine = typename TypeParam::Engine;
  Trio<Engine> t(4);
  Rng r(17);
  const uint64_t space = uint64_t{1} << 22;
  uint64_t ops = 0;
  int phase = 0;
  while (ops < 60'000) {
    int op = static_cast<int>(r.next() % 10);
    if (op < 3) {
      t.insert(r.next() % space);
      if (::testing::Test::HasFatalFailure()) return;
      ops += 1;
    } else if (op < 5) {
      t.remove(r.next() % space);
      if (::testing::Test::HasFatalFailure()) return;
      ops += 1;
    } else if (op < 8) {
      // Skewed burst: all keys inside a window 1/64th of the space, so one
      // shard absorbs the whole batch and drifts past the ratio.
      std::vector<uint64_t> batch(1 + r.next() % 3000);
      uint64_t base = (r.next() % 64) * (space / 64);
      for (auto& k : batch) k = base + r.next() % (space / 64);
      ops += batch.size();
      t.insert_batch(std::move(batch));
      if (::testing::Test::HasFatalFailure()) return;
    } else if (op == 8) {
      std::vector<uint64_t> batch(1 + r.next() % 1500);
      for (auto& k : batch) k = r.next() % space;
      ops += batch.size();
      t.remove_batch(std::move(batch));
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      t.check_queries(r.next() % space);
      if (::testing::Test::HasFatalFailure()) return;
      ops += 1;
    }
    if (ops > (phase + 1) * 4000u) {
      ++phase;
      t.check_full();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  t.check_full();
  // The skewed bursts must have pushed the trigger at least once, or this
  // suite is not actually covering the rebalancer.
  EXPECT_GT(t.sharded.router_times().rebalances, 0u);
  EXPECT_GT(t.sharded.router_times().moves, 0u);
}

// shards=1 must behave exactly like the engine (and stay that way through
// batches, point ops, and queries): the acceptance bar for routing overhead.
TYPED_TEST(Sharded, SingleShardMatchesEngine) {
  using Engine = typename TypeParam::Engine;
  Trio<Engine> t(1);
  Rng r(23);
  for (int round = 0; round < 8; ++round) {
    std::vector<uint64_t> batch(2000);
    for (auto& k : batch) k = r.next() % 500'000;
    t.insert_batch(std::move(batch));
    if (::testing::Test::HasFatalFailure()) return;
    std::vector<uint64_t> dels(700);
    for (auto& k : dels) k = r.next() % 500'000;
    t.remove_batch(std::move(dels));
    if (::testing::Test::HasFatalFailure()) return;
    t.check_full();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(t.sharded.num_shards(), 1u);
  EXPECT_EQ(t.sharded.router_times().rebalances, 0u);
}

// Boundary keys: the key-0 sentinel, UINT64_MAX, and keys exactly at /
// adjacent to the shard splitters, probed through has/successor/map_range
// against std::set — on the sharded composition AND the direct engine.
TYPED_TEST(Sharded, BoundaryKeysAtSplitters) {
  using Engine = typename TypeParam::Engine;
  ShardedPMA<Engine> sharded(test_settings(8));
  Engine direct;
  std::set<uint64_t> ref;

  Rng r(41);
  std::vector<uint64_t> keys(50'000);
  for (auto& k : keys) k = r.next() % (uint64_t{1} << 40);
  // Pin the extremes in from the start.
  keys.push_back(0);
  keys.push_back(1);
  keys.push_back(UINT64_MAX);
  keys.push_back(UINT64_MAX - 1);
  for (uint64_t k : keys) ref.insert(k);
  std::vector<uint64_t> copy = keys;
  sharded.insert_batch(copy.data(), copy.size());
  direct.insert_batch(keys.data(), keys.size());

  // Quantile seeding has placed real splitters; force boundary-straddling
  // presence: for every splitter sp, insert sp-1, sp, sp+1.
  std::vector<uint64_t> straddle;
  for (uint64_t sp : sharded.splitters()) {
    if (sp == UINT64_MAX) continue;
    straddle.push_back(sp - 1);
    straddle.push_back(sp);
    straddle.push_back(sp + 1);
  }
  for (uint64_t k : straddle) ref.insert(k);
  copy = straddle;
  sharded.insert_batch(copy.data(), copy.size());
  direct.insert_batch(straddle.data(), straddle.size());

  auto probe = [&](uint64_t p) {
    auto it = ref.lower_bound(p);
    std::optional<uint64_t> expect =
        it == ref.end() ? std::nullopt : std::optional<uint64_t>(*it);
    ASSERT_EQ(sharded.successor(p), expect) << "sharded successor " << p;
    ASSERT_EQ(direct.successor(p), expect) << "direct successor " << p;
    ASSERT_EQ(sharded.has(p), ref.count(p) == 1) << "sharded has " << p;
    ASSERT_EQ(direct.has(p), ref.count(p) == 1) << "direct has " << p;

    // Range scan that starts at the boundary and crosses into the next
    // shard: 32 keys is far more than the straddle triple.
    std::vector<uint64_t> expect_range;
    for (auto jt = it; jt != ref.end() && expect_range.size() < 32; ++jt) {
      expect_range.push_back(*jt);
    }
    std::vector<uint64_t> got;
    sharded.map_range_length([&](uint64_t k) { got.push_back(k); }, p, 32);
    ASSERT_EQ(got, expect_range) << "sharded map_range at " << p;
    got.clear();
    direct.map_range_length([&](uint64_t k) { got.push_back(k); }, p, 32);
    ASSERT_EQ(got, expect_range) << "direct map_range at " << p;
  };

  probe(0);
  probe(1);
  probe(UINT64_MAX - 1);
  probe(UINT64_MAX);
  for (uint64_t sp : sharded.splitters()) {
    if (sp == UINT64_MAX) continue;
    probe(sp - 1);
    probe(sp);
    probe(sp + 1);
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Now remove the boundary keys and re-probe the misses.
  std::vector<uint64_t> victims = straddle;
  victims.push_back(0);
  victims.push_back(UINT64_MAX);
  for (uint64_t k : victims) ref.erase(k);
  copy = victims;
  ASSERT_EQ(sharded.remove_batch(copy.data(), copy.size()), victims.size());
  ASSERT_EQ(direct.remove_batch(victims.data(), victims.size()),
            victims.size());
  probe(0);
  probe(UINT64_MAX);
  for (uint64_t sp : sharded.splitters()) {
    if (sp == UINT64_MAX) continue;
    probe(sp);
    if (::testing::Test::HasFatalFailure()) return;
  }

  std::string err;
  ASSERT_TRUE(sharded.check_invariants(&err)) << err;

  // map_range with an endpoint exactly on a splitter must exclude it.
  for (uint64_t sp : sharded.splitters()) {
    if (sp == UINT64_MAX) continue;
    std::vector<uint64_t> expect_range(ref.lower_bound(sp == 0 ? 0 : sp - 1),
                                       ref.lower_bound(sp));
    std::vector<uint64_t> got;
    sharded.map_range([&](uint64_t k) { got.push_back(k); },
                      sp == 0 ? 0 : sp - 1, sp);
    ASSERT_EQ(got, expect_range) << "map_range ending at splitter " << sp;
  }
}

// Cross-shard scans: a full-space map_range stitches every shard in key
// order; windowed scans land across splitter boundaries.
TYPED_TEST(Sharded, CrossShardScans) {
  using Engine = typename TypeParam::Engine;
  ShardedPMA<Engine> sharded(test_settings(8));
  std::set<uint64_t> ref;
  Rng r(59);
  std::vector<uint64_t> keys(40'000);
  for (auto& k : keys) k = r.next() % 1'000'000;
  for (uint64_t k : keys) ref.insert(k);
  sharded.insert_batch(keys.data(), keys.size());

  std::vector<uint64_t> expect(ref.begin(), ref.end());
  std::vector<uint64_t> got;
  sharded.map_range([&](uint64_t k) { got.push_back(k); }, 0, UINT64_MAX);
  ASSERT_EQ(got, expect);

  for (int w = 0; w < 64; ++w) {
    uint64_t lo = r.next() % 1'000'000;
    uint64_t hi = lo + r.next() % 200'000;
    std::vector<uint64_t> er(ref.lower_bound(lo), ref.lower_bound(hi));
    got.clear();
    sharded.map_range([&](uint64_t k) { got.push_back(k); }, lo, hi);
    ASSERT_EQ(got, er) << "window [" << lo << ", " << hi << ")";
  }

  // parallel_map sees every key exactly once (order-free check via sum and
  // count into an atomic-free reduction: collect per-call then sort).
  std::vector<uint64_t> par_got;
  std::mutex m;
  sharded.parallel_map([&](uint64_t k) {
    std::lock_guard<std::mutex> lock(m);
    par_got.push_back(k);
  });
  std::sort(par_got.begin(), par_got.end());
  ASSERT_EQ(par_got, expect);
}

// The engine-level extraction hook: boundary moves depend on it removing
// exactly [lo, hi) and leaving a structurally sound engine behind.
TYPED_TEST(Sharded, EngineExtractRange) {
  using Engine = typename TypeParam::Engine;
  Engine e;
  std::set<uint64_t> ref;
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 30'000; ++i) keys.push_back(i * 7 + 1);
  keys.push_back(0);
  for (uint64_t k : keys) ref.insert(k);
  e.insert_batch(keys.data(), keys.size());

  auto check_extract = [&](uint64_t lo, uint64_t hi) {
    auto out = e.extract_range(lo, hi);
    std::vector<uint64_t> expect(ref.lower_bound(lo), ref.lower_bound(hi));
    std::vector<uint64_t> got(out.begin(), out.end());
    ASSERT_EQ(got, expect) << "extract [" << lo << ", " << hi << ")";
    for (uint64_t k : expect) ref.erase(k);
    std::string err;
    ASSERT_TRUE(e.check_invariants(&err)) << err;
    ASSERT_EQ(e.size(), ref.size());
    if (!expect.empty()) {
      ASSERT_FALSE(e.has(expect.front()));
      ASSERT_FALSE(e.has(expect.back()));
    }
  };

  check_extract(50'000, 50'000);  // empty range
  check_extract(500, 499);        // inverted: no-op
  check_extract(7'000, 70'000);   // interior span across many leaves
  check_extract(0, 100);          // includes the zero sentinel
  check_extract(200'000, UINT64_MAX);  // tail
  check_extract(0, UINT64_MAX);        // drain everything that remains
  ASSERT_TRUE(e.empty());
}

// build_from_sorted: bulk construction (with leading zeros) must equal the
// incremental path.
TYPED_TEST(Sharded, EngineBuildFromSorted) {
  using Engine = typename TypeParam::Engine;
  std::vector<uint64_t> keys{0};
  Rng r(71);
  for (int i = 0; i < 20'000; ++i) keys.push_back(r.next() % (1u << 30));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  Engine e;
  e.build_from_sorted(keys.data(), keys.size());
  std::string err;
  ASSERT_TRUE(e.check_invariants(&err)) << err;
  ASSERT_EQ(e.size(), keys.size());
  ASSERT_TRUE(e.has(0));
  std::vector<uint64_t> got;
  e.map([&](uint64_t k) { got.push_back(k); });
  ASSERT_EQ(got, keys);

  // Rebuilding over existing contents replaces them.
  std::vector<uint64_t> fresh{5, 6, 7};
  e.build_from_sorted(fresh.data(), fresh.size());
  ASSERT_EQ(e.size(), 3u);
  ASSERT_FALSE(e.has(0));
  got.clear();
  e.map([&](uint64_t k) { got.push_back(k); });
  ASSERT_EQ(got, fresh);
}

// A deliberately skewed load (sequential keys, so quantiles from the first
// batch are useless for the rest) must end up within the configured ratio
// after the automatic rebalancing, and the phase-time aggregation must see
// every shard's pipeline.
TYPED_TEST(Sharded, RebalanceRestoresBalance) {
  using Engine = typename TypeParam::Engine;
  ShardedPMA<Engine> sharded(test_settings(4));
  std::set<uint64_t> ref;
  uint64_t next_key = 1;
  for (int round = 0; round < 40; ++round) {
    std::vector<uint64_t> batch(10'000);
    for (auto& k : batch) k = next_key++;
    for (uint64_t k : batch) ref.insert(k);
    sharded.insert_batch(batch.data(), batch.size());
  }
  std::string err;
  ASSERT_TRUE(sharded.check_invariants(&err)) << err;
  ASSERT_EQ(sharded.size(), ref.size());
  EXPECT_GT(sharded.router_times().rebalances, 0u);
  EXPECT_GT(sharded.router_times().moves, 0u);

  // One explicit pass from the drifted state must land inside the ratio.
  sharded.rebalance();
  std::vector<uint64_t> bytes = sharded.shard_content_bytes();
  uint64_t total = 0, largest = 0;
  for (uint64_t b : bytes) {
    total += b;
    largest = std::max(largest, b);
  }
  EXPECT_LE(static_cast<double>(largest),
            test_settings(4).rebalance_ratio *
                (static_cast<double>(total) / 4.0) +
                static_cast<double>(4 * sharded.shard(0).leaf_bytes()))
      << "imbalance survived a forced pass";
  ASSERT_TRUE(sharded.check_invariants(&err)) << err;

  // Aggregated phase times cover the shards' pipelines.
  cpma::pma::BatchPhaseTimes t = sharded.batch_phase_times();
  EXPECT_GT(t.batches + t.rebuilds, 0u);
  EXPECT_GT(t.merge_ns + t.rebuild_ns, 0u);
  EXPECT_GT(t.route_ns, 0u);

  sharded.reset_batch_phase_times();
  t = sharded.batch_phase_times();
  EXPECT_EQ(t.batches, 0u);
  EXPECT_EQ(t.route_ns, 0u);
  EXPECT_EQ(sharded.router_times().rebalances, 0u);
}

// Every BatchPhaseTimes field, in declaration order.
std::vector<uint64_t> phase_fields(const cpma::pma::BatchPhaseTimes& t) {
  return {t.route_ns,  t.merge_ns,   t.count_ns, t.redistribute_ns,
          t.spread_ns, t.rebuild_ns, t.batches,  t.rebuilds,
          t.spreads};
}

// The sharded breakdown is the router's routing time plus each shard's
// pipeline breakdown, field by field.
TYPED_TEST(Sharded, PhaseTimesSumRouterAndShards) {
  using Engine = typename TypeParam::Engine;
  ShardedPMA<Engine> sharded(test_settings(4));
  Rng r(91);
  for (int round = 0; round < 8; ++round) {
    std::vector<uint64_t> batch(20'000);
    for (auto& k : batch) k = 1 + r.next() % (uint64_t{1} << 40);
    sharded.insert_batch(batch.data(), batch.size());
    std::vector<uint64_t> gone(batch.begin(), batch.begin() + 5'000);
    sharded.remove_batch(gone.data(), gone.size());
  }
  std::vector<uint64_t> want(9, 0);
  want[0] = sharded.router_times().route_ns;
  for (uint64_t s = 0; s < sharded.num_shards(); ++s) {
    const auto f = phase_fields(sharded.shard(s).batch_phase_times());
    for (size_t i = 0; i < want.size(); ++i) want[i] += f[i];
  }
  EXPECT_EQ(phase_fields(sharded.batch_phase_times()), want);
  EXPECT_GT(want[6] + want[7], 0u);  // some shard ran a batch
}

// Bulk constructor: sort/dedupe + quantile splitters + per-shard
// build_from_sorted, checked against the incremental path.
TYPED_TEST(Sharded, BulkConstruction) {
  using Engine = typename TypeParam::Engine;
  Rng r(83);
  std::vector<uint64_t> keys(30'000);
  for (auto& k : keys) k = r.next() % (uint64_t{1} << 36);
  keys.push_back(0);

  ShardedSettings st = test_settings(8);
  ShardedPMA<Engine> bulk(keys.data(), keys.data() + keys.size(), st);

  std::set<uint64_t> ref(keys.begin(), keys.end());
  ASSERT_EQ(bulk.size(), ref.size());
  std::string err;
  ASSERT_TRUE(bulk.check_invariants(&err)) << err;
  std::vector<uint64_t> expect(ref.begin(), ref.end());
  std::vector<uint64_t> got;
  for (uint64_t k : bulk) got.push_back(k);
  ASSERT_EQ(got, expect);

  // Quantile seeding should start within (generously) 2x byte balance for
  // uniform keys: no shard more than 3x the mean.
  std::vector<uint64_t> bytes = bulk.shard_content_bytes();
  uint64_t total = 0, largest = 0;
  for (uint64_t b : bytes) {
    total += b;
    largest = std::max(largest, b);
  }
  EXPECT_LE(largest * 8, 3 * total) << "bulk construction badly imbalanced";
}

// Empty / tiny structures: every query path must behave before any splitter
// has been seeded (all-UINT64_MAX layout routes everything to shard 0).
TYPED_TEST(Sharded, EmptyAndTiny) {
  using Engine = typename TypeParam::Engine;
  ShardedPMA<Engine> s(test_settings(4));
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.has(42));
  EXPECT_EQ(s.successor(0), std::nullopt);
  EXPECT_EQ(s.begin(), s.end());
  uint64_t count = 0;
  s.map_range([&](uint64_t) { ++count; }, 0, UINT64_MAX);
  EXPECT_EQ(count, 0u);

  EXPECT_TRUE(s.insert(0));
  EXPECT_TRUE(s.insert(UINT64_MAX));
  EXPECT_TRUE(s.insert(7));
  EXPECT_FALSE(s.insert(7));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.min(), 0u);
  EXPECT_EQ(s.max(), UINT64_MAX);
  EXPECT_EQ(s.successor(8), std::optional<uint64_t>(UINT64_MAX));
  std::vector<uint64_t> got;
  for (uint64_t k : s) got.push_back(k);
  EXPECT_EQ(got, (std::vector<uint64_t>{0, 7, UINT64_MAX}));
  EXPECT_TRUE(s.remove(UINT64_MAX));
  EXPECT_FALSE(s.remove(UINT64_MAX));
  EXPECT_EQ(s.size(), 2u);
  std::string err;
  ASSERT_TRUE(s.check_invariants(&err)) << err;
}

// min()/max() are optional so that {} and {0} are distinguishable (key 0 is
// a real storable key); empty() must not pay the O(S) size() sum.
TYPED_TEST(Sharded, EmptyMinMaxAreNulloptAndZeroKeyDisambiguated) {
  using Engine = typename TypeParam::Engine;
  ShardedPMA<Engine> s(test_settings(4));
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.min(), std::nullopt);
  EXPECT_EQ(s.max(), std::nullopt);

  // {0}: engaged optionals holding 0 — the case the old key_type API could
  // not tell apart from empty.
  EXPECT_TRUE(s.insert(0));
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.min(), std::optional<uint64_t>(0));
  EXPECT_EQ(s.max(), std::optional<uint64_t>(0));

  EXPECT_TRUE(s.remove(0));
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.min(), std::nullopt);
  EXPECT_EQ(s.max(), std::nullopt);

  // Engine-level semantics must agree (satellite: both engines aligned).
  Engine e;
  EXPECT_EQ(e.min(), std::nullopt);
  EXPECT_EQ(e.max(), std::nullopt);
  e.insert(0);
  EXPECT_EQ(e.min(), std::optional<uint64_t>(0));
  EXPECT_EQ(e.max(), std::optional<uint64_t>(0));
  e.remove(0);
  EXPECT_EQ(e.min(), std::nullopt);
  EXPECT_EQ(e.max(), std::nullopt);
}

}  // namespace
