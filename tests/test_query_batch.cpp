// Batch-query differential + boundary suite (has_batch / successor_batch /
// map_ranges), plus the Eytzinger head-index mirror's unit tests.
//
// Methodology mirrors test_differential.cpp: every surface (engine, sharded,
// epoch-pinned snapshot) answers the same sorted query batches as a per-op
// loop and as std::set, and must agree elementwise. Boundary coverage pins
// the key-0 sentinel, UINT64_MAX, duplicate queries, batches straddling
// shard splitters, and equal-head runs from emptied leaves. The TSan cases
// pin the read paths' const-ness: shared engines hammered by reader threads
// with no writer, and batch reads on pinned snapshots under live ingest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/streaming.hpp"
#include "pma/cpma.hpp"
#include "pma/head_eytzinger.hpp"
#include "scalar_only_codec.hpp"
#include "util/random.hpp"

using cpma::pma::EytzingerHeadIndex;
using cpma::util::Rng;

namespace {

constexpr uint64_t kMax = UINT64_MAX;

bool bit_set(const std::vector<uint64_t>& bits, uint64_t i) {
  return (bits[i >> 6] >> (i & 63)) & 1;
}

// Sorted query batch mixing stored keys, random absent keys, duplicates,
// and the extremes (0, UINT64_MAX).
std::vector<uint64_t> make_queries(Rng& rng, const std::set<uint64_t>& ref,
                                   uint64_t n) {
  std::vector<uint64_t> q;
  q.reserve(n + 4);
  std::vector<uint64_t> stored(ref.begin(), ref.end());
  for (uint64_t i = 0; i < n; ++i) {
    switch (rng.next_below(4)) {
      case 0:
        if (!stored.empty()) {
          q.push_back(stored[rng.next_below(stored.size())]);
          break;
        }
        [[fallthrough]];
      default:
        q.push_back(rng.next() >> (rng.next_below(3) * 12));
    }
  }
  q.push_back(0);
  q.push_back(0);  // duplicate zero queries
  q.push_back(kMax);
  if (!stored.empty()) q.push_back(stored[0]);  // duplicate of a stored key
  std::sort(q.begin(), q.end());
  return q;
}

// Asserts the three batch queries on `s` (any surface with the batch API)
// agree with std::set and with the surface's own per-op answers.
template <typename Surface>
void check_queries(const Surface& s, const std::set<uint64_t>& ref,
                   const std::vector<uint64_t>& q, const std::string& what) {
  const uint64_t n = q.size();
  // has_batch vs per-op has() vs set.
  std::vector<uint64_t> bits = s.has_batch(q.data(), n);
  for (uint64_t i = 0; i < n; ++i) {
    const bool expect = ref.count(q[i]) != 0;
    ASSERT_EQ(bit_set(bits, i), expect)
        << what << " has_batch[" << i << "] key=" << q[i];
    ASSERT_EQ(s.has(q[i]), expect) << what << " has key=" << q[i];
  }
  // successor_batch vs per-op successor() vs set lower_bound.
  std::vector<uint64_t> out(n, 0xDEADBEEFDEADBEEFULL);
  std::vector<uint64_t> found((n + 63) / 64, 0);
  s.successor_batch(q.data(), n, out.data(), found.data());
  for (uint64_t i = 0; i < n; ++i) {
    auto it = ref.lower_bound(q[i]);
    auto per_op = s.successor(q[i]);
    if (it == ref.end()) {
      ASSERT_FALSE(bit_set(found, i))
          << what << " successor_batch[" << i << "] key=" << q[i];
      ASSERT_FALSE(per_op.has_value()) << what << " successor key=" << q[i];
    } else {
      ASSERT_TRUE(bit_set(found, i))
          << what << " successor_batch[" << i << "] key=" << q[i];
      ASSERT_EQ(out[i], *it)
          << what << " successor_batch[" << i << "] key=" << q[i];
      ASSERT_TRUE(per_op.has_value() && *per_op == *it)
          << what << " successor key=" << q[i];
    }
  }
}

// map_ranges vs set iteration. Ranges are built disjoint and sorted from
// random boundary points. f may run concurrently (and one straddling range
// may arrive from several shard tasks), so collection locks.
template <typename Surface>
void check_map_ranges(const Surface& s, const std::set<uint64_t>& ref,
                      Rng& rng, const std::string& what) {
  std::vector<uint64_t> pts;
  for (int i = 0; i < 12; ++i) pts.push_back(rng.next() >> 12);
  pts.push_back(0);  // first range starts at 0: covers the sentinel
  std::sort(pts.begin(), pts.end());
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  for (uint64_t i = 0; i + 1 < pts.size(); i += 2) {
    ranges.emplace_back(pts[i], pts[i + 1]);
  }
  std::vector<std::vector<uint64_t>> got(ranges.size());
  std::mutex mu;
  s.map_ranges(ranges.data(), ranges.size(),
               [&](uint64_t ri, uint64_t k) {
                 std::lock_guard<std::mutex> lock(mu);
                 got[ri].push_back(k);
               });
  for (uint64_t ri = 0; ri < ranges.size(); ++ri) {
    std::vector<uint64_t> expect;
    for (auto it = ref.lower_bound(ranges[ri].first);
         it != ref.end() && *it < ranges[ri].second; ++it) {
      expect.push_back(*it);
    }
    std::sort(got[ri].begin(), got[ri].end());  // cross-shard order unordered
    ASSERT_EQ(got[ri], expect)
        << what << " map_ranges range " << ri << " [" << ranges[ri].first
        << ", " << ranges[ri].second << ")";
  }
}

std::string invariant_err(const std::string& msg) { return msg; }

// ---------------------------------------------------------------------------
// Eytzinger mirror unit tests against the flat reference semantics.
// ---------------------------------------------------------------------------

// Flat reference: first leaf of the run of equal entries ending at the last
// entry <= key, by two binary searches over the flat head array — the
// contract the mirror's descent must reproduce.
uint64_t flat_find_leaf(const std::vector<uint64_t>& head, uint64_t key) {
  auto it = std::upper_bound(head.begin(), head.end(), key);
  if (it == head.begin()) return 0;
  --it;
  auto first = std::lower_bound(head.begin(), it, *it);
  return static_cast<uint64_t>(first - head.begin());
}

// Random nondecreasing head arrays with equal runs (empty-leaf inheritance)
// and a possibly-zero prefix (empty leading leaves).
std::vector<uint64_t> make_heads(Rng& rng, uint64_t n) {
  std::vector<uint64_t> head(n);
  uint64_t cur = rng.next_below(3) == 0 ? 0 : 1 + rng.next_below(100);
  for (uint64_t l = 0; l < n; ++l) {
    if (l > 0 && rng.next_below(3) != 0) {
      cur += 1 + rng.next_below(50);  // nonempty leaf: strictly larger head
    }  // else: empty leaf inherits (equal run)
    head[l] = cur;
  }
  return head;
}

TEST(Eytzinger, MatchesFlatSearch) {
  Rng rng(0xE721);
  for (uint64_t n : {1u, 2u, 3u, 7u, 8u, 64u, 100u, 1000u, 5000u}) {
    std::vector<uint64_t> head = make_heads(rng, n);
    EytzingerHeadIndex eytz;
    eytz.build(head);
    ASSERT_EQ(eytz.size(), n);
    // Probe every boundary neighborhood plus random keys.
    std::vector<uint64_t> probes = {0, 1, kMax};
    for (uint64_t h : head) {
      probes.push_back(h);
      if (h > 0) probes.push_back(h - 1);
      if (h < kMax) probes.push_back(h + 1);
    }
    for (int i = 0; i < 64; ++i) probes.push_back(rng.next_below(6000));
    for (uint64_t key : probes) {
      ASSERT_EQ(eytz.find_leaf(key), flat_find_leaf(head, key))
          << "n=" << n << " key=" << key;
    }
  }
}

TEST(Eytzinger, RepairMatchesRebuild) {
  // Models the engine's head-array semantics explicitly: each leaf is
  // either nonempty (own strictly-increasing head value) or empty
  // (inherits its predecessor's entry). A repair event rewrites a window
  // — new emptiness flags, new values strictly inside the gap left by the
  // surrounding nonempty leaves — then propagates through the trailing
  // empty leaves exactly like update_head_index's walk, and repairs that
  // extent. The incrementally repaired mirror must match a from-scratch
  // build after every event.
  Rng rng(0x4EA1);
  const uint64_t n = 257;
  std::vector<bool> empty(n, false);
  std::vector<uint64_t> head(n);
  for (uint64_t l = 0; l < n; ++l) {
    empty[l] = l > 0 && rng.next_below(3) == 0;
    head[l] = empty[l] ? head[l - 1] : (l + 1) * 1000 + rng.next_below(100);
  }
  EytzingerHeadIndex eytz;
  eytz.build(head);
  for (int round = 0; round < 300; ++round) {
    const uint64_t lo = rng.next_below(n);
    const uint64_t hi = std::min<uint64_t>(n, lo + 1 + rng.next_below(6));
    // Value gap the rewritten window must stay inside: (floor, ceil).
    const uint64_t floor_v = lo == 0 ? 0 : head[lo - 1];
    uint64_t ceil_v = UINT64_MAX;
    for (uint64_t s = hi; s < n; ++s) {
      if (!empty[s]) {
        ceil_v = head[s];
        break;
      }
    }
    uint64_t prev = floor_v;
    for (uint64_t l = lo; l < hi; ++l) {
      // Stay strictly increasing with room for the rest of the window.
      const uint64_t slack = ceil_v - prev;
      const bool can_fill = slack > (hi - l) + 1;
      empty[l] = l > 0 && (!can_fill || rng.next_below(2) == 0);
      if (empty[l]) {
        head[l] = head[l - 1];
      } else {
        uint64_t step = 1 + rng.next_below(
            std::max<uint64_t>(1, slack / (hi - l + 1)));
        head[l] = prev + step;
        ASSERT_LT(head[l], ceil_v) << "generator bug: window overran gap";
        prev = head[l];
      }
    }
    // Trailing empty leaves re-inherit the window's new last value; the
    // walk ends at the first nonempty leaf (whose entry is unchanged).
    uint64_t stop = hi;
    for (; stop < n && empty[stop]; ++stop) head[stop] = head[stop - 1];
    eytz.repair(head, lo, stop);
    EytzingerHeadIndex fresh;
    fresh.build(head);
    for (uint64_t l = 0; l < n; ++l) {
      ASSERT_EQ(eytz.key_at(l), head[l]) << "round " << round << " l=" << l;
      ASSERT_EQ(eytz.run_first_at(l), fresh.run_first_at(l))
          << "round " << round << " l=" << l;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine differential (pma / cpma).
// ---------------------------------------------------------------------------

template <typename E>
class QueryBatch : public ::testing::Test {};
using Engines = ::testing::Types<cpma::PMA, cpma::CPMA, ScalarCPMA>;
TYPED_TEST_SUITE(QueryBatch, Engines);

TYPED_TEST(QueryBatch, RandomizedDifferential) {
  Rng rng(0xBA7C4);
  TypeParam pma;
  std::set<uint64_t> ref;
  std::string err;
  for (int round = 0; round < 8; ++round) {
    std::vector<uint64_t> batch;
    for (int i = 0; i < 4000; ++i) batch.push_back(rng.next() >> 24);
    ref.insert(batch.begin(), batch.end());
    pma.insert_batch(batch.data(), batch.size());
    ASSERT_TRUE(pma.check_invariants(&err)) << invariant_err(err);
    std::vector<uint64_t> q = make_queries(rng, ref, 2000);
    check_queries(pma, ref, q, "engine round " + std::to_string(round));
    check_map_ranges(pma, ref, rng, "engine round " + std::to_string(round));
  }
}

TYPED_TEST(QueryBatch, EmptyAndSentinels) {
  TypeParam pma;
  std::set<uint64_t> ref;
  Rng rng(0x5E17);
  // Empty structure: everything misses, nothing has a successor.
  std::vector<uint64_t> q = {0, 1, 12345, kMax};
  check_queries(pma, ref, q, "empty");
  // Zero-length batch is a no-op.
  pma.has_batch(q.data(), 0);
  // Key 0 and UINT64_MAX stored: both extremes answer through the batch
  // paths (0 via the out-of-band sentinel, kMax as the last stored key).
  std::vector<uint64_t> batch = {0, 1, 500, kMax - 1, kMax};
  pma.insert_batch(batch.data(), batch.size());
  ref.insert(batch.begin(), batch.end());
  q = {0, 0, 1, 2, 499, 500, 501, kMax - 1, kMax};
  check_queries(pma, ref, q, "sentinels");
  std::string err;
  ASSERT_TRUE(pma.check_invariants(&err)) << invariant_err(err);
}

TYPED_TEST(QueryBatch, EqualHeadRunsFromRemovals) {
  // Build a dense region, then batch-remove interior bands so whole leaves
  // empty out and inherit their predecessor's head — the equal-run case the
  // Eytzinger layout folds in. Queries then target the emptied bands.
  Rng rng(0xE0A7);
  TypeParam pma;
  std::set<uint64_t> ref;
  std::vector<uint64_t> batch;
  for (uint64_t k = 1; k <= 60000; ++k) batch.push_back(k);
  ref.insert(batch.begin(), batch.end());
  pma.insert_batch(batch.data(), batch.size());
  std::vector<uint64_t> dead;
  for (uint64_t k = 20000; k < 40000; ++k) dead.push_back(k);
  for (uint64_t k : dead) ref.erase(k);
  pma.remove_batch(dead.data(), dead.size());
  std::string err;
  ASSERT_TRUE(pma.check_invariants(&err)) << invariant_err(err);
  std::vector<uint64_t> q;
  for (int i = 0; i < 3000; ++i) q.push_back(1 + rng.next_below(70000));
  std::sort(q.begin(), q.end());
  check_queries(pma, ref, q, "equal-head runs");
  check_map_ranges(pma, ref, rng, "equal-head runs");
}

TYPED_TEST(QueryBatch, PointUpdateMaintenance) {
  // Point inserts/removes repair the mirror through update_head_index;
  // check_invariants cross-validates it against the flat index every round.
  Rng rng(0x901E7);
  TypeParam pma;
  std::set<uint64_t> ref;
  std::string err;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 3000; ++i) {
      uint64_t k = 1 + (rng.next() >> 40);
      if (rng.next_below(4) == 0) {
        pma.remove(k);
        ref.erase(k);
      } else {
        pma.insert(k);
        ref.insert(k);
      }
    }
    ASSERT_TRUE(pma.check_invariants(&err)) << invariant_err(err);
    std::vector<uint64_t> q = make_queries(rng, ref, 1500);
    check_queries(pma, ref, q, "point round " + std::to_string(round));
  }
}

// ---------------------------------------------------------------------------
// Sparse regime: batches far smaller than the leaf count. The batch router
// switches from its gallop to a lockstep descent when a batch holds at most
// one key per 16 leaves, so every batch size here except the dense side of
// the switch point (num_leaves / 16 + 1) takes the sparse path, for reads
// and for the 256-key write batches alike.
// ---------------------------------------------------------------------------

template <typename E>
class QueryBatchSparse : public ::testing::Test {};
TYPED_TEST_SUITE(QueryBatchSparse, Engines);

// Stored keys are at least kSparseBase, so [1, kSparseBase) lies below the
// first head.
constexpr uint64_t kSparseBase = uint64_t{1} << 20;

// A leaf with no keys between two nonempty leaves: its head-index entry
// repeats its predecessor's, forming an equal-head run.
template <typename E>
bool has_interior_empty_leaf(const E& e) {
  uint64_t first = e.num_leaves(), last = 0;
  for (uint64_t l = 0; l < e.num_leaves(); ++l) {
    if (e.leaf_element_count(l) == 0) continue;
    first = std::min(first, l);
    last = l;
  }
  for (uint64_t l = first; l < last; ++l) {
    if (e.leaf_element_count(l) == 0) return true;
  }
  return false;
}

// Exactly n sorted queries. Each is one of: a stored key, a random key in
// the stored span, a key below the first head, key 0, a key above the
// maximum (successor spill past the last leaf), a key in the removed band
// [band_lo, band_hi), or a duplicate of the previous query. n == 1 batches
// take kind `rep` so each kind is routed alone.
std::vector<uint64_t> sparse_queries(Rng& rng,
                                     const std::vector<uint64_t>& stored,
                                     uint64_t n, uint64_t band_lo,
                                     uint64_t band_hi, uint64_t rep) {
  std::vector<uint64_t> q;
  q.reserve(n);
  const uint64_t lo = stored.front(), hi = stored.back();
  for (uint64_t i = 0; i < n; ++i) {
    switch (n == 1 ? rep % 7 : rng.next_below(7)) {
      case 0:
        q.push_back(stored[rng.next_below(stored.size())]);
        break;
      case 1:
        q.push_back(lo + rng.next_below(hi - lo));
        break;
      case 2:
        q.push_back(1 + rng.next_below(kSparseBase - 1));
        break;
      case 3:
        q.push_back(0);
        break;
      case 4:
        q.push_back(rng.next_below(2) ? kMax : hi + 1 + rng.next_below(1000));
        break;
      case 5:
        q.push_back(band_lo + rng.next_below(band_hi - band_lo));
        break;
      default:
        q.push_back(q.empty() ? stored[0] : q.back());
    }
  }
  std::sort(q.begin(), q.end());
  return q;
}

TYPED_TEST(QueryBatchSparse, SmallBatchesOverManyLeaves) {
  Rng rng(0x5BA75E);
  TypeParam pma;
  std::set<uint64_t> ref;
  std::string err;
  // At least 4096 leaves, so a 256-key batch is sparse.
  while (pma.num_leaves() < 4096) {
    std::vector<uint64_t> batch(50000);
    for (uint64_t& k : batch) k = kSparseBase + (rng.next() >> 24);
    ref.insert(batch.begin(), batch.end());
    pma.insert_batch(batch.data(), batch.size());
    ASSERT_TRUE(pma.check_invariants(&err)) << invariant_err(err);
  }
  // One merge-path remove batch (under a tenth of the keys) of a contiguous
  // band empties interior leaves.
  std::vector<uint64_t> stored(ref.begin(), ref.end());
  const uint64_t a = stored.size() / 3, b = a + stored.size() / 20;
  const uint64_t band_lo = stored[a], band_hi = stored[b];
  std::vector<uint64_t> dead(stored.begin() + a, stored.begin() + b);
  ASSERT_EQ(pma.remove_batch(dead.data(), dead.size(), /*sorted=*/true),
            dead.size());
  for (uint64_t k : dead) ref.erase(k);
  ASSERT_TRUE(pma.check_invariants(&err)) << invariant_err(err);
  ASSERT_GE(pma.num_leaves(), 4096u);
  ASSERT_TRUE(has_interior_empty_leaf(pma));

  auto check_sizes = [&](const std::string& what) {
    stored.assign(ref.begin(), ref.end());
    const uint64_t switch_n = pma.num_leaves() / 16;
    for (uint64_t n : {uint64_t{1}, uint64_t{17}, uint64_t{256}, switch_n,
                       switch_n + 1}) {
      const uint64_t reps = n == 1 ? 14 : 3;
      for (uint64_t rep = 0; rep < reps; ++rep) {
        std::vector<uint64_t> q =
            sparse_queries(rng, stored, n, band_lo, band_hi, rep);
        check_queries(pma, ref, q, what + " n=" + std::to_string(n));
      }
    }
  };
  check_sizes("after band removal");

  // Sparse write batches: 256 keys each, fresh inserts mixed with present
  // keys, removals mixed with absent keys.
  for (int round = 0; round < 4; ++round) {
    std::vector<uint64_t> ins;
    for (int i = 0; i < 256; ++i) {
      ins.push_back(rng.next_below(4) == 0
                        ? stored[rng.next_below(stored.size())]
                        : kSparseBase + (rng.next() >> 24));
    }
    ref.insert(ins.begin(), ins.end());
    pma.insert_batch(ins.data(), ins.size());
    ASSERT_TRUE(pma.check_invariants(&err)) << invariant_err(err);
    ASSERT_EQ(pma.size(), ref.size());
    std::vector<uint64_t> rem;
    for (int i = 0; i < 256; ++i) {
      rem.push_back(rng.next_below(4) == 0
                        ? kSparseBase + (rng.next() >> 24)
                        : stored[rng.next_below(stored.size())]);
    }
    for (uint64_t k : rem) ref.erase(k);
    pma.remove_batch(rem.data(), rem.size());
    ASSERT_TRUE(pma.check_invariants(&err)) << invariant_err(err);
    ASSERT_EQ(pma.size(), ref.size());
  }
  check_sizes("after sparse writes");
}

// ---------------------------------------------------------------------------
// Sharded: batches straddling splitters.
// ---------------------------------------------------------------------------

template <typename E>
class QueryBatchSharded : public ::testing::Test {};
using ShardedEngines = ::testing::Types<cpma::SPMA, cpma::SCPMA>;
TYPED_TEST_SUITE(QueryBatchSharded, ShardedEngines);

TYPED_TEST(QueryBatchSharded, StraddlingSplitters) {
  Rng rng(0x5AA2D);
  cpma::pma::ShardedSettings settings;
  settings.num_shards = 8;
  TypeParam sharded(settings);
  std::set<uint64_t> ref;
  for (int round = 0; round < 4; ++round) {
    std::vector<uint64_t> batch;
    for (int i = 0; i < 20000; ++i) batch.push_back(rng.next() >> 20);
    ref.insert(batch.begin(), batch.end());
    sharded.insert_batch(batch.data(), batch.size());
    std::string err;
    ASSERT_TRUE(sharded.check_invariants(&err)) << invariant_err(err);
    // Random queries plus every splitter's neighborhood: splitter - 1 /
    // exact / + 1 forces slices that straddle every shard boundary.
    std::vector<uint64_t> q = make_queries(rng, ref, 3000);
    for (uint64_t sp : sharded.splitters()) {
      if (sp == kMax) continue;
      q.push_back(sp > 0 ? sp - 1 : 0);
      q.push_back(sp);
      q.push_back(sp + 1);
    }
    std::sort(q.begin(), q.end());
    check_queries(sharded, ref, q, "sharded round " + std::to_string(round));
    check_map_ranges(sharded, ref, rng,
                     "sharded round " + std::to_string(round));
  }
}

// ---------------------------------------------------------------------------
// Snapshot / serving surfaces.
// ---------------------------------------------------------------------------

TEST(QueryBatchSnapshot, PinnedViewDifferential) {
  Rng rng(0x54A9);
  cpma::serve::ServingSettings settings;
  settings.publish_eager = true;
  settings.sharded.num_shards = 4;
  cpma::ServingCPMA serving(settings);
  std::set<uint64_t> ref;
  std::vector<uint64_t> batch;
  for (int i = 0; i < 30000; ++i) batch.push_back(rng.next() >> 20);
  ref.insert(batch.begin(), batch.end());
  serving.insert_batch(batch);
  auto snap = serving.snapshot();
  std::vector<uint64_t> q = make_queries(rng, ref, 3000);
  check_queries(snap, ref, q, "pinned snapshot");
  check_map_ranges(snap, ref, rng, "pinned snapshot");
  // The pinned view must not see writes applied after the pin.
  std::vector<uint64_t> later = {7, 77, 777};
  std::vector<uint64_t> lq = later;
  serving.insert_batch(later);
  for (uint64_t k : lq) ref.erase(k);  // not in the pinned cut
  std::vector<uint64_t> bits = snap.has_batch(lq.data(), lq.size());
  for (uint64_t i = 0; i < lq.size(); ++i) {
    ASSERT_EQ(bit_set(bits, i), ref.count(lq[i]) != 0)
        << "post-pin write leaked into pinned view, key " << lq[i];
  }
  // Pin-per-call convenience on the serving front sees the new keys.
  std::vector<uint64_t> fresh_bits = serving.has_batch(lq.data(), lq.size());
  for (uint64_t i = 0; i < lq.size(); ++i) {
    ASSERT_TRUE(bit_set(fresh_bits, i)) << "fresh read missed " << lq[i];
  }
}

// ---------------------------------------------------------------------------
// A drained interior shard, on every sharded read surface: the case the
// successor stitch and the iterator's skip over empty shards exist for.
// ---------------------------------------------------------------------------

constexpr uint64_t kDrainedShard = 3;

// 8 shards seeded from one bulk batch, then every key of interior shard
// kDrainedShard removed. The huge rebalance floor keeps the rebalancer from
// refilling the emptied shard.
cpma::SCPMA make_drained_store(std::set<uint64_t>& ref) {
  cpma::pma::ShardedSettings settings;
  settings.num_shards = 8;
  settings.min_rebalance_bytes = UINT64_MAX;
  cpma::SCPMA store(settings);
  Rng rng(0xD2A1);
  std::vector<uint64_t> batch;
  for (int i = 0; i < 40000; ++i) batch.push_back(rng.next() >> 20);
  ref.insert(batch.begin(), batch.end());
  store.insert_batch(batch.data(), batch.size());
  const uint64_t lo = store.splitters()[kDrainedShard - 1];
  const uint64_t hi = store.splitters()[kDrainedShard];
  std::vector<uint64_t> drained(ref.lower_bound(lo), ref.lower_bound(hi));
  for (uint64_t k : drained) ref.erase(k);
  store.remove_batch(drained.data(), drained.size(), /*sorted=*/true);
  return store;
}

// Each surface exposes reads() (the point/batch/scan/iteration API) and
// leaves() (the flattened-leaf API) over the same drained store.
struct ShardedSurface {
  explicit ShardedSurface(cpma::SCPMA s) : store(std::move(s)) {}
  const cpma::SCPMA& reads() const { return store; }
  const cpma::SCPMA& leaves() const { return store; }
  cpma::SCPMA store;
};

struct ViewSurface {
  using View = cpma::serve::SnapshotView<cpma::CPMA>;
  static View make_view(const cpma::SCPMA& s) {
    std::vector<std::shared_ptr<const cpma::CPMA>> shards;
    for (uint64_t i = 0; i < s.num_shards(); ++i) {
      shards.push_back(std::make_shared<const cpma::CPMA>(s.shard(i)));
    }
    return View(s.splitters(), std::move(shards));
  }
  explicit ViewSurface(cpma::SCPMA s) : view(make_view(s)) {}
  const View& reads() const { return view; }
  const View& leaves() const { return view; }
  View view;
};

struct ServingSurface {
  explicit ServingSurface(cpma::SCPMA s)
      : serving(std::move(s)), snap(serving.snapshot()) {}
  const cpma::ServingCPMA::Snapshot& reads() const { return snap; }
  const auto& leaves() const { return snap.view(); }
  cpma::ServingCPMA serving;
  cpma::ServingCPMA::Snapshot snap;
};

template <typename S>
class DrainedShard : public ::testing::Test {};
using Surfaces = ::testing::Types<ShardedSurface, ViewSurface, ServingSurface>;
TYPED_TEST_SUITE(DrainedShard, Surfaces);

TYPED_TEST(DrainedShard, EveryReadStitchesAcrossTheEmptyShard) {
  std::set<uint64_t> ref;
  cpma::SCPMA store = make_drained_store(ref);
  ASSERT_TRUE(store.shard(kDrainedShard).empty());
  ASSERT_FALSE(store.shard(kDrainedShard - 1).empty());
  ASSERT_FALSE(store.shard(kDrainedShard + 1).empty());
  const std::vector<uint64_t> splitters = store.splitters();
  const uint64_t lo = splitters[kDrainedShard - 1];
  const uint64_t hi = splitters[kDrainedShard];
  const TypeParam surface(std::move(store));
  const auto& s = surface.reads();

  // Batch queries: random keys, every splitter's neighborhood, and keys
  // inside the drained range (their successors live two shards on).
  Rng rng(0xD2A2);
  std::vector<uint64_t> q = make_queries(rng, ref, 3000);
  for (uint64_t sp : splitters) {
    q.push_back(sp - 1);
    q.push_back(sp);
    q.push_back(sp + 1);
  }
  for (uint64_t i = 0; i < 16; ++i) q.push_back(lo + i * ((hi - lo) / 16));
  std::sort(q.begin(), q.end());
  check_queries(s, ref, q, "drained shard");
  check_map_ranges(s, ref, rng, "drained shard");

  ASSERT_EQ(s.size(), ref.size());
  ASSERT_EQ(s.min(), std::optional<uint64_t>(*ref.begin()));
  ASSERT_EQ(s.max(), std::optional<uint64_t>(*ref.rbegin()));

  const std::vector<uint64_t> all(ref.begin(), ref.end());
  ASSERT_EQ(std::vector<uint64_t>(s.begin(), s.end()), all);

  // map_range / map_range_length starting in the shard before the drained
  // one, and starting inside the drained range.
  for (uint64_t start : {*std::prev(ref.lower_bound(lo)), lo, lo + 1}) {
    std::vector<uint64_t> got;
    const uint64_t applied = s.map_range_length(
        [&](uint64_t k) { got.push_back(k); }, start, 100);
    std::vector<uint64_t> expect;
    for (auto it = ref.lower_bound(start);
         it != ref.end() && expect.size() < 100; ++it) {
      expect.push_back(*it);
    }
    ASSERT_EQ(applied, expect.size()) << "map_range_length from " << start;
    ASSERT_EQ(got, expect) << "map_range_length from " << start;

    const uint64_t end = *ref.lower_bound(hi) + 1;
    got.clear();
    s.map_range([&](uint64_t k) { got.push_back(k); }, start, end);
    expect.assign(ref.lower_bound(start), ref.lower_bound(end));
    ASSERT_EQ(got, expect) << "map_range from " << start;
  }

  // map_from_position from every leaf's first position (empty leaves, the
  // drained shard's among them, have none) runs on in global key order.
  const auto& flat = surface.leaves();
  constexpr uint64_t kRun = 200;
  uint64_t nonempty = 0, counted = 0;
  for (uint64_t l = 0; l < flat.num_leaves(); ++l) {
    counted += flat.leaf_element_count(l);
    std::optional<uint64_t> first_key;
    flat.scan_leaf_positions(l, [&](auto pos, uint64_t key) {
      if (first_key) return;
      first_key = key;
      std::vector<uint64_t> got;
      flat.map_from_position(pos, [&](uint64_t k) {
        got.push_back(k);
        return got.size() < kRun;
      });
      std::vector<uint64_t> expect;
      for (auto it = ref.find(key); it != ref.end() && expect.size() < kRun;
           ++it) {
        expect.push_back(*it);
      }
      ASSERT_EQ(got, expect) << "map_from_position at leaf " << l;
    });
    if (first_key) ++nonempty;
  }
  ASSERT_GT(nonempty, 0u);
  ASSERT_EQ(counted, ref.size());
}

TEST(QueryBatchGraph, HasEdgesAndDedupIngest) {
  using Graph = cpma::graph::StreamingGraphCPMA;
  cpma::serve::ServingSettings settings;
  settings.publish_eager = true;
  settings.sharded.num_shards = 4;
  Graph g(1 << 12, settings);
  Rng rng(0x6EA9);
  std::vector<uint64_t> edges;
  for (int i = 0; i < 20000; ++i) {
    edges.push_back(cpma::graph::edge_key(
        static_cast<uint32_t>(rng.next_below(1 << 12)),
        static_cast<uint32_t>(rng.next_below(1 << 12))));
  }
  std::set<uint64_t> ref(edges.begin(), edges.end());
  uint64_t added = g.insert_edges(edges);
  ASSERT_EQ(added, ref.size());
  g.flush();
  // has_edges batch vs per-edge has_edge on one pinned snapshot.
  auto snap = g.snapshot();
  std::vector<uint64_t> probe(edges.begin(), edges.begin() + 4000);
  for (int i = 0; i < 2000; ++i) {
    probe.push_back(cpma::graph::edge_key(
        static_cast<uint32_t>(rng.next_below(1 << 12)),
        static_cast<uint32_t>(rng.next_below(1 << 12))));
  }
  std::sort(probe.begin(), probe.end());
  std::vector<uint64_t> bits = snap.has_edges(probe);
  for (uint64_t i = 0; i < probe.size(); ++i) {
    ASSERT_EQ(bit_set(bits, i), ref.count(probe[i]) != 0)
        << "has_edges[" << i << "]";
    ASSERT_EQ(bit_set(bits, i),
              snap.has_edge(cpma::graph::edge_src(probe[i]),
                            cpma::graph::edge_dst(probe[i])));
  }
  // Dedup ingest: re-sending the whole edge set adds nothing; a mix of old
  // and new edges adds exactly the new ones.
  ASSERT_EQ(g.insert_edges_dedup(edges), 0u);
  std::vector<uint64_t> mixed(edges.begin(), edges.begin() + 1000);
  uint64_t fresh = 0;
  for (int i = 0; i < 1000; ++i) {
    uint64_t e = cpma::graph::edge_key(
        static_cast<uint32_t>(rng.next_below(1 << 12)),
        static_cast<uint32_t>(rng.next_below(1 << 12)));
    mixed.push_back(e);
    if (ref.insert(e).second) ++fresh;
  }
  ASSERT_EQ(g.insert_edges_dedup(mixed), fresh);
  g.flush();
  ASSERT_EQ(g.num_edges(), ref.size());
}

// ---------------------------------------------------------------------------
// Concurrency (TSan leg): the read paths must be mutation-free.
// ---------------------------------------------------------------------------

TEST(QueryBatchConcurrency, SharedConstEngineReads) {
  // N threads hammer has/successor/has_batch/successor_batch on ONE shared
  // engine with no writer. Any lazy repair or mutable cache on the read
  // path — the failure mode the old head-index repair special case invited
  // — is a TSan data race here; bit-identical answers across threads pin
  // the semantics.
  Rng seed_rng(0xC0457);
  cpma::CPMA pma;
  std::set<uint64_t> ref;
  std::vector<uint64_t> batch;
  for (int i = 0; i < 50000; ++i) batch.push_back(seed_rng.next() >> 20);
  ref.insert(batch.begin(), batch.end());
  pma.insert_batch(batch.data(), batch.size());
  const cpma::CPMA& shared = pma;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x7000 + t);
      std::vector<uint64_t> q = make_queries(rng, ref, 2000);
      for (int round = 0; round < 5; ++round) {
        std::vector<uint64_t> bits = shared.has_batch(q.data(), q.size());
        std::vector<uint64_t> out(q.size(), 0);
        std::vector<uint64_t> found((q.size() + 63) / 64, 0);
        shared.successor_batch(q.data(), q.size(), out.data(), found.data());
        for (uint64_t i = 0; i < q.size(); ++i) {
          ASSERT_EQ(bit_set(bits, i), ref.count(q[i]) != 0);
          auto it = ref.lower_bound(q[i]);
          ASSERT_EQ(bit_set(found, i), it != ref.end());
          if (it != ref.end()) {
            ASSERT_EQ(out[i], *it);
          }
          ASSERT_EQ(shared.has(q[i]), ref.count(q[i]) != 0);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST(QueryBatchConcurrency, SnapshotBatchReadsUnderIngest) {
  // Reader threads run batch queries on pinned snapshots while the writer
  // keeps ingesting: keys flushed before the readers start must be found in
  // EVERY snapshot (insert-only history), whatever else lands meanwhile.
  cpma::serve::ServingSettings settings;
  settings.sharded.num_shards = 4;
  cpma::ServingCPMA serving(settings);
  Rng seed_rng(0x51AB1E);
  std::vector<uint64_t> base;
  for (int i = 0; i < 20000; ++i) base.push_back(1 + (seed_rng.next() >> 22));
  std::sort(base.begin(), base.end());
  base.erase(std::unique(base.begin(), base.end()), base.end());
  serving.insert_batch(base, /*sorted=*/true);
  serving.flush();
  std::thread writer([&] {
    Rng rng(0xF00D);
    for (int b = 0; b < 20; ++b) {
      std::vector<uint64_t> more;
      for (int i = 0; i < 2000; ++i) more.push_back(1 + (rng.next() >> 22));
      serving.insert_batch(more);
    }
    serving.flush();
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        auto snap = serving.snapshot();
        std::vector<uint64_t> bits =
            snap.has_batch(base.data(), base.size());
        for (uint64_t i = 0; i < base.size(); ++i) {
          ASSERT_TRUE(bit_set(bits, i))
              << "pre-flushed key " << base[i] << " missing from snapshot";
        }
        std::vector<uint64_t> out(base.size(), 0);
        std::vector<uint64_t> found((base.size() + 63) / 64, 0);
        snap.successor_batch(base.data(), base.size(), out.data(),
                             found.data());
        for (uint64_t i = 0; i < base.size(); ++i) {
          ASSERT_TRUE(bit_set(found, i));
          ASSERT_EQ(out[i], base[i]);  // the key itself is its successor
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
}

}  // namespace
