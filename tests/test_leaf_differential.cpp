// Leaf-level differential property test: drives each compressed leaf policy
// (byte-varint, and the same wire format through a codec with no bulk
// hooks) and UncompressedLeaf through identical randomized insert/remove/
// query sequences and asserts the two policies expose identical observable
// state (decode, counts, sums, lookups, map, cursors, block streaming)
// after every mutation. A shadow sorted vector gates inserts on capacity
// so both leaves always execute the same operation within their engine
// preconditions. Periodic write() resets re-materialize from the shadow, as
// the engine does at every rebalance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "pma/leaf_compressed.hpp"
#include "pma/leaf_uncompressed.hpp"
#include "pma/settings.hpp"
#include "scalar_only_codec.hpp"
#include "util/random.hpp"

using cpma::util::Rng;
namespace pma = cpma::pma;

namespace {

using BvLeaf = pma::CompressedLeaf<>;
using ScalarLeaf = pma::CompressedLeaf<ScalarOnlyCodec>;
using ULeaf = pma::UncompressedLeaf;

constexpr size_t kCap = 512;

template <typename Leaf>
std::vector<uint64_t> drain(const uint8_t* leaf) {
  std::vector<uint64_t> out;
  Leaf::decode_append(leaf, kCap, out);
  return out;
}

template <typename Leaf>
std::vector<uint64_t> drain_cursor(const uint8_t* leaf) {
  std::vector<uint64_t> out;
  typename Leaf::Cursor cur;
  if (!Leaf::cursor_begin(leaf, kCap, cur)) return out;
  out.push_back(cur.value);
  while (Leaf::cursor_next(leaf, kCap, cur)) out.push_back(cur.value);
  return out;
}

template <typename Leaf>
std::vector<uint64_t> drain_blocks(const uint8_t* leaf, size_t block) {
  std::vector<uint64_t> out;
  typename Leaf::BlockCursor bc{};
  std::vector<uint64_t> buf(block);
  while (size_t k = Leaf::block_next(leaf, kCap, bc, buf.data(), block)) {
    out.insert(out.end(), buf.begin(), buf.begin() + k);
  }
  return out;
}

template <typename CLike>
void expect_equal_state(const uint8_t* cl, const uint8_t* ul,
                        const std::vector<uint64_t>& shadow, Rng& r) {
  ASSERT_EQ(drain<CLike>(cl), shadow);
  ASSERT_EQ(drain<ULeaf>(ul), shadow);
  ASSERT_EQ(CLike::element_count(cl, kCap), shadow.size());
  ASSERT_EQ(ULeaf::element_count(ul, kCap), shadow.size());
  EXPECT_EQ(CLike::sum_leaf(cl, kCap), ULeaf::sum_leaf(ul, kCap));
  EXPECT_EQ(CLike::last(cl, kCap), ULeaf::last(ul, kCap));
  EXPECT_EQ(CLike::head(cl), ULeaf::head(ul));
  EXPECT_EQ(drain_cursor<CLike>(cl), shadow);
  EXPECT_EQ(drain_cursor<ULeaf>(ul), shadow);
  for (size_t block : {1, 7, 64}) {
    EXPECT_EQ(drain_blocks<CLike>(cl, block), shadow);
    EXPECT_EQ(drain_blocks<ULeaf>(ul, block), shadow);
  }
  // Point probes: members, near-members, and random misses.
  for (int p = 0; p < 8; ++p) {
    uint64_t probe;
    if (!shadow.empty() && p < 4) {
      uint64_t member = shadow[r.next() % shadow.size()];
      probe = p % 2 == 0 ? member : member + 1;
    } else {
      probe = 1 + (r.next() >> (r.next() % 40));
    }
    EXPECT_EQ(CLike::contains(cl, kCap, probe),
              ULeaf::contains(ul, kCap, probe))
        << "probe=" << probe;
    EXPECT_EQ(CLike::lower_bound(cl, kCap, probe),
              ULeaf::lower_bound(ul, kCap, probe))
        << "probe=" << probe;
  }
  // map: full walk and an early stop mid-leaf must visit identical
  // prefixes.
  std::vector<uint64_t> cm, um;
  EXPECT_EQ(CLike::map(cl, kCap, [&](uint64_t k) { cm.push_back(k); return true; }),
            ULeaf::map(ul, kCap, [&](uint64_t k) { um.push_back(k); return true; }));
  EXPECT_EQ(cm, um);
  size_t stop = shadow.size() / 2 + 1;
  cm.clear();
  um.clear();
  EXPECT_EQ(CLike::map(cl, kCap,
                       [&](uint64_t k) {
                         cm.push_back(k);
                         return cm.size() < stop;
                       }),
            ULeaf::map(ul, kCap, [&](uint64_t k) {
              um.push_back(k);
              return um.size() < stop;
            }));
  EXPECT_EQ(cm, um);
}

// Key regimes: dense small deltas (1-byte codes, the word/SIMD path),
// sparse 40-bit keys (multi-byte deltas), keys near 2^64, and clustered
// dense runs (long stretches of 1-byte codes between multi-byte jumps).
uint64_t gen_key(Rng& r, int regime) {
  switch (regime) {
    case 0:
      return 1 + r.next() % 300;
    case 1:
      return 1 + (r.next() % (uint64_t{1} << 40));
    case 2:
      return ~uint64_t{0} - (r.next() % 5000);
    default: {
      // A handful of 64-wide runs scattered across a 20-bit space.
      uint64_t run = 1 + (r.next() % 6) * 77777;
      return run + r.next() % 64;
    }
  }
}

template <typename Leaf>
void run_differential(uint64_t seed, int regime, int steps) {
  Rng r(seed);
  std::vector<uint8_t> cl(kCap, 0), ul(kCap, 0);
  std::vector<uint64_t> shadow;  // sorted mirror of the stored set
  std::vector<uint64_t> next;
  for (int step = 0; step < steps; ++step) {
    uint64_t key = gen_key(r, regime);
    bool is_insert = r.next() % 5 < 3;
    if (is_insert) {
      next = shadow;
      auto it = std::lower_bound(next.begin(), next.end(), key);
      bool fresh = it == next.end() || *it != key;
      if (fresh) next.insert(it, key);
      // Both policies must fit within the engine's slack invariant,
      // otherwise the engine would have rebalanced first — skip the op.
      if (Leaf::encoded_size(next.data(), next.size()) >
              kCap - pma::kLeafSlack ||
          ULeaf::encoded_size(next.data(), next.size()) >
              kCap - pma::kLeafSlack) {
        continue;
      }
      EXPECT_EQ(Leaf::insert(cl.data(), kCap, key), fresh);
      EXPECT_EQ(ULeaf::insert(ul.data(), kCap, key), fresh);
      shadow.swap(next);
    } else {
      if (!shadow.empty() && r.next() % 2 == 0) {
        key = shadow[r.next() % shadow.size()];  // guaranteed hit
      }
      auto it = std::lower_bound(shadow.begin(), shadow.end(), key);
      bool present = it != shadow.end() && *it == key;
      EXPECT_EQ(Leaf::remove(cl.data(), kCap, key), present);
      EXPECT_EQ(ULeaf::remove(ul.data(), kCap, key), present);
      if (present) shadow.erase(it);
    }
    // Periodic re-materialization: the engine rewrites leaves at every
    // rebalance.
    if (step % 96 == 95) {
      Leaf::write(cl.data(), kCap, shadow.data(), shadow.size());
      ULeaf::write(ul.data(), kCap, shadow.data(), shadow.size());
    }
    if (step % 16 == 0 || step + 1 == steps) {
      expect_equal_state<Leaf>(cl.data(), ul.data(), shadow, r);
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at step " << step << " seed " << seed
               << " regime " << regime;
      }
    }
  }
}

}  // namespace

template <typename Leaf>
class LeafDifferential : public ::testing::Test {};

using CompressedPolicies = ::testing::Types<BvLeaf, ScalarLeaf>;
TYPED_TEST_SUITE(LeafDifferential, CompressedPolicies);

TYPED_TEST(LeafDifferential, DenseKeys) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    run_differential<TypeParam>(seed, 0, 3000);
  }
}

TYPED_TEST(LeafDifferential, SparseFortyBitKeys) {
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    run_differential<TypeParam>(seed, 1, 3000);
  }
}

TYPED_TEST(LeafDifferential, KeysNearUint64Max) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    run_differential<TypeParam>(seed, 2, 2000);
  }
}

TYPED_TEST(LeafDifferential, DenseRunClusters) {
  for (uint64_t seed : {41u, 42u, 43u}) {
    run_differential<TypeParam>(seed, 3, 3000);
  }
}

TYPED_TEST(LeafDifferential, WriteRoundtripMatchesAcrossPolicies) {
  // write() + decode agreement on random sorted sets of every size that
  // fits both policies.
  Rng r(31);
  for (int trial = 0; trial < 240; ++trial) {
    int regime = trial % 4;
    std::vector<uint64_t> keys;
    uint64_t n = 1 + r.next() % 60;
    for (uint64_t i = 0; i < n; ++i) keys.push_back(gen_key(r, regime));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    if (TypeParam::encoded_size(keys.data(), keys.size()) > kCap ||
        ULeaf::encoded_size(keys.data(), keys.size()) > kCap) {
      continue;
    }
    std::vector<uint8_t> cl(kCap, 0), ul(kCap, 0);
    TypeParam::write(cl.data(), kCap, keys.data(), keys.size());
    ULeaf::write(ul.data(), kCap, keys.data(), keys.size());
    expect_equal_state<TypeParam>(cl.data(), ul.data(), keys, r);
  }
}
