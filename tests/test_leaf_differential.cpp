// Leaf-level differential property test: drives each compressed leaf policy
// (byte-varint, the same wire format through a codec with no bulk hooks,
// adaptive byte-varint/bitmap) and UncompressedLeaf
// through identical randomized insert/remove/query sequences and asserts the
// two policies expose identical observable state (decode, counts, sums,
// lookups, map, cursors, block streaming) after every mutation. A shadow
// sorted vector gates inserts on capacity so both leaves always execute the
// same operation within their engine preconditions. Periodic write() resets
// re-materialize from the shadow, which for AdaptiveLeaf re-runs format
// selection mid-sequence (so bitmap leaves also see the point insert/remove
// paths).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "pma/leaf_adaptive.hpp"
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
using ALeaf = pma::AdaptiveLeaf;
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
// dense runs (the bitmap-leaf sweet spot).
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
      // The extra used_bytes guard covers non-canonical formats (a bitmap
      // leaf's actual bytes can sit above the canonical estimate after a
      // run of point inserts).
      if (Leaf::encoded_size(next.data(), next.size()) >
              kCap - pma::kLeafSlack ||
          ULeaf::encoded_size(next.data(), next.size()) >
              kCap - pma::kLeafSlack ||
          Leaf::used_bytes(cl.data(), kCap) + pma::kLeafSlack > kCap) {
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
    // rebalance, and AdaptiveLeaf re-selects its format there.
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

using CompressedPolicies = ::testing::Types<BvLeaf, ScalarLeaf, ALeaf>;
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

// ---- incremental format sizing (AdaptiveLeaf only) -------------------------
//
// The engine packs leaves by StreamSizer::selected_bytes (the bytes a slice
// will materialize at in its selected format) and budgets them by
// encoded_size (canonical byte-varint cost). Both must agree with what
// write() actually lays down.

namespace {

// Sorted unique keys for one regime: dense, dense runs, uniform 40-bit,
// sparse 60-bit, and mixed: stride-2 runs between single keys whose gaps
// sit at bitmap window-delta varint boundaries (2^b - 1 windows, +-1).
std::vector<uint64_t> gen_regime_keys(Rng& r, int regime, size_t n) {
  if (regime == 4) {
    std::vector<uint64_t> keys;
    uint64_t cur = 1;
    while (keys.size() < n) {
      if (r.next() % 4 == 0) {
        for (int i = 0; i < 64; ++i) keys.push_back(cur += 2);
      } else {
        const uint64_t windows =
            (uint64_t{1} << (1 + r.next() % 20)) - 2 + r.next() % 3;
        keys.push_back(cur += 64 * windows + 1 + r.next() % 63);
      }
    }
    keys.resize(n);
    return keys;
  }
  std::set<uint64_t> s;
  while (s.size() < n) {
    switch (regime) {
      case 0:
        s.insert(1 + r.next() % (3 * n));
        break;
      case 1: {
        const uint64_t start = 1 + r.next() % (uint64_t{1} << 40);
        const uint64_t len = 16 + r.next() % 200;
        for (uint64_t i = 0; i < len; ++i) s.insert(start + i);
        break;
      }
      case 2:
        s.insert(1 + r.next() % (uint64_t{1} << 40));
        break;
      default:
        s.insert(1 + r.next() % (uint64_t{1} << 60));
        break;
    }
  }
  return {s.begin(), s.end()};
}

}  // namespace

TEST(AdaptiveLeafSizer, SelectedBytesMatchWriteWithinCanonicalCost) {
  for (int regime = 0; regime < 5; ++regime) {
    Rng r(300 + static_cast<uint64_t>(regime));
    const auto keys = gen_regime_keys(r, regime, 40000);
    size_t bitmap_slices = 0;
    for (int trial = 0; trial < 2000; ++trial) {
      const size_t n = r.next() % 257;
      const size_t begin = r.next() % (keys.size() - n);
      const uint64_t* slice = keys.data() + begin;
      ALeaf::StreamSizer sizer;
      for (size_t i = 0; i < n; ++i) sizer.add(slice[i]);
      const size_t canonical = n == 0 ? 0 : ALeaf::encoded_size(slice, n);
      const size_t cap = std::max<size_t>(canonical, ALeaf::kHeadBytes) +
                         r.next() % 64;
      std::vector<uint8_t> leaf(cap, 0xff);
      ALeaf::write(leaf.data(), cap, slice, n);
      const size_t used = ALeaf::used_bytes(leaf.data(), cap);
      ASSERT_EQ(sizer.selected_bytes(cap), used)
          << "regime=" << regime << " trial=" << trial << " n=" << n;
      ASSERT_LE(used, canonical)
          << "regime=" << regime << " trial=" << trial << " n=" << n;
      if (n > 0 && ALeaf::format_of(leaf.data()) == ALeaf::kBitmap) {
        ++bitmap_slices;
      }
    }
    if (regime == 1) {
      EXPECT_GT(bitmap_slices, 0u);
    }
  }
}

// ---- cross-format spread stitching (AdaptiveLeaf only) ---------------------
//
// The engine only direct-spreads uniformly byte-varint arrays (pma_impl
// refuses otherwise), but the leaf-level primitives are total: a spread
// writer accepts content from sources in any format and transcodes into the
// destination's adopted format. These tests drive every (src fmt, dst fmt)
// pairing through randomized round trips against a std::set oracle.

namespace {

constexpr size_t kSrcCap = 2048;
constexpr size_t kDstCap = 8192;

// Sorted unique keys whose density regime roughly matches the format we
// force, so pair/page counts stay representative.
std::vector<uint64_t> gen_sorted(Rng& r, int regime, size_t n) {
  std::set<uint64_t> s;
  while (s.size() < n) s.insert(gen_key(r, regime));
  return {s.begin(), s.end()};
}

}  // namespace

TEST(AdaptiveLeafSpread, CrossFormatJoinRoundTrip) {
  // Stitch several source leaves of cycling forced formats into one
  // destination; the decoded destination must equal the concatenation.
  Rng r(57);
  const uint8_t fmts[2] = {ALeaf::kByteVarint, ALeaf::kBitmap};
  for (int trial = 0; trial < 120; ++trial) {
    size_t nsrc = 2 + r.next() % 3;
    std::vector<std::vector<uint8_t>> srcs;
    std::vector<std::vector<uint64_t>> keysets;
    uint64_t lo = 1;
    for (size_t i = 0; i < nsrc; ++i) {
      int regime = (trial + static_cast<int>(i)) % 4;
      auto keys = gen_sorted(r, regime == 2 ? 0 : regime, 1 + r.next() % 40);
      for (auto& k : keys) k += lo;  // keep sources strictly increasing
      lo = keys.back() + 1 + r.next() % 1000;
      srcs.emplace_back(kSrcCap, 0);
      uint8_t fmt = fmts[(trial + i) % 2];
      ALeaf::write_format(srcs.back().data(), kSrcCap, keys.data(),
                          keys.size(), fmt);
      ASSERT_EQ(drain<ALeaf>(srcs.back().data()), keys) << "fmt=" << int(fmt);
      keysets.push_back(std::move(keys));
    }
    std::vector<uint8_t> dst(kDstCap, 0);
    typename ALeaf::SpreadWriter w;
    std::vector<uint64_t> want;
    for (size_t i = 0; i < nsrc; ++i) {
      size_t used = ALeaf::used_bytes(srcs[i].data(), kSrcCap);
      if (i == 0) {
        ALeaf::spread_begin(w, dst.data(), kDstCap, keysets[0][0]);
        if (trial % 5 == 0) {
          // Appends before any copy decide byte-varint; exercise that the
          // later copies then transcode into it.
          ALeaf::spread_append_keys(w, keysets[0].data() + 1,
                                    keysets[0].size() - 1);
          w.last = keysets[0].back();
        } else {
          ALeaf::spread_copy_tail(w, srcs[0].data(), ALeaf::kHeadBytes, used);
          w.last = keysets[0].back();
        }
      } else {
        ALeaf::spread_join(w, srcs[i].data(), keysets[i][0], used);
        w.last = keysets[i].back();
      }
      want.insert(want.end(), keysets[i].begin(), keysets[i].end());
    }
    ALeaf::spread_finish(w);
    std::vector<uint64_t> got;
    ALeaf::decode_append(dst.data(), kDstCap, got);
    ASSERT_EQ(got, want) << "trial=" << trial;
  }
}

TEST(AdaptiveLeafSpread, SplitRoundTripAllFormats) {
  // Split one leaf of each forced format at random byte budgets via its
  // SpreadSeeker and re-stitch the segments; the concatenation of the
  // destination decodes must equal the source.
  Rng r(58);
  const uint8_t fmts[2] = {ALeaf::kByteVarint, ALeaf::kBitmap};
  for (int trial = 0; trial < 90; ++trial) {
    int regime = trial % 4;
    auto keys = gen_sorted(r, regime == 2 ? 3 : regime, 2 + r.next() % 50);
    std::vector<uint8_t> src(kSrcCap, 0);
    uint8_t fmt = fmts[trial % 2];
    ALeaf::write_format(src.data(), kSrcCap, keys.data(), keys.size(), fmt);
    size_t used = ALeaf::used_bytes(src.data(), kSrcCap);
    size_t budget = used <= 17 ? used : 16 + r.next() % (used - 16);
    std::vector<typename ALeaf::SpreadPoint> splits;
    typename ALeaf::SpreadSeeker seeker(src.data(), kSrcCap);
    uint64_t last = seeker.split_targets(
        0, budget, 1, used,
        [&](uint64_t, typename ALeaf::SpreadPoint sp, bool sliver) {
          if (!sliver) splits.push_back(sp);
        });
    ASSERT_EQ(last, keys.back()) << "fmt=" << int(fmt);
    std::vector<uint64_t> got;
    std::vector<uint8_t> dst(kDstCap, 0);
    typename ALeaf::SpreadWriter w;
    ALeaf::spread_begin(w, dst.data(), kDstCap, keys[0]);
    size_t from = ALeaf::kHeadBytes;
    for (const auto& sp : splits) {
      ALeaf::spread_copy_tail(w, src.data(), from, sp.off);
      ALeaf::spread_finish(w);
      ALeaf::decode_append(dst.data(), kDstCap, got);
      std::fill(dst.begin(), dst.end(), 0);
      ALeaf::spread_begin(w, dst.data(), kDstCap, sp.key);
      from = sp.next;
    }
    ALeaf::spread_copy_tail(w, src.data(), from, used);
    ALeaf::spread_finish(w);
    ALeaf::decode_append(dst.data(), kDstCap, got);
    ASSERT_EQ(got, keys) << "trial=" << trial << " fmt=" << int(fmt)
                         << " budget=" << budget;
  }
}
