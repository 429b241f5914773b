// Typed tests exercising every leaf policy (uncompressed, compressed over
// two codecs) through the same scenarios: insert/remove/lookup
// against a reference std::set, encode/decode roundtrips, cursor iteration,
// and the policy invariants the engine relies on (byte accounting, zero-fill
// tails).
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "pma/leaf_compressed.hpp"
#include "pma/leaf_uncompressed.hpp"
#include "scalar_only_codec.hpp"
#include "util/random.hpp"

using cpma::util::Rng;
namespace pma = cpma::pma;

template <typename Policy>
class LeafTest : public ::testing::Test {
 protected:
  static constexpr size_t kCap = 512;
  std::vector<uint8_t> buf_ = std::vector<uint8_t>(kCap, 0);
  uint8_t* leaf() { return buf_.data(); }

  std::vector<uint64_t> decode() {
    std::vector<uint64_t> out;
    Policy::decode_append(leaf(), kCap, out);
    return out;
  }

  // The engine's invariant: all bytes past used_bytes are zero.
  void expect_zero_tail() {
    size_t used = Policy::used_bytes(leaf(), kCap);
    for (size_t i = used; i < kCap; ++i) {
      ASSERT_EQ(buf_[i], 0) << "dirty byte at " << i << " used=" << used;
    }
  }
};

// CompressedLeaf<ScalarOnlyCodec> runs every scenario through the stream's
// generic fallbacks, the path a codec without bulk hooks takes.
using Policies =
    ::testing::Types<pma::UncompressedLeaf, pma::CompressedLeaf<>,
                     pma::CompressedLeaf<ScalarOnlyCodec>>;
TYPED_TEST_SUITE(LeafTest, Policies);

TYPED_TEST(LeafTest, EmptyLeaf) {
  EXPECT_EQ(TypeParam::used_bytes(this->leaf(), this->kCap), 0u);
  EXPECT_EQ(TypeParam::element_count(this->leaf(), this->kCap), 0u);
  EXPECT_EQ(TypeParam::head(this->leaf()), 0u);
  EXPECT_FALSE(TypeParam::contains(this->leaf(), this->kCap, 5));
  EXPECT_FALSE(TypeParam::lower_bound(this->leaf(), this->kCap, 5).has_value());
  EXPECT_TRUE(this->decode().empty());
}

TYPED_TEST(LeafTest, SingleInsert) {
  EXPECT_TRUE(TypeParam::insert(this->leaf(), this->kCap, 42));
  EXPECT_EQ(TypeParam::head(this->leaf()), 42u);
  EXPECT_EQ(TypeParam::element_count(this->leaf(), this->kCap), 1u);
  EXPECT_TRUE(TypeParam::contains(this->leaf(), this->kCap, 42));
  EXPECT_FALSE(TypeParam::contains(this->leaf(), this->kCap, 41));
  EXPECT_FALSE(TypeParam::insert(this->leaf(), this->kCap, 42));  // dup
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, InsertBelowHeadMovesHead) {
  ASSERT_TRUE(TypeParam::insert(this->leaf(), this->kCap, 100));
  ASSERT_TRUE(TypeParam::insert(this->leaf(), this->kCap, 50));
  EXPECT_EQ(TypeParam::head(this->leaf()), 50u);
  EXPECT_EQ(this->decode(), (std::vector<uint64_t>{50, 100}));
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, InsertMiddleAndAppend) {
  for (uint64_t k : {10, 30, 20, 40, 35}) {
    ASSERT_TRUE(TypeParam::insert(this->leaf(), this->kCap, k));
  }
  EXPECT_EQ(this->decode(), (std::vector<uint64_t>{10, 20, 30, 35, 40}));
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, RemoveHeadMiddleLastOnly) {
  for (uint64_t k : {10, 20, 30, 40}) {
    ASSERT_TRUE(TypeParam::insert(this->leaf(), this->kCap, k));
  }
  EXPECT_TRUE(TypeParam::remove(this->leaf(), this->kCap, 10));  // head
  EXPECT_EQ(this->decode(), (std::vector<uint64_t>{20, 30, 40}));
  EXPECT_TRUE(TypeParam::remove(this->leaf(), this->kCap, 30));  // middle
  EXPECT_EQ(this->decode(), (std::vector<uint64_t>{20, 40}));
  EXPECT_TRUE(TypeParam::remove(this->leaf(), this->kCap, 40));  // last
  EXPECT_EQ(this->decode(), (std::vector<uint64_t>{20}));
  EXPECT_TRUE(TypeParam::remove(this->leaf(), this->kCap, 20));  // only
  EXPECT_EQ(TypeParam::element_count(this->leaf(), this->kCap), 0u);
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, RemoveAbsentKeys) {
  for (uint64_t k : {10, 20, 30}) {
    ASSERT_TRUE(TypeParam::insert(this->leaf(), this->kCap, k));
  }
  EXPECT_FALSE(TypeParam::remove(this->leaf(), this->kCap, 5));
  EXPECT_FALSE(TypeParam::remove(this->leaf(), this->kCap, 25));
  EXPECT_FALSE(TypeParam::remove(this->leaf(), this->kCap, 99));
  EXPECT_EQ(this->decode(), (std::vector<uint64_t>{10, 20, 30}));
}

TYPED_TEST(LeafTest, LowerBound) {
  for (uint64_t k : {10, 20, 30}) {
    ASSERT_TRUE(TypeParam::insert(this->leaf(), this->kCap, k));
  }
  EXPECT_EQ(TypeParam::lower_bound(this->leaf(), this->kCap, 5).value(), 10u);
  EXPECT_EQ(TypeParam::lower_bound(this->leaf(), this->kCap, 10).value(), 10u);
  EXPECT_EQ(TypeParam::lower_bound(this->leaf(), this->kCap, 11).value(), 20u);
  EXPECT_EQ(TypeParam::lower_bound(this->leaf(), this->kCap, 30).value(), 30u);
  EXPECT_FALSE(TypeParam::lower_bound(this->leaf(), this->kCap, 31).has_value());
}

TYPED_TEST(LeafTest, WriteRoundtripAndSizeAccounting) {
  std::vector<uint64_t> keys{5, 9, 100, 10000, 1000000, (1ull << 40) + 3};
  size_t need = TypeParam::encoded_size(keys.data(), keys.size());
  ASSERT_LE(need, this->kCap);
  TypeParam::write(this->leaf(), this->kCap, keys.data(), keys.size());
  EXPECT_EQ(TypeParam::used_bytes(this->leaf(), this->kCap), need);
  EXPECT_EQ(this->decode(), keys);
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, WriteEmptyClearsLeaf) {
  ASSERT_TRUE(TypeParam::insert(this->leaf(), this->kCap, 7));
  TypeParam::write(this->leaf(), this->kCap, nullptr, 0);
  EXPECT_EQ(TypeParam::element_count(this->leaf(), this->kCap), 0u);
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, SumLastMap) {
  std::vector<uint64_t> keys{3, 14, 159, 2653};
  TypeParam::write(this->leaf(), this->kCap, keys.data(), keys.size());
  EXPECT_EQ(TypeParam::sum_leaf(this->leaf(), this->kCap), 3u + 14 + 159 + 2653);
  EXPECT_EQ(TypeParam::last(this->leaf(), this->kCap), 2653u);
  std::vector<uint64_t> seen;
  bool finished = TypeParam::map(this->leaf(), this->kCap, [&](uint64_t k) {
    seen.push_back(k);
    return true;
  });
  EXPECT_TRUE(finished);
  EXPECT_EQ(seen, keys);
}

TYPED_TEST(LeafTest, MapEarlyStop) {
  std::vector<uint64_t> keys{1, 2, 3, 4, 5};
  TypeParam::write(this->leaf(), this->kCap, keys.data(), keys.size());
  int count = 0;
  bool finished = TypeParam::map(this->leaf(), this->kCap, [&](uint64_t) {
    return ++count < 3;
  });
  EXPECT_FALSE(finished);
  EXPECT_EQ(count, 3);
}

TYPED_TEST(LeafTest, CursorIteration) {
  std::vector<uint64_t> keys{11, 22, 33, 44};
  TypeParam::write(this->leaf(), this->kCap, keys.data(), keys.size());
  typename TypeParam::Cursor cur;
  ASSERT_TRUE(TypeParam::cursor_begin(this->leaf(), this->kCap, cur));
  std::vector<uint64_t> seen{cur.value};
  while (TypeParam::cursor_next(this->leaf(), this->kCap, cur)) {
    seen.push_back(cur.value);
  }
  EXPECT_EQ(seen, keys);
}

TYPED_TEST(LeafTest, CursorOnEmptyLeaf) {
  typename TypeParam::Cursor cur;
  EXPECT_FALSE(TypeParam::cursor_begin(this->leaf(), this->kCap, cur));
}

TYPED_TEST(LeafTest, RandomizedAgainstStdSet) {
  Rng r(77);
  std::set<uint64_t> ref;
  // Keep the population small enough that everything fits in one leaf.
  const uint64_t key_space = 40;
  for (int step = 0; step < 4000; ++step) {
    uint64_t key = 1 + r.next() % key_space;
    if (r.next() % 2 == 0) {
      bool inserted = TypeParam::insert(this->leaf(), this->kCap, key);
      EXPECT_EQ(inserted, ref.insert(key).second);
    } else {
      bool removed = TypeParam::remove(this->leaf(), this->kCap, key);
      EXPECT_EQ(removed, ref.erase(key) == 1);
    }
    if (step % 256 == 0) {
      std::vector<uint64_t> want(ref.begin(), ref.end());
      ASSERT_EQ(this->decode(), want);
      this->expect_zero_tail();
    }
  }
}

TYPED_TEST(LeafTest, LargeKeysNearUint64Max) {
  std::vector<uint64_t> keys{~uint64_t{0} - 1000, ~uint64_t{0} - 10,
                             ~uint64_t{0}};
  for (uint64_t k : keys) {
    ASSERT_TRUE(TypeParam::insert(this->leaf(), this->kCap, k));
  }
  EXPECT_EQ(this->decode(), keys);
  EXPECT_TRUE(TypeParam::contains(this->leaf(), this->kCap, ~uint64_t{0}));
}

// ---- merge_tail (the batch pipeline's suffix-splice merge) ----------------

TYPED_TEST(LeafTest, MergeTailSplicesBatchIntoSuffix) {
  std::vector<uint64_t> base{10, 20, 30, 40, 50};
  TypeParam::write(this->leaf(), this->kCap, base.data(), base.size());
  std::vector<uint64_t> batch{25, 35, 35, 40, 60};  // dup-in-batch + existing
  typename TypeParam::MergeBuf buf;
  size_t need = 0;
  uint64_t added = 0;
  ASSERT_TRUE(TypeParam::merge_tail(this->leaf(), this->kCap, batch.data(),
                                    batch.size(), this->kCap - 24, buf, &need,
                                    &added));
  EXPECT_EQ(this->decode(),
            (std::vector<uint64_t>{10, 20, 25, 30, 35, 40, 50, 60}));
  EXPECT_EQ(added, 3u);
  EXPECT_EQ(need, TypeParam::used_bytes(this->leaf(), this->kCap));
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, MergeTailRejectsEmptyLeafAndKeysBelowHead) {
  typename TypeParam::MergeBuf buf;
  size_t need = 0;
  uint64_t added = 0;
  std::vector<uint64_t> batch{5};
  // Empty leaf: the engine's materializing path owns this case.
  EXPECT_FALSE(TypeParam::merge_tail(this->leaf(), this->kCap, batch.data(),
                                     1, this->kCap - 24, buf, &need, &added));
  std::vector<uint64_t> base{10, 20};
  TypeParam::write(this->leaf(), this->kCap, base.data(), base.size());
  // keys[0] < head: splicing would displace the head; also materializing.
  EXPECT_FALSE(TypeParam::merge_tail(this->leaf(), this->kCap, batch.data(),
                                     1, this->kCap - 24, buf, &need, &added));
  EXPECT_EQ(this->decode(), base);
}

TYPED_TEST(LeafTest, MergeTailOverflowLeavesLeafUntouched) {
  // Fill the leaf close to its slack bound, then merge a batch that cannot
  // fit: merge_tail must refuse without modifying a byte.
  std::vector<uint64_t> base;
  for (uint64_t k = 1000; TypeParam::used_bytes(this->leaf(), this->kCap) +
                              64 <= this->kCap - 24;
       k += 1 + k % 7) {
    ASSERT_TRUE(TypeParam::insert(this->leaf(), this->kCap, k));
    base.push_back(k);
  }
  std::vector<uint8_t> before = this->buf_;
  std::vector<uint64_t> batch;
  for (uint64_t i = 0; i < 64; ++i) batch.push_back(2'000'000 + i * 3);
  typename TypeParam::MergeBuf buf;
  size_t need = 0;
  uint64_t added = 0;
  EXPECT_FALSE(TypeParam::merge_tail(this->leaf(), this->kCap, batch.data(),
                                     batch.size(), this->kCap - 24, buf,
                                     &need, &added));
  EXPECT_EQ(this->buf_, before);
}

TYPED_TEST(LeafTest, MergeTailRandomizedAgainstStdSet) {
  Rng r(77);
  for (int round = 0; round < 200; ++round) {
    std::fill(this->buf_.begin(), this->buf_.end(), 0);
    std::set<uint64_t> ref;
    uint64_t span = 1 + (r.next() % 2 == 0 ? 400 : 1u << 20);
    std::vector<uint64_t> base;
    for (uint64_t i = 0, n = 5 + r.next() % 30; i < n; ++i) {
      ref.insert(1 + r.next() % span);
    }
    base.assign(ref.begin(), ref.end());
    TypeParam::write(this->leaf(), this->kCap, base.data(), base.size());
    std::vector<uint64_t> batch;
    for (uint64_t i = 0, n = 1 + r.next() % 10; i < n; ++i) {
      batch.push_back(base[0] + r.next() % span);
    }
    std::sort(batch.begin(), batch.end());
    typename TypeParam::MergeBuf buf;
    size_t need = 0;
    uint64_t added = 0;
    if (!TypeParam::merge_tail(this->leaf(), this->kCap, batch.data(),
                               batch.size(), this->kCap - 24, buf, &need,
                               &added)) {
      EXPECT_EQ(this->decode(), base) << "refusal must not modify the leaf";
      continue;
    }
    uint64_t expect_added = 0;
    for (uint64_t k : batch) expect_added += ref.insert(k).second ? 1 : 0;
    EXPECT_EQ(this->decode(),
              std::vector<uint64_t>(ref.begin(), ref.end()));
    EXPECT_EQ(added, expect_added);
    EXPECT_EQ(need, TypeParam::used_bytes(this->leaf(), this->kCap));
    this->expect_zero_tail();
  }
}

// ---- remove_tail (the batch pipeline's suffix-splice subtraction) ----------

TYPED_TEST(LeafTest, RemoveTailSplicesBatchOutOfSuffix) {
  std::vector<uint64_t> base{10, 20, 30, 40, 50, 60};
  TypeParam::write(this->leaf(), this->kCap, base.data(), base.size());
  std::vector<uint64_t> batch{25, 30, 30, 50, 70};  // dups + absent keys
  typename TypeParam::MergeBuf buf;
  size_t need = 0;
  uint64_t removed = 0;
  ASSERT_TRUE(TypeParam::remove_tail(this->leaf(), this->kCap, batch.data(),
                                     batch.size(), buf, &need, &removed));
  EXPECT_EQ(this->decode(), (std::vector<uint64_t>{10, 20, 40, 60}));
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(need, TypeParam::used_bytes(this->leaf(), this->kCap));
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, RemoveTailRefusesEmptyLeafUntouched) {
  typename TypeParam::MergeBuf buf;
  size_t need = 0;
  uint64_t removed = 0;
  std::vector<uint64_t> batch{5};
  std::vector<uint8_t> before = this->buf_;
  EXPECT_FALSE(TypeParam::remove_tail(this->leaf(), this->kCap, batch.data(),
                                      1, buf, &need, &removed));
  EXPECT_EQ(this->buf_, before);
}

TYPED_TEST(LeafTest, RemoveTailNoMatchLeavesLeafUntouched) {
  std::vector<uint64_t> base{10, 20, 30};
  TypeParam::write(this->leaf(), this->kCap, base.data(), base.size());
  std::vector<uint8_t> before = this->buf_;
  typename TypeParam::MergeBuf buf;
  size_t need = 0;
  uint64_t removed = 1;
  // All batch keys below the head: absent by definition.
  std::vector<uint64_t> low{3, 5};
  ASSERT_TRUE(TypeParam::remove_tail(this->leaf(), this->kCap, low.data(),
                                     low.size(), buf, &need, &removed));
  EXPECT_EQ(removed, 0u);
  EXPECT_EQ(this->buf_, before);
  // In-range but absent keys: scanned, still untouched.
  std::vector<uint64_t> absent{15, 25, 99};
  removed = 1;
  ASSERT_TRUE(TypeParam::remove_tail(this->leaf(), this->kCap, absent.data(),
                                     absent.size(), buf, &need, &removed));
  EXPECT_EQ(removed, 0u);
  EXPECT_EQ(this->buf_, before);
}

TYPED_TEST(LeafTest, RemoveTailPromotesSurvivorIntoRemovedHead) {
  std::vector<uint64_t> base{10, 20, 30, 40};
  TypeParam::write(this->leaf(), this->kCap, base.data(), base.size());
  std::vector<uint64_t> batch{10, 30};
  typename TypeParam::MergeBuf buf;
  size_t need = 0;
  uint64_t removed = 0;
  ASSERT_TRUE(TypeParam::remove_tail(this->leaf(), this->kCap, batch.data(),
                                     batch.size(), buf, &need, &removed));
  EXPECT_EQ(this->decode(), (std::vector<uint64_t>{20, 40}));
  EXPECT_EQ(TypeParam::head(this->leaf()), 20u);
  EXPECT_EQ(removed, 2u);
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, RemoveTailRemovingEverythingEmptiesLeaf) {
  std::vector<uint64_t> base{10, 20, 30};
  TypeParam::write(this->leaf(), this->kCap, base.data(), base.size());
  std::vector<uint64_t> batch{10, 20, 30};
  typename TypeParam::MergeBuf buf;
  size_t need = 0;
  uint64_t removed = 0;
  ASSERT_TRUE(TypeParam::remove_tail(this->leaf(), this->kCap, batch.data(),
                                     batch.size(), buf, &need, &removed));
  EXPECT_EQ(removed, 3u);
  EXPECT_EQ(TypeParam::element_count(this->leaf(), this->kCap), 0u);
  EXPECT_EQ(need, 0u);
  this->expect_zero_tail();
}

TYPED_TEST(LeafTest, RemoveTailRandomizedAgainstStdSet) {
  Rng r(78);
  for (int round = 0; round < 200; ++round) {
    std::fill(this->buf_.begin(), this->buf_.end(), 0);
    std::set<uint64_t> ref;
    uint64_t span = 1 + (r.next() % 2 == 0 ? 400 : 1u << 20);
    for (uint64_t i = 0, n = 5 + r.next() % 30; i < n; ++i) {
      ref.insert(1 + r.next() % span);
    }
    std::vector<uint64_t> base(ref.begin(), ref.end());
    TypeParam::write(this->leaf(), this->kCap, base.data(), base.size());
    std::vector<uint64_t> batch;
    for (uint64_t i = 0, n = 1 + r.next() % 10; i < n; ++i) {
      // Mix of present keys (sampled from base) and likely-absent ones.
      if (r.next() % 2 == 0) {
        batch.push_back(base[r.next() % base.size()]);
      } else {
        batch.push_back(1 + r.next() % span);
      }
    }
    std::sort(batch.begin(), batch.end());
    typename TypeParam::MergeBuf buf;
    size_t need = 0;
    uint64_t removed = 0;
    ASSERT_TRUE(TypeParam::remove_tail(this->leaf(), this->kCap, batch.data(),
                                       batch.size(), buf, &need, &removed));
    uint64_t expect_removed = 0;
    for (uint64_t k : batch) expect_removed += ref.erase(k);
    EXPECT_EQ(this->decode(), std::vector<uint64_t>(ref.begin(), ref.end()));
    EXPECT_EQ(removed, expect_removed);
    if (removed > 0) {
      EXPECT_EQ(need, TypeParam::used_bytes(this->leaf(), this->kCap));
    }
    this->expect_zero_tail();
  }
}

// ---- direct-spread primitives ----------------------------------------------

TYPED_TEST(LeafTest, SpreadSeekerSplitsAndStitchesRoundTrip) {
  // Drive the resize's one-pass split emitter exactly as the engine does:
  // collect every destination boundary for a byte budget, stitch the
  // segments between them into fresh leaves via the spread writer, and
  // check the concatenation decodes back to the original keys. Key sets
  // cover mixed widths plus the uniform 1/2/3-byte delta regimes the
  // codec's sum_run_to word probes special-case.
  std::vector<std::vector<uint64_t>> key_sets;
  key_sets.push_back({3, 14, 159, 2653, 58979, 1ull << 33});
  for (uint64_t step : {3ull, 9000ull, 1500000ull}) {
    std::vector<uint64_t> ks;
    for (uint64_t i = 0, k = 1000; i < 40; ++i) ks.push_back(k += step);
    key_sets.push_back(ks);
  }
  for (const auto& keys : key_sets) {
    TypeParam::write(this->leaf(), this->kCap, keys.data(), keys.size());
    size_t used = TypeParam::used_bytes(this->leaf(), this->kCap);
    // 16 is the engine's minimum budget; `used` yields no interior split.
    for (size_t budget : {size_t{16}, size_t{24}, size_t{57}, used}) {
      std::vector<typename TypeParam::SpreadPoint> splits;
      typename TypeParam::SpreadSeeker seeker(this->leaf(), this->kCap);
      uint64_t last = seeker.split_targets(
          0, budget, 1, used,
          [&](uint64_t, typename TypeParam::SpreadPoint sp, bool sliver) {
            // A boundary past the last key's code start splits nothing
            // here; the engine resolves it to the next leaf's head.
            if (!sliver) splits.push_back(sp);
          });
      ASSERT_EQ(last, keys.back()) << "budget=" << budget;
      std::vector<uint64_t> got;
      std::vector<uint8_t> dst(this->kCap, 0);
      typename TypeParam::SpreadWriter w;
      TypeParam::spread_begin(w, dst.data(), this->kCap, keys[0]);
      size_t from = TypeParam::kHeadBytes;  // just past the head's footprint
      for (const auto& sp : splits) {
        TypeParam::spread_copy_tail(w, this->leaf(), from, sp.off);
        TypeParam::spread_finish(w);
        TypeParam::decode_append(dst.data(), this->kCap, got);
        std::fill(dst.begin(), dst.end(), 0);
        TypeParam::spread_begin(w, dst.data(), this->kCap, sp.key);
        from = sp.next;
      }
      TypeParam::spread_copy_tail(w, this->leaf(), from, used);
      TypeParam::spread_finish(w);
      TypeParam::decode_append(dst.data(), this->kCap, got);
      ASSERT_EQ(got, keys) << "budget=" << budget;
    }
  }
}

// Compressed-leaf-specific size behaviour.
TEST(CompressedLeafOnly, DenseKeysUseOneBytePerDelta) {
  std::vector<uint8_t> buf(512, 0);
  std::vector<uint64_t> keys(100);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = 1000 + i;
  pma::CompressedLeaf<>::write(buf.data(), buf.size(), keys.data(), keys.size());
  // head (8 bytes) + 99 one-byte deltas.
  EXPECT_EQ(pma::CompressedLeaf<>::used_bytes(buf.data(), buf.size()),
            8u + 99u);
}

TEST(CompressedLeafOnly, InsertNeverGrowsMoreThanSlack) {
  // Worst-case single-insert growth must stay within kLeafSlack-ish bounds;
  // this protects the engine's placement precondition.
  std::vector<uint8_t> buf(512, 0);
  std::vector<uint64_t> keys{1ull << 62, (1ull << 62) + (1ull << 40)};
  pma::CompressedLeaf<>::write(buf.data(), buf.size(), keys.data(), keys.size());
  size_t before = pma::CompressedLeaf<>::used_bytes(buf.data(), buf.size());
  ASSERT_TRUE(pma::CompressedLeaf<>::insert(buf.data(), buf.size(),
                                          (1ull << 62) + (1ull << 39)));
  size_t after = pma::CompressedLeaf<>::used_bytes(buf.data(), buf.size());
  EXPECT_LE(after - before, 19u);
}

TEST(CompressedLeafOnly, StreamFillingTheLeafExactlyUsesEveryByte) {
  // A stream that ends at cap leaves no room for a terminator: used_bytes
  // is cap, and reads stop at the buffer end instead.
  using L = pma::CompressedLeaf<>;
  std::vector<uint64_t> keys(100);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = 1000 + 3 * i;
  const size_t cap = L::encoded_size(keys.data(), keys.size());
  ASSERT_EQ(cap, 8u + 99u);
  std::vector<uint8_t> buf(cap, 0);
  L::write(buf.data(), cap, keys.data(), keys.size());
  EXPECT_EQ(L::used_bytes(buf.data(), cap), cap);
  EXPECT_EQ(L::element_count(buf.data(), cap), keys.size());
  EXPECT_EQ(L::last(buf.data(), cap), keys.back());
  std::vector<uint64_t> got;
  L::decode_append(buf.data(), cap, got);
  EXPECT_EQ(got, keys);
}

TEST(UncompressedLeafOnly, FixedEightBytesPerElement) {
  std::vector<uint8_t> buf(512, 0);
  std::vector<uint64_t> keys{1, 1000, 1ull << 50};
  pma::UncompressedLeaf::write(buf.data(), buf.size(), keys.data(),
                               keys.size());
  EXPECT_EQ(pma::UncompressedLeaf::used_bytes(buf.data(), buf.size()), 24u);
}
