// Adaptive leaf policy: per-leaf codec selection over two formats.
//
// Layout: [8-byte head][1-byte format tag][body...]. The tag is part of the
// leaf header (kHeadBytes = 9), so every format's body starts at offset 9
// and a zero-filled leaf is a valid empty byte-varint leaf (tag 0). The
// byte-varint format delegates to CompressedLeaf<ByteVarintCodec, 9>, which
// leaves the tag byte untouched (its writes cover [0,8) and [9,cap)); the
// bitmap format is implemented here on top of codec/bitmap_leaf.hpp.
//
// Formats (the tag values are what a leaf stores in byte 8):
//   0 byte-varint   — the canonical format (CompressedLeaf<ByteVarintCodec>)
//   2 bitmap        — window/word pairs, wins on dense runs (~1 bit/key)
//
// CANONICAL-COST INVARIANT: all engine planning (delta_bytes, encoded_size,
// spread budgets, overflow accounting) quotes byte-varint cost. write()
// selects the bitmap only when its exact encoded size is no larger than the
// canonical size, so a materialized leaf never exceeds the bytes the engine
// budgeted for it. Mutations preserve the property: byte-varint leaves grow
// exactly as CompressedLeaf does, bitmap point ops grow by at most
// kMaxInsertGrowth, and bitmap remove_tail re-encodes in bitmap format (a
// subset never encodes larger). Direct-spread byte stitching, whose cost
// model is also canonical, is only exact for byte-varint content — the
// engine refuses direct spreads when bitmap leaves are present and takes
// the pack+rebuild path, which re-selects formats anyway (pma_impl.hpp).
//
// Selection (write()): the exact encoded sizes of both formats are computed
// and the bitmap is chosen when it is no larger than the canonical size.
// The same rule drives StreamSizer, the incremental sizer the engine uses to
// pack leaves by physical (selected-format) bytes during spread/rebuild.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <optional>
#include <variant>
#include <vector>

#include "codec/bitmap_leaf.hpp"
#include "codec/delta_stream.hpp"
#include "pma/leaf_compressed.hpp"

namespace cpma::pma {

struct AdaptiveLeaf {
  using key_type = uint64_t;
  using BV = CompressedLeaf<codec::ByteVarintCodec, 9>;
  static constexpr const char* name = "acpma";
  static constexpr bool compressed = true;
  static constexpr size_t kHeadBytes = 9;
  // Wider than the single-codec leaves so the bitmap full-window fast path
  // (64 keys per pair) can land several whole windows per block_next call;
  // at the byte-varint default of 64 the head alone leaves room for < 1.
  static constexpr size_t kBlockKeys = 256;
  // Byte-varint dominates: a split delta (19) beats the bitmap's worst case
  // (a displaced-head pair insert plus a first-pair window rebase, <= 18).
  static constexpr size_t kMaxInsertGrowth = BV::kMaxInsertGrowth;

  enum Format : uint8_t { kByteVarint = 0, kBitmap = 2 };
  static uint8_t format_of(const uint8_t* leaf) { return leaf[8]; }

  static uint64_t head(const uint8_t* leaf) {
    uint64_t h;
    std::memcpy(&h, leaf, 8);
    return h;
  }
  static void set_head(uint8_t* leaf, uint64_t h) { std::memcpy(leaf, &h, 8); }

  // Canonical (byte-varint) cost model — see the invariant above.
  static constexpr size_t delta_bytes(key_type prev, key_type key) {
    return BV::delta_bytes(prev, key);
  }
  static size_t encoded_size(const uint64_t* keys, size_t n) {
    return BV::encoded_size(keys, n);
  }

  // ---- bitmap body access ---------------------------------------------------

  static const uint8_t* body(const uint8_t* leaf) { return leaf + kHeadBytes; }
  static uint8_t* body(uint8_t* leaf) { return leaf + kHeadBytes; }

  static codec::bitmap::PairReader pairs(const uint8_t* leaf, size_t cap) {
    return codec::bitmap::PairReader(body(leaf), cap - kHeadBytes,
                                     codec::bitmap::window(head(leaf)));
  }

  // ---- reads ----------------------------------------------------------------

  static size_t used_bytes(const uint8_t* leaf, size_t cap) {
    if (leaf[8] != kBitmap) return BV::used_bytes(leaf, cap);
    if (head(leaf) == 0) return 0;
    return kHeadBytes + codec::bitmap::body_used(body(leaf), cap - kHeadBytes);
  }

  static uint64_t element_count(const uint8_t* leaf, size_t cap) {
    if (leaf[8] != kBitmap) return BV::element_count(leaf, cap);
    if (head(leaf) == 0) return 0;
    uint64_t n = 1;
    auto r = pairs(leaf, cap);
    while (r.next()) n += static_cast<uint64_t>(__builtin_popcountll(r.word()));
    return n;
  }

  static bool contains(const uint8_t* leaf, size_t cap, uint64_t key) {
    if (leaf[8] != kBitmap) return BV::contains(leaf, cap, key);
    uint64_t h = head(leaf);
    if (h == 0 || key < h) return false;
    if (key == h) return true;
    const uint64_t wk = codec::bitmap::window(key);
    auto r = pairs(leaf, cap);
    while (r.next()) {
      if (r.win() > wk) return false;
      if (r.win() == wk) return (r.word() & codec::bitmap::bit_mask(key)) != 0;
    }
    return false;
  }

  static std::optional<uint64_t> lower_bound(const uint8_t* leaf, size_t cap,
                                             uint64_t key) {
    if (leaf[8] != kBitmap) return BV::lower_bound(leaf, cap, key);
    uint64_t h = head(leaf);
    if (h == 0) return std::nullopt;
    if (h >= key) return h;
    const uint64_t wk = codec::bitmap::window(key);
    auto r = pairs(leaf, cap);
    while (r.next()) {
      if (r.win() < wk) continue;
      uint64_t word = r.word();
      if (r.win() == wk) {
        word &= ~uint64_t{0} << codec::bitmap::bit_of(key);
        if (word == 0) continue;
      }
      return (r.win() << 6) | static_cast<unsigned>(__builtin_ctzll(word));
    }
    return std::nullopt;
  }

  template <typename F>
  static bool map(const uint8_t* leaf, size_t cap, F&& f) {
    if (leaf[8] != kBitmap) return BV::map(leaf, cap, f);
    uint64_t h = head(leaf);
    if (h == 0) return true;
    if (!f(h)) return false;
    auto r = pairs(leaf, cap);
    while (r.next()) {
      uint64_t word = r.word();
      const uint64_t base = r.win() << 6;
      if (word == ~uint64_t{0}) {
        for (unsigned i = 0; i < 64; ++i) {
          if (!f(base + i)) return false;
        }
        continue;
      }
      while (word) {
        if (!f(base | static_cast<unsigned>(__builtin_ctzll(word)))) {
          return false;
        }
        word &= word - 1;
      }
    }
    return true;
  }

  static uint64_t sum_leaf(const uint8_t* leaf, size_t cap) {
    if (leaf[8] != kBitmap) return BV::sum_leaf(leaf, cap);
    uint64_t sum = 0;
    map(leaf, cap, [&](uint64_t k) {
      sum += k;
      return true;
    });
    return sum;
  }

  static uint64_t last(const uint8_t* leaf, size_t cap) {
    if (leaf[8] != kBitmap) return BV::last(leaf, cap);
    uint64_t h = head(leaf);
    if (h == 0) return 0;
    uint64_t v = h;
    auto r = pairs(leaf, cap);
    while (r.next()) {
      v = (r.win() << 6) |
          static_cast<unsigned>(63 - __builtin_clzll(r.word()));
    }
    return v;
  }

  static void decode_append(const uint8_t* leaf, size_t cap,
                            std::vector<uint64_t>& out) {
    if (leaf[8] != kBitmap) {
      BV::decode_append(leaf, cap, out);
      return;
    }
    map(leaf, cap, [&](uint64_t k) {
      out.push_back(k);
      return true;
    });
  }

  static size_t decode_to(const uint8_t* leaf, size_t cap, uint64_t* out) {
    if (leaf[8] != kBitmap) return BV::decode_to(leaf, cap, out);
    size_t n = 0;
    map(leaf, cap, [&](uint64_t k) {
      out[n++] = k;
      return true;
    });
    return n;
  }

  // ---- point mutations ------------------------------------------------------

  static bool insert(uint8_t* leaf, size_t cap, uint64_t key) {
    if (leaf[8] == kBitmap) return insert_bitmap(leaf, cap, key);
    return BV::insert(leaf, cap, key);
  }

  static bool remove(uint8_t* leaf, size_t cap, uint64_t key) {
    if (leaf[8] == kBitmap) return remove_bitmap(leaf, cap, key);
    return BV::remove(leaf, cap, key);
  }

 private:
  // Replaces body bytes [off, off+old_len) with rep[0, new_len), shifting the
  // tail and zero-filling any freed suffix. `used` is the body's used bytes.
  static void splice_body(uint8_t* b, size_t bcap, size_t used, size_t off,
                          size_t old_len, const uint8_t* rep, size_t new_len) {
    assert(off + old_len <= used && used - old_len + new_len <= bcap);
    (void)bcap;
    std::memmove(b + off + new_len, b + off + old_len, used - off - old_len);
    if (new_len != 0) std::memcpy(b + off, rep, new_len);
    if (new_len < old_len) {
      std::memset(b + used - (old_len - new_len), 0, old_len - new_len);
    }
  }

  static bool insert_bitmap(uint8_t* leaf, size_t cap, uint64_t key) {
    namespace bm = codec::bitmap;
    uint64_t h = head(leaf);
    uint8_t* b = body(leaf);
    const size_t bcap = cap - kHeadBytes;
    if (key == h) return false;
    if (key < h) {
      // key becomes the head; the old head becomes a bit. The first pair's
      // window delta rebases from window(h) to window(key).
      const size_t used = bm::body_used(b, bcap);
      uint8_t tmp[2 * bm::kMaxPairBytes];
      size_t tlen;
      size_t old_len;
      if (used == 0) {
        old_len = 0;
        tlen = bm::store_pair(tmp, bm::window(h) - bm::window(key),
                              bm::bit_mask(h));
      } else {
        bm::Pair f = bm::load_pair(b);
        old_len = f.len;
        const uint64_t w1 = bm::window(h) + f.wdelta;
        if (w1 == bm::window(h)) {
          tlen = bm::store_pair(tmp, w1 - bm::window(key),
                                f.word | bm::bit_mask(h));
        } else {
          tlen = bm::store_pair(tmp, bm::window(h) - bm::window(key),
                                bm::bit_mask(h));
          tlen += bm::store_pair(tmp + tlen, f.wdelta, f.word);
        }
      }
      splice_body(b, bcap, used, 0, old_len, tmp, tlen);
      set_head(leaf, key);
      return true;
    }
    const uint64_t wk = bm::window(key);
    uint64_t prev_w = bm::window(h);
    bm::PairReader r(b, bcap, prev_w);
    while (r.next()) {
      if (r.win() == wk) {
        if (r.word() & bm::bit_mask(key)) return false;
        const uint64_t nw = r.word() | bm::bit_mask(key);
        std::memcpy(b + r.pair_end() - 8, &nw, 8);
        return true;
      }
      if (r.win() > wk) {
        // New pair before this one; this pair's delta re-chains from wk.
        const size_t used = bm::body_used(b, bcap);
        uint8_t tmp[2 * bm::kMaxPairBytes];
        size_t tlen = bm::store_pair(tmp, wk - prev_w, bm::bit_mask(key));
        tlen += bm::store_pair(tmp + tlen, r.win() - wk, r.word());
        splice_body(b, bcap, used, r.pair_off(),
                    r.pair_end() - r.pair_off(), tmp, tlen);
        return true;
      }
      prev_w = r.win();
    }
    // Largest window: append (pair_off() is the terminator offset here).
    uint8_t tmp[bm::kMaxPairBytes];
    const size_t tlen = bm::store_pair(tmp, wk - prev_w, bm::bit_mask(key));
    assert(r.pair_off() + tlen <= bcap);
    std::memcpy(b + r.pair_off(), tmp, tlen);
    return true;
  }

  static bool remove_bitmap(uint8_t* leaf, size_t cap, uint64_t key) {
    namespace bm = codec::bitmap;
    uint64_t h = head(leaf);
    if (h == 0 || key < h) return false;
    uint8_t* b = body(leaf);
    const size_t bcap = cap - kHeadBytes;
    if (key == h) {
      if (bcap == 0 || b[0] == 0) {  // only element: clear head AND tag
        std::memset(leaf, 0, kHeadBytes);
        return true;
      }
      // Promote the first bit of the first pair into the head; its window
      // delta rebases to 0 (the new head lives in that same window).
      bm::Pair f = bm::load_pair(b);
      const uint64_t w1 = bm::window(h) + f.wdelta;
      const uint64_t nh =
          (w1 << 6) | static_cast<unsigned>(__builtin_ctzll(f.word));
      const uint64_t nword = f.word & (f.word - 1);
      const size_t used = bm::body_used(b, bcap);
      if (nword == 0) {
        // Drop the pair; the next pair's delta chains from w1 == window(nh).
        splice_body(b, bcap, used, 0, f.len, nullptr, 0);
      } else {
        uint8_t tmp[bm::kMaxPairBytes];
        const size_t tlen = bm::store_pair(tmp, 0, nword);
        splice_body(b, bcap, used, 0, f.len, tmp, tlen);
      }
      set_head(leaf, nh);
      return true;
    }
    const uint64_t wk = bm::window(key);
    uint64_t prev_w = bm::window(h);
    bm::PairReader r(b, bcap, prev_w);
    while (r.next()) {
      if (r.win() > wk) return false;
      if (r.win() == wk) {
        if (!(r.word() & bm::bit_mask(key))) return false;
        const uint64_t nw = r.word() & ~bm::bit_mask(key);
        if (nw != 0) {
          std::memcpy(b + r.pair_end() - 8, &nw, 8);
          return true;
        }
        // Pair emptied: drop it, merging its delta into the next pair
        // (var(a+b+1) <= var(a+1) + var(b+1) + 8, so this never grows).
        const size_t used = bm::body_used(b, bcap);
        const size_t off = r.pair_off();
        const size_t len = r.pair_end() - off;
        const uint64_t a = r.win() - prev_w;
        if (r.pair_end() < bcap && b[r.pair_end()] != 0) {
          bm::Pair nx = bm::load_pair(b + r.pair_end());
          uint8_t tmp[bm::kMaxPairBytes];
          const size_t tlen = bm::store_pair(tmp, a + nx.wdelta, nx.word);
          splice_body(b, bcap, used, off, len + nx.len, tmp, tlen);
        } else {
          splice_body(b, bcap, used, off, len, nullptr, 0);
        }
        return true;
      }
      prev_w = r.win();
    }
    return false;
  }

 public:
  // ---- materialized writes (format selection happens here) ------------------

  // Selection rule shared by select_format (array form) and StreamSizer
  // (incremental form). Both sizes are exact encoded sizes including the
  // kHeadBytes header; the bitmap is chosen only when it is no larger than
  // the canonical (byte-varint) size, which batch planning quotes as the
  // upper bound. (A span/density pre-filter proved too blunt: a leaf
  // holding several dense islands separated by large gaps has a huge span
  // but still compresses ~6x better as a bitmap.)
  static uint8_t choose_format(size_t n, size_t canonical, size_t bmsz,
                               size_t cap) {
    return n >= 2 && bmsz <= canonical && bmsz <= cap ? kBitmap : kByteVarint;
  }

  static uint8_t select_format(const uint64_t* keys, size_t n, size_t cap) {
    if (n < 2) return kByteVarint;
    return choose_format(n, BV::encoded_size(keys, n),
                         kHeadBytes + codec::bitmap::body_size(keys, n), cap);
  }

  // Incremental exact sizer for a growing key slice: tracks each format's
  // encoded body bytes key-by-key so the engine can pack leaves by the size
  // the slice will ACTUALLY materialize at (selected format), not by its
  // canonical byte-varint cost. Physical packing is what lets dense regions
  // keep their bitmap-compressed footprint through redistributes/resizes.
  struct StreamSizer {
    size_t n = 0;
    uint64_t first = 0;
    uint64_t last = 0;
    uint64_t win = 0;        // bitmap window of `last`
    bool pair_open = false;  // current window already has a bitmap pair
    size_t bv_bytes = 0, bm_bytes = 0;  // body bytes

    void add(uint64_t key) {
      if (n++ == 0) {
        first = last = key;
        win = codec::bitmap::window(key);
        return;
      }
      const uint64_t d = key - last;
      bv_bytes += codec::ByteVarintCodec::size(d);
      const uint64_t wk = codec::bitmap::window(key);
      if (!pair_open || wk != win) {
        // New pair: biased window delta chained from the previous pair's
        // window (== window(last); the head shares this rule via delta 0).
        bm_bytes += codec::ByteVarintCodec::size(wk - win + 1) + 8;
        pair_open = true;
      }
      win = wk;
      last = key;
    }

    // Exact bytes write() would materialize this slice at within `cap`.
    size_t selected_bytes(size_t cap) const {
      if (n == 0) return 0;
      return kHeadBytes +
             (choose_format(n, kHeadBytes + bv_bytes, kHeadBytes + bm_bytes,
                            cap) == kBitmap
                  ? bm_bytes
                  : bv_bytes);
    }
  };

  static void write_format(uint8_t* leaf, size_t cap, const uint64_t* keys,
                           size_t n, uint8_t fmt) {
    if (n == 0) {
      std::memset(leaf, 0, cap);
      return;
    }
    if (fmt == kBitmap) {
      set_head(leaf, keys[0]);
      leaf[8] = kBitmap;
      const size_t blen = codec::bitmap::encode_body(body(leaf), keys, n);
      assert(kHeadBytes + blen <= cap);
      std::memset(leaf + kHeadBytes + blen, 0, cap - kHeadBytes - blen);
      return;
    }
    BV::write(leaf, cap, keys, n);  // leaves byte 8 untouched
    leaf[8] = kByteVarint;
  }

  static void write(uint8_t* leaf, size_t cap, const uint64_t* keys,
                    size_t n) {
    write_format(leaf, cap, keys, n, select_format(keys, n, cap));
  }

  // ---- batch merge / remove -------------------------------------------------

  struct MergeBuf {
    BV::MergeBuf bv;
    std::vector<uint64_t> cur, next;
  };

  // Byte-varint leaves splice their suffix in place (the format is sticky
  // under merge); a bitmap leaf refuses, sending the engine down its
  // materializing path, whose write() re-selects the format for the merged
  // run.
  static bool merge_tail(uint8_t* leaf, size_t cap, const uint64_t* keys,
                         size_t k, size_t max_bytes, MergeBuf& buf,
                         size_t* need_out, uint64_t* added_out) {
    if (leaf[8] == kBitmap) return false;
    return BV::merge_tail(leaf, cap, keys, k, max_bytes, buf.bv, need_out,
                          added_out);
  }

  // remove_tail may NOT refuse on content (the engine treats refusal as
  // "nothing to remove"), so the bitmap case materializes, subtracts, and
  // rewrites IN BITMAP FORMAT — a subset never encodes larger in the same
  // format, while the canonical format could overflow the leaf.
  static bool remove_tail(uint8_t* leaf, size_t cap, const uint64_t* keys,
                          size_t k, MergeBuf& buf, size_t* need_out,
                          uint64_t* removed_out) {
    if (leaf[8] != kBitmap) {
      return BV::remove_tail(leaf, cap, keys, k, buf.bv, need_out,
                             removed_out);
    }
    if (head(leaf) == 0) return false;
    auto& cur = buf.cur;
    auto& next = buf.next;
    cur.clear();
    next.clear();
    decode_append(leaf, cap, cur);
    size_t j = 0;
    uint64_t removed = 0;
    for (uint64_t v : cur) {
      while (j < k && keys[j] < v) ++j;
      if (j < k && keys[j] == v) {
        ++removed;
      } else {
        next.push_back(v);
      }
    }
    if (removed == 0) {
      *removed_out = 0;
      return true;
    }
    if (next.empty()) {
      std::memset(leaf, 0, cap);
      *need_out = 0;
      *removed_out = removed;
      return true;
    }
    write_format(leaf, cap, next.data(), next.size(), kBitmap);
    *need_out = used_bytes(leaf, cap);
    *removed_out = removed;
    return true;
  }

  // ---- cursors --------------------------------------------------------------
  // pos/value mirror the varint cursors; `win` is bitmap-only state (the
  // window chain base of the pair at pos). Delegation copies pos/value
  // through the underlying policy's cursor struct.

  struct Cursor {
    size_t pos = 0;
    uint64_t value = 0;
    uint64_t win = 0;
  };

  static bool cursor_begin(const uint8_t* leaf, size_t /*cap*/, Cursor& cur) {
    uint64_t h = head(leaf);
    if (h == 0) return false;
    cur.value = h;
    cur.pos = kHeadBytes;
    cur.win = codec::bitmap::window(h);
    return true;
  }

  static bool cursor_next(const uint8_t* leaf, size_t cap, Cursor& cur) {
    if (leaf[8] == kBitmap) return cursor_next_bitmap(leaf, cap, cur);
    BV::Cursor c{cur.pos, cur.value};
    bool ok = BV::cursor_next(leaf, cap, c);
    cur.pos = c.pos;
    cur.value = c.value;
    return ok;
  }

  struct BlockCursor {
    size_t pos = 0;
    uint64_t value = 0;
    bool started = false;
    uint64_t win = 0;
  };

  static size_t block_next(const uint8_t* leaf, size_t cap, BlockCursor& bc,
                           uint64_t* out, size_t max) {
    if (leaf[8] == kBitmap) return block_next_bitmap(leaf, cap, bc, out, max);
    BV::BlockCursor c{bc.pos, bc.value, bc.started};
    size_t n = BV::block_next(leaf, cap, c, out, max);
    bc.pos = c.pos;
    bc.value = c.value;
    bc.started = c.started;
    return n;
  }

 private:
  static bool cursor_next_bitmap(const uint8_t* leaf, size_t cap,
                                 Cursor& cur) {
    namespace bm = codec::bitmap;
    const uint8_t* b = body(leaf);
    const size_t bcap = cap - kHeadBytes;
    size_t pos = cur.pos - kHeadBytes;
    while (pos < bcap && b[pos] != 0) {
      bm::Pair p = bm::load_pair(b + pos);
      const uint64_t w = cur.win + p.wdelta;
      uint64_t word = p.word;
      if (w == bm::window(cur.value)) word &= bm::above_mask(cur.value);
      if (word != 0) {
        cur.value = (w << 6) | static_cast<unsigned>(__builtin_ctzll(word));
        return true;
      }
      pos += p.len;
      cur.pos = kHeadBytes + pos;
      cur.win = w;
    }
    return false;
  }

  static size_t block_next_bitmap(const uint8_t* leaf, size_t cap,
                                  BlockCursor& bc, uint64_t* out, size_t max) {
    namespace bm = codec::bitmap;
    size_t n = 0;
    if (!bc.started) {
      uint64_t h = head(leaf);
      if (h == 0) return 0;
      bc.started = true;
      bc.value = h;
      bc.pos = kHeadBytes;
      bc.win = bm::window(h);
      out[n++] = h;
    }
    const uint8_t* b = body(leaf);
    const size_t bcap = cap - kHeadBytes;
    size_t pos = bc.pos - kHeadBytes;
    while (n < max && pos < bcap && b[pos] != 0) {
      bm::Pair p = bm::load_pair(b + pos);
      const uint64_t w = bc.win + p.wdelta;
      uint64_t word = p.word;
      if (w == bm::window(bc.value)) word &= bm::above_mask(bc.value);
      if (word == ~uint64_t{0}) {
        // Full window: 64 consecutive keys, no per-bit scan. A resumed
        // (masked) word always has bit 0 cleared, so this branch only fires
        // on windows not yet touched — the dominant case in dense runs.
        const uint64_t base = w << 6;
        const size_t take = max - n < 64 ? max - n : 64;
        for (size_t i = 0; i < take; ++i) out[n + i] = base + i;
        n += take;
        bc.value = base + take - 1;
        if (take < 64) break;  // out is full mid-pair; value resumes the mask
      } else {
        while (word != 0 && n < max) {
          bc.value = (w << 6) | static_cast<unsigned>(__builtin_ctzll(word));
          out[n++] = bc.value;
          word &= word - 1;
        }
        if (word != 0) break;  // out is full mid-pair; value resumes the mask
      }
      pos += p.len;
      bc.pos = kHeadBytes + pos;
      bc.win = w;
    }
    return n;
  }

 public:
  // ---- direct-spread primitives ---------------------------------------------
  // Content coordinates follow CompressedLeaf: [0, kHeadBytes) is the head
  // (+tag), codes/pairs follow. In the engine these only ever run over
  // uniformly byte-varint content (pma_impl.hpp refuses the direct spread
  // otherwise, because its byte budgets are canonical); the bitmap and
  // cross-format paths below keep the primitives total for leaf-level use
  // (tests, and any future format-aware spread).

  using SpreadPoint = BV::SpreadPoint;

  // Bitmap split points land at pair starts with next == off: the whole
  // pair copies into the destination, whose writer masks out the bits at or
  // below the promoted head (the pair's first bit).
  class BitmapSeeker {
   public:
    BitmapSeeker(const uint8_t* leaf, size_t cap)
        : head_(head(leaf)), last_(head(leaf)), r_(pairs(leaf, cap)) {}

    template <typename Emit>
    uint64_t split_targets(uint64_t base, uint64_t budget, uint64_t j,
                           uint64_t limit, Emit&& emit) {
      namespace bm = codec::bitmap;
      for (; j * budget < limit; ++j) {
        const size_t target = static_cast<size_t>(j * budget - base);
        if (target == 0) {
          emit(j, SpreadPoint{0, kHeadBytes, head_}, false);
          continue;
        }
        while (have_ || (have_ = r_.next())) {
          if (kHeadBytes + r_.pair_off() >= target) break;
          last_ = (r_.win() << 6) |
                  static_cast<unsigned>(63 - __builtin_clzll(r_.word()));
          have_ = false;
        }
        if (!have_) {
          emit(j, SpreadPoint{}, true);
          continue;
        }
        const size_t off = kHeadBytes + r_.pair_off();
        const uint64_t key =
            (r_.win() << 6) |
            static_cast<unsigned>(__builtin_ctzll(r_.word()));
        emit(j, SpreadPoint{off, off, key}, false);
      }
      while (have_ || r_.next()) {
        last_ = (r_.win() << 6) |
                static_cast<unsigned>(63 - __builtin_clzll(r_.word()));
        have_ = false;
      }
      return last_;
    }

   private:
    uint64_t head_;
    uint64_t last_;
    codec::bitmap::PairReader r_;
    bool have_ = false;
  };

  class SpreadSeeker {
   public:
    SpreadSeeker(const uint8_t* leaf, size_t cap) : v_(make(leaf, cap)) {}

    template <typename Emit>
    uint64_t split_targets(uint64_t base, uint64_t budget, uint64_t j,
                           uint64_t limit, Emit&& emit) {
      return std::visit(
          [&](auto& s) {
            return s.split_targets(
                base, budget, j, limit, [&](uint64_t jj, auto p, bool sliver) {
                  emit(jj, SpreadPoint{p.off, p.next, p.key}, sliver);
                });
          },
          v_);
    }

   private:
    using Var = std::variant<BV::SpreadSeeker, BitmapSeeker>;
    static Var make(const uint8_t* leaf, size_t cap) {
      if (leaf[8] == kBitmap) {
        return Var(std::in_place_type<BitmapSeeker>, leaf, cap);
      }
      return Var(std::in_place_type<BV::SpreadSeeker>, leaf, cap);
    }
    Var v_;
  };

  // The destination adopts the format of the first content it receives
  // (copy/join); keys appended before that decide byte-varint. As in
  // CompressedLeaf, the ENGINE maintains `last` between calls from its
  // per-source stats; leaf-level users must do the same.
  struct SpreadWriter {
    uint8_t* dst = nullptr;
    size_t cap = 0;
    size_t pos = 0;
    uint64_t last = 0;
    uint8_t fmt = kByteVarint;
    bool decided = false;
    size_t last_pair = 0;  // bitmap: offset of the last written pair (0=none)
  };

  static void spread_begin(SpreadWriter& w, uint8_t* dst, size_t cap,
                           uint64_t first_key) {
    w.dst = dst;
    w.cap = cap;
    set_head(dst, first_key);
    dst[8] = kByteVarint;
    w.pos = kHeadBytes;
    w.last = first_key;
    w.fmt = kByteVarint;
    w.decided = false;
    w.last_pair = 0;
  }

  // Copies source content [from, to); destination start only (the engine
  // calls this once per destination, right after spread_begin, with the key
  // preceding `from` promoted into the head == w.last).
  static void spread_copy_tail(SpreadWriter& w, const uint8_t* src,
                               size_t from, size_t to) {
    assert(from >= kHeadBytes && to >= from);
    if (to == from) return;
    const uint8_t sf = src[8];
    adopt(w, sf);
    if (w.fmt == sf && sf != kBitmap) {
      assert(w.pos + (to - from) <= w.cap);
      std::memcpy(w.dst + w.pos, src + from, to - from);
      w.pos += to - from;
      return;
    }
    if (w.fmt == kBitmap && sf == kBitmap) {
      copy_tail_bitmap(w, src, from, to);
      return;
    }
    transcode_range(w, src, from, to);
  }

  // Splices the start of another source leaf: its head re-encodes into the
  // destination, then its content [kHeadBytes, to) follows.
  static void spread_join(SpreadWriter& w, const uint8_t* src,
                          uint64_t src_head, size_t to) {
    const uint8_t sf = src[8];
    adopt(w, sf);
    if (w.fmt == sf && sf != kBitmap) {
      assert(w.pos + codec::ByteVarintCodec::kMaxBytes <= w.cap);
      w.pos += codec::ByteVarintCodec::encode(src_head - w.last, w.dst + w.pos);
      w.last = src_head;
      assert(w.pos + (to - kHeadBytes) <= w.cap);
      std::memcpy(w.dst + w.pos, src + kHeadBytes, to - kHeadBytes);
      w.pos += to - kHeadBytes;
      return;
    }
    if (w.fmt == kBitmap && sf == kBitmap) {
      join_bitmap(w, src, src_head, to);
      return;
    }
    append_one(w, src_head);
    if (to > kHeadBytes) transcode_range(w, src, kHeadBytes, to);
  }

  static void spread_append_keys(SpreadWriter& w, const uint64_t* keys,
                                 size_t n) {
    for (size_t i = 0; i < n; ++i) append_one(w, keys[i]);
  }

  static size_t spread_finish(SpreadWriter& w) {
    assert(w.pos <= w.cap);
    std::memset(w.dst + w.pos, 0, w.cap - w.pos);
    return w.pos;
  }

 private:
  static void adopt(SpreadWriter& w, uint8_t f) {
    if (!w.decided) {
      w.decided = true;
      w.fmt = f;
      w.dst[8] = f;
    }
  }

  // Appends one key (> w.last) in the destination's format.
  static void append_one(SpreadWriter& w, uint64_t key) {
    namespace bm = codec::bitmap;
    if (!w.decided) adopt(w, kByteVarint);
    if (w.fmt == kBitmap) {
      const uint64_t wk = bm::window(key);
      if (w.last_pair != 0 && wk == bm::window(w.last)) {
        const size_t woff = w.last_pair + bm::Var::skip(w.dst + w.last_pair);
        uint64_t word;
        std::memcpy(&word, w.dst + woff, 8);
        word |= bm::bit_mask(key);
        std::memcpy(w.dst + woff, &word, 8);
      } else {
        assert(w.pos + bm::kMaxPairBytes <= w.cap);
        w.last_pair = w.pos;
        w.pos += bm::store_pair(w.dst + w.pos, wk - bm::window(w.last),
                                bm::bit_mask(key));
      }
    } else {
      assert(w.pos + codec::ByteVarintCodec::kMaxBytes <= w.cap);
      w.pos += codec::ByteVarintCodec::encode(key - w.last, w.dst + w.pos);
    }
    w.last = key;
  }

  // Verbatim-copies body pairs [from, to) of a bitmap source into a bitmap
  // destination at destination start: the first pair re-encodes (rebased to
  // the head's window chain, bits <= w.last masked out), the rest copies
  // byte-for-byte (their deltas chain pair-to-pair, anchor unchanged).
  static void copy_tail_bitmap(SpreadWriter& w, const uint8_t* src,
                               size_t from, size_t to) {
    namespace bm = codec::bitmap;
    const uint8_t* sb = body(src);
    const size_t boff = from - kHeadBytes;
    const size_t bend = to - kHeadBytes;
    if (boff >= bend || sb[boff] == 0) return;
    bm::Pair p = bm::load_pair(sb + boff);
    // from == kHeadBytes: the pair chains from the source head's window ==
    // window(w.last). Mid-leaf split: w.last is the pair's promoted first
    // bit, so its absolute window is window(w.last) either way.
    const uint64_t w1 = (from == kHeadBytes)
                            ? bm::window(w.last) + p.wdelta
                            : bm::window(w.last);
    uint64_t word = p.word;
    if (w1 == bm::window(w.last)) word &= bm::above_mask(w.last);
    if (word != 0) {
      assert(w.pos + bm::kMaxPairBytes <= w.cap);
      w.last_pair = w.pos;
      w.pos += bm::store_pair(w.dst + w.pos, w1 - bm::window(w.last), word);
    }
    // word == 0 only when w1 == window(w.last); the dropped pair's window
    // equals the chain anchor, so the rest still chains correctly.
    const size_t rest_off = boff + p.len;
    if (rest_off < bend) {
      const size_t rest = bend - rest_off;
      assert(w.pos + rest <= w.cap);
      std::memcpy(w.dst + w.pos, sb + rest_off, rest);
      for (size_t q = 0; q < rest;
           q += bm::Var::skip(sb + rest_off + q) + 8) {
        w.last_pair = w.pos + q;
      }
      w.pos += rest;
    }
  }

  static void join_bitmap(SpreadWriter& w, const uint8_t* src,
                          uint64_t src_head, size_t to) {
    namespace bm = codec::bitmap;
    const uint8_t* sb = body(src);
    const size_t bend = to - kHeadBytes;
    const uint64_t wh = bm::window(src_head);
    if (bend == 0 || sb[0] == 0) {
      append_one(w, src_head);
      return;
    }
    bm::Pair f = bm::load_pair(sb);
    if (f.wdelta == 0) {
      // The source's first pair shares the head's window: merge the head's
      // bit into it so no window is stored twice.
      assert(w.pos + bm::kMaxPairBytes <= w.cap);
      w.last_pair = w.pos;
      w.pos += bm::store_pair(w.dst + w.pos, wh - bm::window(w.last),
                              f.word | bm::bit_mask(src_head));
      w.last = src_head;
      if (f.len < bend) {
        const size_t rest = bend - f.len;
        assert(w.pos + rest <= w.cap);
        std::memcpy(w.dst + w.pos, sb + f.len, rest);
        for (size_t q = 0; q < rest; q += bm::Var::skip(sb + f.len + q) + 8) {
          w.last_pair = w.pos + q;
        }
        w.pos += rest;
      }
      return;
    }
    // Distinct windows: append the head's own pair (or merge it into the
    // destination's current last pair), then copy every source pair
    // verbatim — their chain anchors at window(src_head) == window(w.last).
    append_one(w, src_head);
    assert(w.pos + bend <= w.cap);
    std::memcpy(w.dst + w.pos, sb, bend);
    for (size_t q = 0; q < bend; q += bm::Var::skip(sb + q) + 8) {
      w.last_pair = w.pos + q;
    }
    w.pos += bend;
  }

  // Cross-format stitch: decode the source range (anchored at w.last) and
  // re-append each key in the destination's format.
  static void transcode_range(SpreadWriter& w, const uint8_t* src,
                              size_t from, size_t to) {
    namespace bm = codec::bitmap;
    if (src[8] != kBitmap) {
      codec::DeltaStream<codec::ByteVarintCodec> s(src + from, to - from,
                                                   w.last);
      while (s.next()) append_one(w, s.value());
      return;
    }
    const uint8_t* sb = body(src);
    const size_t boff = from - kHeadBytes;
    const size_t bend = to - kHeadBytes;
    uint64_t win = bm::window(w.last);
    bool first = true;
    size_t q = boff;
    while (q < bend && sb[q] != 0) {
      bm::Pair p = bm::load_pair(sb + q);
      // Same anchoring rule as copy_tail_bitmap's first pair.
      const uint64_t pw =
          (first && from != kHeadBytes) ? bm::window(w.last) : win + p.wdelta;
      uint64_t word = p.word;
      if (pw == bm::window(w.last)) word &= bm::above_mask(w.last);
      while (word != 0) {
        append_one(w,
                   (pw << 6) | static_cast<unsigned>(__builtin_ctzll(word)));
        word &= word - 1;
      }
      win = pw;
      q += p.len;
      first = false;
    }
  }
};

}  // namespace cpma::pma
