// Compressed leaf policy (the C in CPMA), parameterized by codec.
//
// Layout per Section 5 of the paper: the first sizeof(key) bytes hold the
// HEAD, uncompressed (0 = empty leaf); the body holds delta-encoded codes
// for the remaining keys. Because this is a set, every delta is >= 1, and
// the codec contract (codec/delta_stream.hpp) guarantees such encodings
// contain no 0x00 byte — the zero-filled tail therefore doubles as the
// end-of-stream marker and the leaf needs no explicit length (the structure
// stays pointer- and metadata-free).
//
// Every scan and query routes through the ONE streaming decode kernel,
// codec::DeltaStream: this file contains no decode loop of its own, only
// the head bookkeeping and the byte-splicing of the two mutation paths.
// All mutations are single passes over the leaf, which is what preserves
// the PMA's asymptotic bounds (leaves are O(log n) bytes).
//
// To drop in another encoding, implement the codec concept documented in
// codec/delta_stream.hpp and instantiate CompressedLeaf<YourCodec>; the
// engine (pma/pma.hpp) is already generic over the leaf policy.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "codec/delta_stream.hpp"
#include "util/uninitialized.hpp"

namespace cpma::pma {

template <typename Codec = codec::ByteVarintCodec>
struct CompressedLeaf {
  using key_type = uint64_t;
  using codec_type = Codec;
  using Stream = codec::DeltaStream<Codec>;
  static constexpr const char* name = "cpma";
  static constexpr bool compressed = true;
  // Content-coordinate cost of a leaf's first key: the uncompressed head.
  static constexpr size_t kHeadBytes = 8;
  static constexpr size_t kBlockKeys = Stream::kBlockKeys;
  // Worst-case byte growth of one insert(): a delta split into two maximal
  // codes (2*kMaxBytes - 1) dominates head displacement (8 + kMaxBytes).
  static constexpr size_t kMaxInsertGrowth = 2 * Codec::kMaxBytes - 1;

  static uint64_t head(const uint8_t* leaf) {
    uint64_t h;
    std::memcpy(&h, leaf, 8);
    return h;
  }
  static void set_head(uint8_t* leaf, uint64_t h) { std::memcpy(leaf, &h, 8); }

  // Decode kernel positioned at the first delta (caller checks head != 0).
  static Stream stream(const uint8_t* leaf, size_t cap) {
    return Stream(leaf + kHeadBytes, cap - kHeadBytes, head(leaf));
  }

  // Encoded bytes one delta contributes (spread's cost model).
  static constexpr size_t delta_bytes(key_type prev, key_type key) {
    return Codec::size(key - prev);
  }

  // One past the last used byte (head included); 0 for an empty leaf. The
  // only end-of-stream rescan left in the leaf: queries stop at the
  // terminator inline, so only mutations (which memmove the tail) call it.
  // Codes contain no 0x00 byte, so a memchr finds the terminator.
  static size_t used_bytes(const uint8_t* leaf, size_t cap) {
    if (head(leaf) == 0) return 0;
    const void* z = std::memchr(leaf + kHeadBytes, 0, cap - kHeadBytes);
    return z == nullptr
               ? cap
               : static_cast<size_t>(static_cast<const uint8_t*>(z) - leaf);
  }

  static uint64_t element_count(const uint8_t* leaf, size_t cap) {
    if (head(leaf) == 0) return 0;
    return 1 + stream(leaf, cap).count_remaining();
  }

  static bool contains(const uint8_t* leaf, size_t cap, uint64_t key) {
    uint64_t h = head(leaf);
    if (h == 0 || key < h) return false;
    if (key == h) return true;
    Stream s = stream(leaf, cap);
    while (s.next()) {
      if (s.value() >= key) return s.value() == key;
    }
    return false;
  }

  static std::optional<uint64_t> lower_bound(const uint8_t* leaf, size_t cap,
                                             uint64_t key) {
    uint64_t h = head(leaf);
    if (h == 0) return std::nullopt;
    if (h >= key) return h;
    Stream s = stream(leaf, cap);
    while (s.next()) {
      if (s.value() >= key) return s.value();
    }
    return std::nullopt;
  }

  // Inserts `key` with a single pass; returns false if present.
  // Precondition (engine slack invariant): up to 19 extra bytes fit.
  static bool insert(uint8_t* leaf, size_t cap, uint64_t key) {
    uint64_t h = head(leaf);
    if (h == 0) {
      set_head(leaf, key);
      return true;
    }
    if (key == h) return false;
    if (key < h) {
      // New minimum: key becomes the head, the old head becomes the first
      // delta.
      uint8_t tmp[Codec::kMaxBytes];
      size_t len = Codec::encode(h - key, tmp);
      size_t end = used_bytes(leaf, cap);
      assert(end + len <= cap);
      std::memmove(leaf + kHeadBytes + len, leaf + kHeadBytes,
                   end - kHeadBytes);
      std::memcpy(leaf + kHeadBytes, tmp, len);
      set_head(leaf, key);
      return true;
    }
    Stream s = stream(leaf, cap);
    uint64_t prev = h;
    while (true) {
      size_t dpos = s.pos();
      if (!s.next()) {
        // Largest key in the leaf: append.
        uint8_t tmp[Codec::kMaxBytes];
        size_t len = Codec::encode(key - prev, tmp);
        assert(kHeadBytes + dpos + len <= cap);
        std::memcpy(leaf + kHeadBytes + dpos, tmp, len);
        return true;
      }
      uint64_t cur = s.value();
      if (cur == key) return false;
      if (cur > key) {
        // Split delta(cur - prev) into delta(key - prev) + delta(cur - key).
        size_t old_len = s.pos() - dpos;
        size_t pos = kHeadBytes + dpos;
        uint8_t tmp[2 * Codec::kMaxBytes];
        size_t l1 = Codec::encode(key - prev, tmp);
        size_t l2 = Codec::encode(cur - key, tmp + l1);
        size_t new_len = l1 + l2;
        size_t end = used_bytes(leaf, cap);
        assert(new_len >= old_len);
        assert(end + (new_len - old_len) <= cap);
        std::memmove(leaf + pos + new_len, leaf + pos + old_len,
                     end - (pos + old_len));
        std::memcpy(leaf + pos, tmp, new_len);
        return true;
      }
      prev = cur;
    }
  }

  static bool remove(uint8_t* leaf, size_t cap, uint64_t key) {
    uint64_t h = head(leaf);
    if (h == 0 || key < h) return false;
    if (key == h) {
      Stream s = stream(leaf, cap);
      if (!s.next()) {  // only element
        std::memset(leaf, 0, kHeadBytes);
        return true;
      }
      size_t len = s.pos();  // bytes of the first delta
      set_head(leaf, s.value());
      size_t end = used_bytes(leaf, cap);
      std::memmove(leaf + kHeadBytes, leaf + kHeadBytes + len,
                   end - kHeadBytes - len);
      std::memset(leaf + end - len, 0, len);
      return true;
    }
    Stream s = stream(leaf, cap);
    uint64_t prev = h;
    while (true) {
      size_t dpos = s.pos();
      if (!s.next()) return false;
      uint64_t cur = s.value();
      if (cur > key) return false;
      if (cur == key) {
        size_t l1 = s.pos() - dpos;
        size_t pos = kHeadBytes + dpos;
        size_t npos = s.pos();
        if (!s.next()) {  // last element: drop its delta
          std::memset(leaf + pos, 0, l1);
          return true;
        }
        // Merge delta(key - prev) + delta(next - key) into delta(next - prev).
        size_t l2 = s.pos() - npos;
        uint8_t tmp[Codec::kMaxBytes];
        size_t lm = Codec::encode(s.value() - prev, tmp);
        assert(lm <= l1 + l2);
        size_t end = used_bytes(leaf, cap);
        std::memcpy(leaf + pos, tmp, lm);
        std::memmove(leaf + pos + lm, leaf + pos + l1 + l2,
                     end - (pos + l1 + l2));
        std::memset(leaf + end - (l1 + l2 - lm), 0, l1 + l2 - lm);
        return true;
      }
      prev = cur;
    }
  }

  // Reusable scratch for merge_tail (the engine keeps one per worker).
  struct MergeBuf {
    util::uvector<uint8_t> bytes;
  };

  // Merges the sorted batch slice keys[0..k) into the leaf by rewriting only
  // the byte suffix from the first splice point: the prefix below keys[0] is
  // left untouched, the tail is re-encoded into `buf` in one streaming merge
  // pass, and spliced back iff the result fits in max_bytes. Returns false
  // (leaf unmodified) when the caller must take the materializing path
  // instead: empty leaf, a batch key below the head, or overflow. On success
  // *need_out is the merged byte count and *added_out the newly added keys.
  static bool merge_tail(uint8_t* leaf, size_t cap, const uint64_t* keys,
                         size_t k, size_t max_bytes, MergeBuf& buf,
                         size_t* need_out, uint64_t* added_out) {
    uint64_t h = head(leaf);
    if (h == 0 || keys[0] < h) return false;
    // Scan to the splice point: prev = last existing key < keys[0], splice =
    // body offset of the first delta to be rewritten.
    Stream s = stream(leaf, cap);
    uint64_t prev = h;
    size_t splice;
    uint64_t e = 0;
    bool have;
    while (true) {
      size_t dpos = s.pos();
      if (!s.next()) {
        splice = dpos;
        have = false;
        break;
      }
      if (s.value() >= keys[0]) {
        splice = dpos;
        e = s.value();
        have = true;
        break;
      }
      prev = s.value();
    }
    // Re-encode the merged tail into scratch. Upper bound: every remaining
    // leaf byte plus a maximal code per batch key.
    auto& out = buf.bytes;
    out.resize((cap - kHeadBytes - splice) + k * Codec::kMaxBytes);
    uint8_t* op = out.data();
    size_t olen = 0;
    uint64_t last = prev;
    auto emit = [&](uint64_t v) {
      olen += Codec::encode(v - last, op + olen);
      last = v;
    };
    uint64_t ebuf[kBlockKeys];
    size_t en = 0, ei = 0;
    auto take_existing = [&]() -> bool {
      if (ei < en) {
        e = ebuf[ei++];
        return true;
      }
      en = s.next_block(ebuf, kBlockKeys);
      ei = 0;
      if (en == 0) return false;
      e = ebuf[ei++];
      return true;
    };
    uint64_t added = 0;
    size_t i = 0;
    while (have && i < k) {
      uint64_t b = keys[i];
      if (e <= b) {
        emit(e);
        if (e == b) ++i;
        have = take_existing();
      } else {
        if (b != last) {
          emit(b);
          ++added;
        }
        ++i;
      }
    }
    while (have) {
      emit(e);
      have = take_existing();
    }
    for (; i < k; ++i) {
      if (keys[i] != last) {
        emit(keys[i]);
        ++added;
      }
    }
    const size_t need = kHeadBytes + splice + olen;
    if (need > max_bytes) return false;
    std::memcpy(leaf + kHeadBytes + splice, op, olen);
    // The stream is drained, so its position is the old terminator offset.
    const size_t old_used = kHeadBytes + s.pos();
    if (old_used > need) std::memset(leaf + need, 0, old_used - need);
    *need_out = need;
    *added_out = added;
    return true;
  }

  // Subtracts the sorted batch slice keys[0..k) from the leaf by rewriting
  // only the byte suffix from the first removable key (mirror of merge_tail):
  // the prefix below the first matching key is left untouched and the tail is
  // re-encoded into `buf` in one streaming pass. A re-encoded subset never
  // grows (merged deltas encode no larger than the deltas they replace), so
  // there is no overflow refusal — the only refusal (false, leaf unmodified)
  // is an empty leaf. On success *removed_out is the number of keys dropped;
  // when it is 0 the leaf was not modified and *need_out is unspecified.
  static bool remove_tail(uint8_t* leaf, size_t cap, const uint64_t* keys,
                          size_t k, MergeBuf& buf, size_t* need_out,
                          uint64_t* removed_out) {
    uint64_t h = head(leaf);
    if (h == 0) return false;
    // Batch keys below the head are absent by definition.
    size_t j = static_cast<size_t>(
        std::lower_bound(keys, keys + k, h) - keys);
    if (j == k) {
      *removed_out = 0;
      return true;
    }
    // Scan to the splice point: the first existing key >= keys[j]. If the
    // head itself matches, the splice starts at the head and the first
    // surviving key is promoted into it.
    Stream s = stream(leaf, cap);
    uint64_t prev = h;
    size_t splice = 0;
    bool at_head = (keys[j] == h);
    bool have = at_head;
    uint64_t e = h;
    if (!at_head) {
      while (true) {
        size_t dpos = s.pos();
        if (!s.next()) {
          have = false;
          break;
        }
        if (s.value() >= keys[j]) {
          splice = dpos;
          e = s.value();
          have = true;
          break;
        }
        prev = s.value();
      }
      if (!have) {  // every existing key < keys[j]: nothing to remove
        *removed_out = 0;
        return true;
      }
    }
    auto& out = buf.bytes;
    out.resize(cap);  // survivors re-encode no larger than the leaf
    uint8_t* op = out.data();
    size_t olen = 0;
    uint64_t last = prev;
    uint64_t new_head = 0;  // first survivor when splicing at the head
    bool head_open = at_head;
    auto emit = [&](uint64_t v) {
      if (head_open) {
        new_head = v;
        head_open = false;
      } else {
        olen += Codec::encode(v - last, op + olen);
      }
      last = v;
    };
    uint64_t ebuf[kBlockKeys];
    size_t en = 0, ei = 0;
    auto take_existing = [&]() -> bool {
      if (ei < en) {
        e = ebuf[ei++];
        return true;
      }
      en = s.next_block(ebuf, kBlockKeys);
      ei = 0;
      if (en == 0) return false;
      e = ebuf[ei++];
      return true;
    };
    uint64_t removed = 0;
    while (have) {
      while (j < k && keys[j] < e) ++j;
      if (j < k && keys[j] == e) {
        ++removed;
      } else {
        emit(e);
      }
      have = take_existing();
    }
    if (removed == 0) {  // scratch pass found nothing to drop
      *removed_out = 0;
      return true;
    }
    // The stream is drained, so its position is the old terminator offset.
    const size_t old_used = kHeadBytes + s.pos();
    size_t need;
    if (at_head) {
      if (head_open) {
        need = 0;  // every key removed
      } else {
        set_head(leaf, new_head);
        std::memcpy(leaf + kHeadBytes, op, olen);
        need = kHeadBytes + olen;
      }
    } else {
      std::memcpy(leaf + kHeadBytes + splice, op, olen);
      need = kHeadBytes + splice + olen;
    }
    if (old_used > need) std::memset(leaf + need, 0, old_used - need);
    *need_out = need;
    *removed_out = removed;
    return true;
  }

  // ---- direct-spread resize primitives ------------------------------------
  // A leaf's CONTENT is addressed in bytes: offsets [0, kHeadBytes) are the
  // head, and each later key's code starts where the previous one ended. A
  // resize re-spreads content by copying code ranges verbatim — a mid-leaf
  // run's delta chain stays valid wherever it lands, because the key
  // preceding the run becomes the destination leaf's head — re-encoding only
  // at source-leaf joins and at the keys promoted into destination heads.

  // Split point for the direct spread: the first key whose content offset is
  // >= some target. `off` is that key's code start (0 for the head), `next`
  // is one past its code (where a copy continuing after the key begins),
  // and `key` its decoded value.
  struct SpreadPoint {
    size_t off = 0;
    size_t next = 0;
    uint64_t key = 0;
  };

  // One-pass split emitter: streams the leaf forward once, visiting every
  // destination boundary target that lands inside it (ascending), then
  // drains to the last key — the resize's only decoding pass. Boundary
  // targets are absolute content-coordinate bytes; `base` is the leaf's
  // coordinate start and `limit` its end. emit(j, point, sliver) fires once
  // per boundary j; sliver means the target fell past the last key's code
  // start (the engine resolves it to the next nonempty leaf's head).
  class SpreadSeeker {
   public:
    SpreadSeeker(const uint8_t* leaf, size_t cap)
        : head_(head(leaf)), s_(stream(leaf, cap)) {}

    template <typename Emit>
    uint64_t split_targets(uint64_t base, uint64_t budget, uint64_t j,
                           uint64_t limit, Emit&& emit) {
      for (; j * budget < limit; ++j) {
        size_t target = static_cast<size_t>(j * budget - base);
        if (target == 0) {
          emit(j, SpreadPoint{0, kHeadBytes, head_}, false);
          continue;
        }
        s_.seek(target <= kHeadBytes ? 0 : target - kHeadBytes);
        size_t off = kHeadBytes + s_.pos();
        if (!s_.next()) {
          emit(j, SpreadPoint{}, true);
          continue;
        }
        emit(j, SpreadPoint{off, kHeadBytes + s_.pos(), s_.value()}, false);
      }
      s_.drain();
      return s_.value();  // the leaf's last key
    }

   private:
    uint64_t head_;
    Stream s_;
  };

  // Streaming writer that assembles one destination leaf out of source
  // content ranges. The engine maintains `last` (the last key written) from
  // its per-source-leaf stats between calls; append_keys tracks it itself.
  struct SpreadWriter {
    uint8_t* dst = nullptr;
    size_t cap = 0;
    size_t pos = 0;
    uint64_t last = 0;
  };

  static void spread_begin(SpreadWriter& w, uint8_t* dst, size_t cap,
                           uint64_t first_key) {
    w.dst = dst;
    w.cap = cap;
    set_head(dst, first_key);
    w.pos = kHeadBytes;
    w.last = first_key;
  }

  // Copies source content bytes [from, to) verbatim; the key preceding
  // offset `from` must already be in the destination (== w.last).
  static void spread_copy_tail(SpreadWriter& w, const uint8_t* src,
                               size_t from, size_t to) {
    assert(from >= kHeadBytes && to >= from);
    assert(w.pos + (to - from) <= w.cap);
    std::memcpy(w.dst + w.pos, src + from, to - from);
    w.pos += to - from;
  }

  // Splices the start of another source leaf: its head re-encodes as a delta
  // from w.last, then its content bytes [kHeadBytes, to) copy verbatim.
  static void spread_join(SpreadWriter& w, const uint8_t* src,
                          uint64_t src_head, size_t to) {
    assert(w.pos + Codec::kMaxBytes <= w.cap);
    w.pos += Codec::encode(src_head - w.last, w.dst + w.pos);
    w.last = src_head;
    spread_copy_tail(w, src, kHeadBytes, to);
  }

  // Appends keys[0..n) (all > w.last) by encoding; used for content that
  // only exists as flat keys (a batch's overflowed leaves).
  static void spread_append_keys(SpreadWriter& w, const uint64_t* keys,
                                 size_t n) {
    for (size_t i = 0; i < n; ++i) {
      assert(w.pos + Codec::kMaxBytes <= w.cap);
      w.pos += Codec::encode(keys[i] - w.last, w.dst + w.pos);
      w.last = keys[i];
    }
  }

  // Zero-fills the tail; returns the destination's used bytes.
  static size_t spread_finish(SpreadWriter& w) {
    assert(w.pos <= w.cap);
    std::memset(w.dst + w.pos, 0, w.cap - w.pos);
    return w.pos;
  }

  static void decode_append(const uint8_t* leaf, size_t cap,
                            std::vector<uint64_t>& out) {
    uint64_t h = head(leaf);
    if (h == 0) return;
    out.push_back(h);
    Stream s = stream(leaf, cap);
    uint64_t buf[kBlockKeys];
    while (size_t k = s.next_block(buf, kBlockKeys)) {
      out.insert(out.end(), buf, buf + k);
    }
  }

  // Bulk decode into a caller-sized buffer (must hold element_count keys);
  // returns the number of keys written. The engine's pack/redistribute
  // paths use this to fill their prefix-summed slices without a per-key
  // callback.
  static size_t decode_to(const uint8_t* leaf, size_t cap, uint64_t* out) {
    uint64_t h = head(leaf);
    if (h == 0) return 0;
    out[0] = h;
    size_t n = 1;
    Stream s = stream(leaf, cap);
    // cap bounds the element count, so blocks can be maximal.
    while (size_t k = s.next_block(out + n, cap)) n += k;
    return n;
  }

  static size_t encoded_size(const uint64_t* keys, size_t n) {
    if (n == 0) return 0;
    size_t total = kHeadBytes;
    for (size_t i = 1; i < n; ++i) {
      total += Codec::size(keys[i] - keys[i - 1]);
    }
    return total;
  }

  static void write(uint8_t* leaf, size_t cap, const uint64_t* keys,
                    size_t n) {
    if (n == 0) {
      std::memset(leaf, 0, cap);
      return;
    }
    set_head(leaf, keys[0]);
    size_t pos = kHeadBytes;
    for (size_t i = 1; i < n; ++i) {
      assert(pos + Codec::kMaxBytes <= cap ||
             pos + Codec::size(keys[i] - keys[i - 1]) <= cap);
      pos += Codec::encode(keys[i] - keys[i - 1], leaf + pos);
    }
    assert(pos <= cap);
    std::memset(leaf + pos, 0, cap - pos);
  }

  static uint64_t sum_leaf(const uint8_t* leaf, size_t cap) {
    uint64_t h = head(leaf);
    if (h == 0) return 0;
    uint64_t sum = h;
    Stream s = stream(leaf, cap);
    uint64_t buf[kBlockKeys];
    while (size_t k = s.next_block(buf, kBlockKeys)) {
      for (size_t i = 0; i < k; ++i) sum += buf[i];
    }
    return sum;
  }

  static uint64_t last(const uint8_t* leaf, size_t cap) {
    uint64_t h = head(leaf);
    if (h == 0) return 0;
    Stream s = stream(leaf, cap);
    uint64_t buf[kBlockKeys];
    while (s.next_block(buf, kBlockKeys) != 0) {
    }
    return s.value();  // base (the head) if the body was empty
  }

  template <typename F>
  static bool map(const uint8_t* leaf, size_t cap, F&& f) {
    uint64_t h = head(leaf);
    if (h == 0) return true;
    if (!f(h)) return false;
    Stream s = stream(leaf, cap);
    uint64_t buf[kBlockKeys];
    while (size_t k = s.next_block(buf, kBlockKeys)) {
      for (size_t i = 0; i < k; ++i) {
        if (!f(buf[i])) return false;
      }
    }
    return true;
  }

  struct Cursor {
    size_t pos = 0;  // byte offset of the NEXT delta (absolute in the leaf)
    uint64_t value = 0;
  };

  static bool cursor_begin(const uint8_t* leaf, size_t /*cap*/, Cursor& cur) {
    uint64_t h = head(leaf);
    if (h == 0) return false;
    cur.value = h;
    cur.pos = kHeadBytes;
    return true;
  }

  static bool cursor_next(const uint8_t* leaf, size_t cap, Cursor& cur) {
    Stream s(leaf + kHeadBytes, cap - kHeadBytes, cur.value,
             cur.pos - kHeadBytes);
    if (!s.next()) return false;
    cur.pos = kHeadBytes + s.pos();
    cur.value = s.value();
    return true;
  }

  // Block-streaming decode for the engine's merge paths: emits the head on
  // the first call, then whole blocks from the kernel. Returns 0 at end.
  struct BlockCursor {
    size_t pos = 0;
    uint64_t value = 0;
    bool started = false;
  };

  static size_t block_next(const uint8_t* leaf, size_t cap, BlockCursor& bc,
                           uint64_t* out, size_t max) {
    size_t n = 0;
    if (!bc.started) {
      uint64_t h = head(leaf);
      if (h == 0) return 0;
      bc.started = true;
      bc.value = h;
      bc.pos = kHeadBytes;
      out[n++] = h;
    }
    Stream s(leaf + kHeadBytes, cap - kHeadBytes, bc.value,
             bc.pos - kHeadBytes);
    n += s.next_block(out + n, max - n);
    bc.pos = kHeadBytes + s.pos();
    bc.value = s.value();
    return n;
  }
};

}  // namespace cpma::pma
