// Compressed-bitmap leaf body (Concise/WAH-flavored) for dense key runs.
//
// A dense run costs ~1 byte per key as byte-varint deltas but ~1 bit per key
// as a bitmap. This header holds the body primitives the adaptive leaf
// (pma/leaf_adaptive.hpp) dispatches to when a leaf's format tag says
// "bitmap"; it knows nothing about the leaf header itself.
//
// Body layout: a sequence of PAIRS, terminated by a 0x00 byte at a pair
// boundary (the leaf's usual zero-filled tail), each pair
//
//   [byte-varint(window_delta + 1)] [8-byte literal word, little-endian]
//
// covering one occupied 64-key-aligned window: window(k) = k / 64. The
// window delta chains from the previous pair's window — the first pair's
// from window(head) — and the +1 keeps the varint >= 1, so a pair always
// starts with a nonzero byte and 0x00 at a pair boundary unambiguously
// terminates the body. Word bytes MAY be zero; they are never inspected as
// terminators (scans hop pair to pair).
//
// The body stores bits only for keys STRICTLY GREATER than the leaf head
// (the head is stored uncompressed in the leaf header, as for every other
// format), and never stores an empty word. The first pair may share the
// head's window (stored delta 1); later pairs strictly increase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "codec/delta_stream.hpp"

namespace cpma::codec::bitmap {

using Var = ByteVarintCodec;

constexpr uint64_t window(uint64_t key) { return key >> 6; }
constexpr unsigned bit_of(uint64_t key) {
  return static_cast<unsigned>(key & 63);
}
constexpr uint64_t bit_mask(uint64_t key) {
  return uint64_t{1} << bit_of(key);
}
// Bits for keys strictly greater than `key` within its own window.
constexpr uint64_t above_mask(uint64_t key) {
  return ~uint64_t{0} << bit_of(key) << 1;
}

// Upper bound on one pair's bytes (maximal window varint + word).
constexpr size_t kMaxPairBytes = Var::kMaxBytes + 8;

// One decoded pair: `len` total encoded bytes, `wdelta` the chained window
// delta (already de-biased), `word` the literal.
struct Pair {
  size_t len;
  uint64_t wdelta;
  uint64_t word;
};

inline Pair load_pair(const uint8_t* p) {
  Pair r;
  uint64_t biased;
  size_t vlen = Var::decode(p, &biased);
  r.wdelta = biased - 1;
  std::memcpy(&r.word, p + vlen, 8);
  r.len = vlen + 8;
  return r;
}

inline size_t store_pair(uint8_t* p, uint64_t wdelta, uint64_t word) {
  size_t vlen = Var::encode(wdelta + 1, p);
  std::memcpy(p + vlen, &word, 8);
  return vlen + 8;
}

inline size_t pair_bytes(uint64_t wdelta) { return Var::size(wdelta + 1) + 8; }

// One past the last used body byte (0 for an empty body): pair hopping.
inline size_t body_used(const uint8_t* body, size_t cap) {
  size_t pos = 0;
  while (pos < cap && body[pos] != 0) {
    pos += Var::skip(body + pos) + 8;
  }
  return pos;
}

// Encoded body bytes for keys[1..n) given head keys[0] (keys sorted,
// distinct). Mirrors encode_body below without writing.
inline size_t body_size(const uint64_t* keys, size_t n) {
  size_t total = 0;
  uint64_t prev_w = n != 0 ? window(keys[0]) : 0;
  size_t i = 1;
  while (i < n) {
    uint64_t w = window(keys[i]);
    while (i < n && window(keys[i]) == w) ++i;
    total += pair_bytes(w - prev_w);
    prev_w = w;
  }
  return total;
}

// Encodes keys[1..n) after head keys[0]; returns body bytes written.
inline size_t encode_body(uint8_t* body, const uint64_t* keys, size_t n) {
  size_t pos = 0;
  uint64_t prev_w = n != 0 ? window(keys[0]) : 0;
  size_t i = 1;
  while (i < n) {
    uint64_t w = window(keys[i]);
    uint64_t word = 0;
    while (i < n && window(keys[i]) == w) {
      word |= bit_mask(keys[i]);
      ++i;
    }
    pos += store_pair(body + pos, w - prev_w, word);
    prev_w = w;
  }
  return pos;
}

// Streaming body reader: walks pairs, tracking the absolute window. The
// caller seeds it with window(head) and pulls one pair at a time.
class PairReader {
 public:
  PairReader(const uint8_t* body, size_t cap, uint64_t head_window)
      : body_(body), cap_(cap), win_(head_window) {}

  // Advances to the next pair; false at the terminator. After a true
  // return: pair_off()/pair_len() locate the encoded pair, win() is its
  // absolute window, word() its literal.
  bool next() {
    pos_ = next_;
    if (pos_ >= cap_ || body_[pos_] == 0) return false;
    Pair p = load_pair(body_ + pos_);
    win_ += p.wdelta;
    word_ = p.word;
    next_ = pos_ + p.len;
    return true;
  }

  size_t pair_off() const { return pos_; }
  size_t pair_end() const { return next_; }
  uint64_t win() const { return win_; }
  uint64_t word() const { return word_; }

 private:
  const uint8_t* body_;
  size_t cap_;
  uint64_t win_;
  uint64_t word_ = 0;
  size_t pos_ = 0;
  size_t next_ = 0;
};

}  // namespace cpma::codec::bitmap
