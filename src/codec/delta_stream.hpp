// The leaf layer's single streaming delta-decode kernel.
//
// A compressed leaf body is a run of delta byte-codes terminated by a 0x00
// byte (or by the end of the buffer when the run fills it exactly); bytes
// past the terminator are zero. DeltaStream<Codec> owns that head/end
// bookkeeping in ONE place: it walks the run without ever pre-scanning for
// the end (the old per-op memchr), stopping when it reads the terminator.
//
// Codec concept (see ByteVarintCodec for the reference implementation):
//   static constexpr const char* name;
//   static constexpr size_t kMaxBytes;          // max encoded length
//   static constexpr size_t size(uint64_t v);   // bytes encode() writes
//   static size_t encode(uint64_t v, uint8_t* dst);
//   static size_t decode(const uint8_t* src, uint64_t* out);
//   static size_t skip(const uint8_t* src);
// Contract: the encoding of any value >= 1 contains no 0x00 byte, so the
// first 0x00 byte is the end-of-stream marker (the zero-filled tail of a
// leaf terminates the run) and a leaf finds its used bytes with a memchr.
// Optional bulk hooks (detected with `requires`, scalar fallbacks
// otherwise):
//   static size_t decode_block(src, avail, base, out, max, &consumed);
//   static size_t count_run(src, avail, &consumed);
//
// SIMD policy: the word-at-a-time fast path (8 one-byte deltas per 64-bit
// probe) is portable and always compiled. The AVX2 widen-and-prefix-sum
// variant is additionally gated on CPMA_SIMD (CMake option of the same name)
// so a forced-scalar build exercises the portable path end to end.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>

#include "codec/varint.hpp"

#ifndef CPMA_SIMD
#define CPMA_SIMD 1
#endif

#if CPMA_SIMD && defined(__AVX2__)
#include <immintrin.h>
#define CPMA_SIMD_AVX2 1
#else
#define CPMA_SIMD_AVX2 0
#endif

namespace cpma::codec {

namespace detail {
constexpr uint64_t kHighBits = 0x8080808080808080ull;
constexpr uint64_t kLowBits = 0x0101010101010101ull;

// True iff any of the 8 bytes of w is 0x00 (classic SWAR zero-byte probe).
constexpr bool word_has_zero_byte(uint64_t w) {
  return ((w - kLowBits) & ~w & kHighBits) != 0;
}

#if CPMA_SIMD_AVX2
// Decodes 8 consecutive one-byte deltas at p into out[0..8) on top of
// `base`: widen to 16-bit lanes, log-step prefix sum (max sum 8*127 fits),
// widen to 64-bit and add the base. Returns the new running value.
inline uint64_t decode8_avx2(const uint8_t* p, uint64_t base, uint64_t* out) {
  __m128i bytes = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  __m128i v = _mm_cvtepu8_epi16(bytes);
  v = _mm_add_epi16(v, _mm_slli_si128(v, 2));
  v = _mm_add_epi16(v, _mm_slli_si128(v, 4));
  v = _mm_add_epi16(v, _mm_slli_si128(v, 8));
  const __m256i b = _mm256_set1_epi64x(static_cast<long long>(base));
  __m256i lo = _mm256_add_epi64(_mm256_cvtepu16_epi64(v), b);
  __m256i hi = _mm256_add_epi64(
      _mm256_cvtepu16_epi64(_mm_srli_si128(v, 8)), b);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), lo);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4), hi);
  return base + static_cast<uint64_t>(_mm_extract_epi16(v, 7));
}
#endif
}  // namespace detail

// The default (and currently only production) codec: varint byte codes with
// continue bits, plus the bulk hooks the kernel's fast paths hang off.
struct ByteVarintCodec {
  static constexpr const char* name = "byte-varint";
  static constexpr size_t kMaxBytes = kMaxVarintBytes;

  static constexpr size_t size(uint64_t v) { return varint_size(v); }
  static size_t encode(uint64_t v, uint8_t* dst) {
    return varint_encode(v, dst);
  }
  static size_t decode(const uint8_t* src, uint64_t* out) {
    return varint_decode(src, out);
  }
  static size_t skip(const uint8_t* src) { return varint_skip(src); }

  // Bulk-decodes up to `max` values from src[0..avail) on top of running
  // value `base`, stopping at the terminator. Returns the number of values
  // written to out; *consumed receives the bytes advanced. Fast path: a
  // 64-bit probe proves the next 8 bytes are all one-byte, non-terminator
  // deltas (no continue bits, no zero byte), which covers most of a dense
  // leaf; anything else falls back to one scalar varint per iteration.
  static size_t decode_block(const uint8_t* src, size_t avail, uint64_t base,
                             uint64_t* out, size_t max, size_t* consumed) {
    size_t n = 0;
    size_t pos = 0;
    // Word loop: runs while every probe proves 8 plain one-byte deltas.
    // On the first failed probe the rest of the block decodes scalar (one
    // probe per run, not per value — a leaf's delta widths are homogeneous
    // enough that per-value re-probing only adds overhead); the next
    // next_block() call re-enters the word loop.
    while (n + 8 <= max && pos + 8 <= avail) {
      uint64_t w;
      std::memcpy(&w, src + pos, 8);
      if ((w & detail::kHighBits) != 0 || detail::word_has_zero_byte(w)) break;
#if CPMA_SIMD_AVX2
      base = detail::decode8_avx2(src + pos, base, out + n);
#else
      for (size_t i = 0; i < 8; ++i) {
        base += src[pos + i];
        out[n + i] = base;
      }
#endif
      n += 8;
      pos += 8;
    }
    while (n < max && pos < avail && src[pos] != 0) {
      uint64_t d;
      pos += decode(src + pos, &d);
      base += d;
      out[n++] = base;
    }
    *consumed = pos;
    return n;
  }

  // True when a probe of the next bytes suggests the upcoming run is mostly
  // multi-byte deltas, i.e. decode_block's word loop would fail its probe
  // immediately and its generic tail would decode the rest anyway. The
  // kernel then takes a tight scalar loop instead, which skips the per-block
  // probe and the word-loop setup entirely (the mid-density regime where
  // block decode used to trail the pure scalar loop by ~15-25%). Each set
  // high bit is a continue bit, so >= 3 of 8 bytes belonging to multi-byte
  // codes means at most ~5 values in the window and the word fast path
  // cannot engage.
  static bool prefer_scalar(const uint8_t* src, size_t avail) {
    if (avail < 8) return false;  // short tail: decode_block's tail loop
    uint64_t w;
    std::memcpy(&w, src, 8);
    if (detail::word_has_zero_byte(w)) return false;  // terminator nearby
    return std::popcount(w & detail::kHighBits) >= 3;
  }

  // Sums encoded values without storing them, consuming whole codes while
  // they START before `limit` (so the caller can stop at a byte target, or
  // pass avail to drain to the terminator); *consumed receives the bytes
  // advanced. A leaf's delta widths are homogeneous enough that three
  // word-probe fast paths cover most content: 8 one-byte deltas fold with a
  // SWAR horizontal add, and uniform runs of 2-byte (4 codes/word) and
  // 3-byte (2 codes/6 bytes) codes are recognized by their continue-bit
  // patterns and decoded with shifts — no per-byte loop. This is what lets
  // a resize learn a leaf's last key (head + sum of deltas) and locate its
  // split points without ever materializing a key.
  static uint64_t sum_run_to(const uint8_t* src, size_t avail, size_t limit,
                             size_t* consumed) {
    if (limit > avail) limit = avail;
    uint64_t sum = 0;
    size_t pos = 0;
    while (pos + 8 <= limit) {
      uint64_t w;
      std::memcpy(&w, src + pos, 8);
      // A zero byte (the terminator) masquerades as a stop byte in the
      // width-pattern probes, so it must be excluded first.
      if (detail::word_has_zero_byte(w)) break;
      uint64_t hi = w & detail::kHighBits;
      if (hi == 0) {
        // Eight one-byte deltas: fold pairs, quads, then halves.
        uint64_t p2 =
            (w & 0x00FF00FF00FF00FFull) + ((w >> 8) & 0x00FF00FF00FF00FFull);
        uint64_t p4 = (p2 & 0x0000FFFF0000FFFFull) +
                      ((p2 >> 16) & 0x0000FFFF0000FFFFull);
        sum += (p4 + (p4 >> 32)) & 0xFFFFFFFFull;
        pos += 8;
      } else if (hi == 0x0080008000800080ull) {
        // Four 2-byte codes (continue bits 1,0 repeating).
        sum += (w & 0x7f) | (((w >> 8) & 0x7f) << 7);
        sum += ((w >> 16) & 0x7f) | (((w >> 24) & 0x7f) << 7);
        sum += ((w >> 32) & 0x7f) | (((w >> 40) & 0x7f) << 7);
        sum += ((w >> 48) & 0x7f) | (((w >> 56) & 0x7f) << 7);
        pos += 8;
      } else if ((w & 0x0000808080808080ull) == 0x0000008080008080ull) {
        // Two 3-byte codes in the low six bytes (continue bits 1,1,0).
        sum += (w & 0x7f) | (((w >> 8) & 0x7f) << 7) |
               (((w >> 16) & 0x7f) << 14);
        sum += ((w >> 24) & 0x7f) | (((w >> 32) & 0x7f) << 7) |
               (((w >> 40) & 0x7f) << 14);
        pos += 6;
      } else {
        uint64_t d;
        pos += decode(src + pos, &d);
        sum += d;
      }
    }
    while (pos < limit && src[pos] != 0) {
      uint64_t d;
      pos += decode(src + pos, &d);
      sum += d;
    }
    *consumed = pos;
    return sum;
  }

  // Counts the encoded values in src[0..avail) up to the terminator without
  // decoding them; *consumed receives the bytes advanced. Every value ends
  // in exactly one byte with a clear continue bit, so a window's value count
  // is a popcount — correct even when a varint straddles windows, because
  // its final byte is counted wherever it lands.
  static size_t count_run(const uint8_t* src, size_t avail, size_t* consumed) {
    size_t n = 0;
    size_t pos = 0;
    while (pos + 8 <= avail) {
      uint64_t w;
      std::memcpy(&w, src + pos, 8);
      if (detail::word_has_zero_byte(w)) break;
      n += static_cast<size_t>(
          std::popcount(~w & detail::kHighBits));
      pos += 8;
    }
    while (pos < avail && src[pos] != 0) {
      pos += skip(src + pos);
      ++n;
    }
    *consumed = pos;
    return n;
  }
};

template <typename Codec>
concept HasDecodeBlock = requires(const uint8_t* p, size_t a, uint64_t b,
                                  uint64_t* o, size_t m, size_t* c) {
  { Codec::decode_block(p, a, b, o, m, c) } -> std::same_as<size_t>;
};

template <typename Codec>
concept HasCountRun = requires(const uint8_t* p, size_t a, size_t* c) {
  { Codec::count_run(p, a, c) } -> std::same_as<size_t>;
};

template <typename Codec>
concept HasPreferScalar = requires(const uint8_t* p, size_t a) {
  { Codec::prefer_scalar(p, a) } -> std::same_as<bool>;
};

template <typename Codec>
concept HasSumRunTo = requires(const uint8_t* p, size_t a, size_t t,
                               size_t* c) {
  { Codec::sum_run_to(p, a, t, c) } -> std::same_as<uint64_t>;
};

// Streaming decoder over a delta run. `value()` starts at the caller's base
// (a leaf's head) and advances by one decoded delta per next(), or by whole
// blocks via next_block(). `pos()` is the byte offset of the next undecoded
// delta relative to the start of the run, which is what the leaf's mutation
// paths use to splice bytes at the position the scan stopped.
template <typename Codec = ByteVarintCodec>
class DeltaStream {
 public:
  using codec_type = Codec;
  // Block size that amortizes per-block overhead without outgrowing the
  // stack buffers the leaf ops use.
  static constexpr size_t kBlockKeys = 64;

  DeltaStream(const uint8_t* deltas, size_t cap, uint64_t base,
              size_t pos = 0)
      : data_(deltas), cap_(cap), pos_(pos), value_(base) {}

  uint64_t value() const { return value_; }
  size_t pos() const { return pos_; }
  bool done() const { return pos_ >= cap_ || data_[pos_] == 0; }

  // Advances by one key; false once the terminator (or cap) is reached.
  bool next() {
    if (done()) return false;
    uint64_t d;
    pos_ += Codec::decode(data_ + pos_, &d);
    value_ += d;
    return true;
  }

  // Decodes up to `max` further keys into out[]; returns how many (0 at
  // end-of-stream). After a nonzero return, value() is the last key decoded.
  size_t next_block(uint64_t* out, size_t max) {
    if (pos_ >= cap_) return 0;
    if constexpr (HasDecodeBlock<Codec>) {
      if constexpr (HasPreferScalar<Codec>) {
        if (Codec::prefer_scalar(data_ + pos_, cap_ - pos_)) {
          // Mostly multi-byte deltas ahead: a tight scalar loop on local
          // copies of the stream state beats the block path's probing.
          size_t n = 0;
          size_t p = pos_;
          uint64_t v = value_;
          while (n < max && p < cap_ && data_[p] != 0) {
            uint64_t d;
            p += Codec::decode(data_ + p, &d);
            v += d;
            out[n++] = v;
          }
          pos_ = p;
          if (n > 0) value_ = v;
          return n;
        }
      }
      size_t consumed = 0;
      size_t n = Codec::decode_block(data_ + pos_, cap_ - pos_, value_, out,
                                     max, &consumed);
      pos_ += consumed;
      if (n > 0) value_ = out[n - 1];
      return n;
    } else {
      size_t n = 0;
      while (n < max && next()) out[n++] = value_;
      return n;
    }
  }

  // Consumes whole codes while they start before run offset `target`:
  // afterwards pos() is the first code boundary at or past target (or the
  // terminator) and value() has accumulated the skipped deltas. The
  // direct-spread resize uses this to find split keys without materializing
  // the run.
  void seek(size_t target) {
    if (pos_ >= cap_ || target <= pos_) return;
    if constexpr (HasSumRunTo<Codec>) {
      size_t consumed = 0;
      value_ += Codec::sum_run_to(data_ + pos_, cap_ - pos_, target - pos_,
                                  &consumed);
      pos_ += consumed;
    } else {
      while (pos_ < target && next()) {
      }
    }
  }

  // Consumes the rest of the stream: afterwards pos() is the terminator
  // offset (the run's used bytes) and value() is the run's last key.
  void drain() { seek(cap_); }

  // Number of keys left in the stream; consumes them (the stream ends at
  // the terminator afterwards). Does not decode values.
  uint64_t count_remaining() {
    if (pos_ >= cap_) return 0;
    if constexpr (HasCountRun<Codec>) {
      size_t consumed = 0;
      uint64_t n = Codec::count_run(data_ + pos_, cap_ - pos_, &consumed);
      pos_ += consumed;
      return n;
    } else {
      uint64_t n = 0;
      while (!done()) {
        pos_ += Codec::skip(data_ + pos_);
        ++n;
      }
      return n;
    }
  }

 private:
  const uint8_t* data_;
  size_t cap_;
  size_t pos_;
  uint64_t value_;
};

}  // namespace cpma::codec
