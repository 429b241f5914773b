// Seeded input generation. Every input of a run is a function of --seed.
#pragma once

#include <cstdint>

namespace perfbench {

// splitmix64 finalizer.
constexpr uint64_t mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// key(i): a seeded bijection on [0, 2^bits), so distinct ids give distinct
// keys and the stored set of any id range is known without a lookup. Each
// step (offset add, odd multiply, xor-shift right, all mod 2^bits) is
// invertible.
class KeyGen {
 public:
  KeyGen(uint64_t seed, unsigned bits)
      : mask_((uint64_t{1} << bits) - 1), shift_(bits / 2),
        offset_(mix64(seed) & mask_), mul_(mix64(seed + 1) | 1) {}

  uint64_t operator()(uint64_t i) const {
    uint64_t x = (i + offset_) & mask_;
    x = (x * mul_) & mask_;
    x ^= x >> shift_;
    x = (x * kGolden) & mask_;
    x ^= x >> (shift_ - 3);
    x = (x * mul_) & mask_;
    return x ^ (x >> shift_);
  }

  // The id i with key(i) == k, for k < 2^bits: the steps undone in reverse.
  uint64_t id_of(uint64_t k) const {
    uint64_t x = unxorshift(k, shift_);
    x = (x * inverse(mul_)) & mask_;
    x = unxorshift(x, shift_ - 3);
    x = (x * inverse(kGolden)) & mask_;
    x = unxorshift(x, shift_);
    x = (x * inverse(mul_)) & mask_;
    return (x - offset_) & mask_;
  }

 private:
  static constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ull;

  // m * inverse(m) == 1 mod 2^64 for odd m (Newton: each step doubles the
  // correct low bits, from 3).
  static uint64_t inverse(uint64_t m) {
    uint64_t v = m;
    for (int i = 0; i < 5; ++i) v *= 2 - m * v;
    return v;
  }

  // Inverts y = x ^ (x >> s): each step fixes s more high bits.
  static uint64_t unxorshift(uint64_t y, unsigned s) {
    uint64_t x = y;
    for (unsigned b = s; b < 64; b += s) x = y ^ (x >> s);
    return x;
  }

  uint64_t mask_;
  unsigned shift_;
  uint64_t offset_;
  uint64_t mul_;
};

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() { return mix64(state_ += 0x9e3779b97f4a7c15ull); }
  uint64_t below(uint64_t bound) { return next() % bound; }

 private:
  uint64_t state_;
};

}  // namespace perfbench
