// Leaf decode-throughput microbench: measures the decode kernels that every
// CPMA scan/merge routes through, at leaf granularity, for the byte-varint
// leaf.
//
// Modes:
//   scalar  one key per cursor_next call (the search loops)
//   block   block_next into a stack buffer (scans and merges; takes the
//           word-at-a-time / SIMD fast path on 1-byte deltas)
//   map     Leaf::map summing (what engine scans execute)
//   count   element_count (no value decode)
//   legacy  the seed implementation (memchr + scalar loop)
//
// Distributions sweep the delta/density regime: dense (1-byte codes, the
// byte-varint fast-path sweet spot), dense_runs (clustered consecutive runs
// separated by large gaps: long 1-byte stretches between jumps), mixed
// (half dense runs, half uniform 40-bit), uniform40 (~3-byte codes, where
// the prefer_scalar probe takes the scalar loop) and sparse60 (~7-byte
// codes).
//
// Output: one RESULT line per (codec, dist, mode) — machine-parsed by
// scripts/run_bench.py into BENCH_leaf_decode.json; the codec= field (`bv`)
// keys the rows in compare_bench.py.
#include <algorithm>
#include <cstring>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pma/leaf_compressed.hpp"
#include "pma/settings.hpp"

namespace {

using Leaf = cpma::pma::CompressedLeaf<>;

constexpr size_t kLeafBytes = 1024;

volatile uint64_t g_sink;  // defeats dead-code elimination

struct LeafSet {
  std::vector<uint8_t> data;  // num_leaves * kLeafBytes
  uint64_t num_leaves = 0;
  uint64_t num_keys = 0;
  uint64_t encoded_bytes = 0;  // used bytes across leaves (heads included)
};

// Packs sorted unique keys into consecutive leaves at ~90% density, splitting
// by encoded cost as the engine's spread does.
LeafSet build_leaves(const std::vector<uint64_t>& keys) {
  LeafSet ls;
  const size_t budget = kLeafBytes - cpma::pma::kLeafSlack;
  size_t i = 0;
  while (i < keys.size()) {
    size_t j = i + 1;
    size_t cost = Leaf::kHeadBytes;
    while (j < keys.size()) {
      size_t c = Leaf::delta_bytes(keys[j - 1], keys[j]);
      if (cost + c > budget) break;
      cost += c;
      ++j;
    }
    ls.data.resize(ls.data.size() + kLeafBytes);
    uint8_t* lp = ls.data.data() + ls.num_leaves * kLeafBytes;
    Leaf::write(lp, kLeafBytes, keys.data() + i, j - i);
    ls.encoded_bytes += Leaf::used_bytes(lp, kLeafBytes);
    ++ls.num_leaves;
    ls.num_keys += j - i;
    i = j;
  }
  return ls;
}

std::vector<uint64_t> make_dist(const std::string& dist, uint64_t n,
                                uint64_t seed) {
  std::vector<uint64_t> keys;
  cpma::util::Rng r(seed);
  if (dist == "dense") {
    keys.resize(n);
    for (uint64_t i = 0; i < n; ++i) keys[i] = 1 + 2 * i;  // delta 2: 1 byte
    return keys;
  }
  if (dist == "dense_runs" || dist == "mixed") {
    // Clustered consecutive runs at random 40-bit bases; `mixed` interleaves
    // the runs with an equal volume of uniform 40-bit keys.
    keys.reserve(n);
    while (keys.size() < (dist == "mixed" ? n / 2 : n)) {
      uint64_t base = 1 + (r.next() >> 24);
      uint64_t len = 128 + r.next() % 384;
      for (uint64_t i = 0; i < len; ++i) keys.push_back(base + i);
    }
    if (dist == "mixed") {
      while (keys.size() < n) keys.push_back(1 + (r.next() >> 24));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
  }
  unsigned bits = dist == "uniform40" ? 40 : 60;
  keys.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    keys.push_back(1 + (r.next() >> (64 - bits)));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

template <typename F>
double throughput_keys_per_s(const LeafSet& ls, F&& per_leaf) {
  double secs = cpma::util::time_trials(
      [&] {
        uint64_t acc = 0;
        for (uint64_t l = 0; l < ls.num_leaves; ++l) {
          acc += per_leaf(ls.data.data() + l * kLeafBytes);
        }
        g_sink = acc;
      },
      bench::trials());
  return static_cast<double>(ls.num_keys) / secs;
}

void report(const LeafSet& ls, const std::string& codec,
            const std::string& dist, const std::string& mode,
            double keys_per_s) {
  double bytes_per_key = static_cast<double>(ls.encoded_bytes) /
                         static_cast<double>(ls.num_keys);
  double mb_per_s = keys_per_s * bytes_per_key / 1e6;
  // The word-at-a-time path is unconditional (CPMA_SIMD only gates the
  // intrinsics variant), so the label is the path actually taken.
  const char* simd =
#if CPMA_SIMD_AVX2
      "avx2";
#else
      "word";
#endif
  std::printf(
      "RESULT bench=leaf_decode codec=%s dist=%s mode=%s simd=%s keys=%llu "
      "bytes_per_key=%.2f keys_per_s=%.3e mb_per_s=%.1f\n",
      codec.c_str(), dist.c_str(), mode.c_str(), simd,
      (unsigned long long)ls.num_keys, bytes_per_key, keys_per_s, mb_per_s);
}

void run_codec(const std::string& codec, const std::string& dist,
               const std::vector<uint64_t>& keys) {
  LeafSet ls = build_leaves(keys);

  // The seed implementation each op used to carry: memchr for the stream
  // end, then a scalar varint loop bounded by it.
  report(ls, codec, dist, "legacy",
         throughput_keys_per_s(ls, [](const uint8_t* lp) {
           uint64_t acc = Leaf::head(lp);
           if (acc == 0) return acc;
           const void* z = std::memchr(lp + Leaf::kHeadBytes, 0,
                                       kLeafBytes - Leaf::kHeadBytes);
           size_t end = z == nullptr
                            ? kLeafBytes
                            : static_cast<size_t>(
                                  static_cast<const uint8_t*>(z) - lp);
           uint64_t cur = acc;
           size_t pos = Leaf::kHeadBytes;
           while (pos < end) {
             uint64_t delta;
             pos += cpma::codec::varint_decode(lp + pos, &delta);
             cur += delta;
             acc += cur;
           }
           return acc;
         }));
  report(ls, codec, dist, "scalar",
         throughput_keys_per_s(ls, [](const uint8_t* lp) {
           Leaf::Cursor c{};
           if (!Leaf::cursor_begin(lp, kLeafBytes, c)) return uint64_t{0};
           uint64_t acc = c.value;
           while (Leaf::cursor_next(lp, kLeafBytes, c)) acc += c.value;
           return acc;
         }));
  report(ls, codec, dist, "block",
         throughput_keys_per_s(ls, [](const uint8_t* lp) {
           uint64_t acc = 0;
           Leaf::BlockCursor bc{};
           uint64_t buf[Leaf::kBlockKeys];
           while (size_t k =
                      Leaf::block_next(lp, kLeafBytes, bc, buf,
                                       Leaf::kBlockKeys)) {
             for (size_t i = 0; i < k; ++i) acc += buf[i];
           }
           return acc;
         }));
  report(ls, codec, dist, "map",
         throughput_keys_per_s(ls, [](const uint8_t* lp) {
           uint64_t acc = 0;
           Leaf::map(lp, kLeafBytes, [&](uint64_t k) {
             acc += k;
             return true;
           });
           return acc;
         }));
  report(ls, codec, dist, "count",
         throughput_keys_per_s(ls, [](const uint8_t* lp) {
           return Leaf::element_count(lp, kLeafBytes);
         }));
}

void run_dist(const std::string& dist) {
  auto keys = make_dist(dist, bench::base_n(), 42);
  run_codec("bv", dist, keys);
}

}  // namespace

int main() {
  bench::print_config_line("leaf decode kernel throughput");
  for (const char* dist :
       {"dense", "dense_runs", "mixed", "uniform40", "sparse60"}) {
    run_dist(dist);
  }
  return 0;
}
