// Shared helpers for the per-table/figure benchmark binaries.
//
// Protocol mirrors the paper (Section 6): structures start pre-loaded with
// BASE_N uniform-random 40-bit keys, batches insert/delete INSERT_N more,
// range queries run QUERIES parallel map_range_length calls. The paper runs
// at 1e8 elements on 64 cores; defaults here are scaled to finish in seconds
// (see DESIGN.md's substitution table) and every size can be raised with
//   CPMA_BENCH_SCALE=<mult>   (applies to all base sizes)
//   CPMA_BENCH_TRIALS=<n>     (measurement repetitions; default 3)
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/env.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/zipf.hpp"

namespace bench {

inline uint64_t base_n() {
  return cpma::util::env_u64("CPMA_BENCH_BASE_N",
                             cpma::util::scaled(1'000'000));
}
inline uint64_t insert_n() {
  return cpma::util::env_u64("CPMA_BENCH_INSERT_N",
                             cpma::util::scaled(1'000'000));
}
inline int trials() {
  return static_cast<int>(cpma::util::env_u64("CPMA_BENCH_TRIALS", 3));
}

// Structure filter: CPMA_BENCH_STRUCTS is a comma-separated subset of a
// bench's structure names (e.g. "pma,cpma"). Unset/empty enables all — CI
// uses the filter to skip the slow tree baselines on tracked runs.
inline bool struct_enabled(const char* name) {
  const char* v = std::getenv("CPMA_BENCH_STRUCTS");
  if (v == nullptr || *v == '\0') return true;
  std::string s(v);
  std::string n(name);
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t c = s.find(',', pos);
    if (c == std::string::npos) c = s.size();
    if (s.compare(pos, c - pos, n) == 0) return true;
    pos = c + 1;
  }
  return false;
}

// Shard counts for the sharded rows: CPMA_BENCH_SHARDS is a comma-separated
// list of shard counts (default "1,8"; set to an empty-but-defined value or
// "0" to disable the sharded rows entirely). shards=1 tracks the routing
// overhead against the direct engines; larger counts track the fan-out.
inline std::vector<uint64_t> shard_counts() {
  const char* v = std::getenv("CPMA_BENCH_SHARDS");
  std::string s = (v == nullptr) ? "1,8" : v;
  std::vector<uint64_t> counts;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t c = s.find(',', pos);
    if (c == std::string::npos) c = s.size();
    uint64_t n = std::strtoull(s.substr(pos, c - pos).c_str(), nullptr, 10);
    if (n > 0) counts.push_back(n);
    pos = c + 1;
  }
  return counts;
}

// Per-shard content-byte spread, reported on sharded RESULT lines so a
// regression caused by routing imbalance (splitter drift the rebalancer
// missed) is attributable from the snapshot alone.
struct ShardSpread {
  uint64_t min_bytes = 0;
  uint64_t max_bytes = 0;
};

template <typename S>
ShardSpread shard_spread(const S& s) {
  ShardSpread out;
  std::vector<uint64_t> bytes = s.shard_content_bytes();
  if (bytes.empty()) return out;
  out.min_bytes = bytes[0];
  out.max_bytes = bytes[0];
  for (uint64_t b : bytes) {
    out.min_bytes = std::min(out.min_bytes, b);
    out.max_bytes = std::max(out.max_bytes, b);
  }
  return out;
}

// Uniform-random 40-bit keys (the paper's default microbenchmark
// distribution), deterministic in (seed, index).
inline std::vector<uint64_t> uniform_keys(uint64_t n, uint64_t seed) {
  std::vector<uint64_t> keys(n);
  for (uint64_t i = 0; i < n; ++i) keys[i] = cpma::util::uniform_key(seed, i);
  return keys;
}

// Zipfian 34-bit keys with alpha = 0.99 (YCSB parameters, as in Table 5 /
// Figure 11).
inline std::vector<uint64_t> zipf_keys(uint64_t n, uint64_t seed) {
  cpma::util::ZipfGenerator z(uint64_t{1} << 27, 0.99, seed);
  std::vector<uint64_t> keys(n);
  for (uint64_t i = 0; i < n; ++i) keys[i] = z.key(i);
  return keys;
}

// Inserts `all` into `s` in batches of `batch_size`; returns inserts/second
// (counting attempted inserts, like the paper's throughput).
template <typename S>
double batch_insert_throughput(S& s, const std::vector<uint64_t>& all,
                               uint64_t batch_size) {
  std::vector<uint64_t> scratch;
  cpma::util::Timer t;
  for (uint64_t off = 0; off < all.size(); off += batch_size) {
    uint64_t len = std::min<uint64_t>(batch_size, all.size() - off);
    scratch.assign(all.begin() + off, all.begin() + off + len);
    s.insert_batch(scratch.data(), len);
  }
  return static_cast<double>(all.size()) / t.elapsed_seconds();
}

template <typename S>
double batch_remove_throughput(S& s, const std::vector<uint64_t>& all,
                               uint64_t batch_size) {
  std::vector<uint64_t> scratch;
  cpma::util::Timer t;
  for (uint64_t off = 0; off < all.size(); off += batch_size) {
    uint64_t len = std::min<uint64_t>(batch_size, all.size() - off);
    scratch.assign(all.begin() + off, all.begin() + off + len);
    s.remove_batch(scratch.data(), len);
  }
  return static_cast<double>(all.size()) / t.elapsed_seconds();
}

inline void print_config_line(const char* what) {
  std::printf("# %s | base_n=%llu insert_n=%llu trials=%d (scale with "
              "CPMA_BENCH_SCALE)\n",
              what, (unsigned long long)base_n(),
              (unsigned long long)insert_n(), trials());
}

}  // namespace bench
