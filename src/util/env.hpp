// Environment-variable knobs: the benchmark harnesses' sizes, and the
// library's operational settings (worker count, queue cap, WAL fsync).
//
// The paper's experiments start from 100M-element structures on a 64-core
// machine; the default sizes here are scaled so that every bench binary
// finishes in seconds on a laptop-class box. Set CPMA_BENCH_SCALE (a
// multiplier) or the specific knobs to approach paper scale.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace cpma::util {

// Both readers return `fallback` unless the whole value parses and is in
// range, so `1M`, `four`, `-1` or an overflowing number never turns into
// some other setting.
inline uint64_t env_u64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v < '0' || *v > '9') return fallback;
  errno = 0;
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (errno == ERANGE || *end != '\0') return fallback;
  return x;
}

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0' ||
      std::isspace(static_cast<unsigned char>(*v))) {
    return fallback;
  }
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (errno == ERANGE || *end != '\0' || !std::isfinite(x)) return fallback;
  return x;
}

// Global multiplier applied to benchmark base sizes.
inline double bench_scale() { return env_double("CPMA_BENCH_SCALE", 1.0); }

inline uint64_t scaled(uint64_t base) {
  double s = bench_scale();
  uint64_t v = static_cast<uint64_t>(static_cast<double>(base) * s);
  return v == 0 ? 1 : v;
}

}  // namespace cpma::util
