// Unit checks of the benchmark's own helpers: the tail-percentile rule,
// span self-time arithmetic, span parent links, and the key bijection and
// its inverse.
// Exits non-zero on the first failed expectation.
#include <cstdio>
#include <cstdlib>
#include <set>
#include <vector>

#include "common.hpp"
#include "keys.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentiles() {
  using perfbench::tail_percentile;
  // 1000 samples: p99 is rank 990 and leaves exactly 10 above it.
  perfbench::Tail t = tail_percentile(one_to(1000));
  expect(t.pct == 99 && t.value == 990 && t.samples == 1000, "p99 at n=1000");
  // 999 samples: p99 (rank 990) leaves 9, so the rule falls to p98.
  t = tail_percentile(one_to(999));
  expect(t.pct == 98 && t.value == 980, "p98 at n=999");
  // 100 samples: p90 (rank 90) leaves 10.
  t = tail_percentile(one_to(100));
  expect(t.pct == 90 && t.value == 90, "p90 at n=100");
  // 15 samples: even the median (rank 8) leaves only 7 above it.
  t = tail_percentile(one_to(15));
  expect(t.pct == 0, "no percentile at n=15");
  t = tail_percentile(one_to(20));
  expect(t.pct == 50 && t.value == 10, "p50 at n=20");
  expect(perfbench::median({3, 1, 2}) == 2, "odd median");
  expect(perfbench::median({4, 1, 3, 2}) == 2.5, "even median");
  expect(perfbench::percentile_sorted({1, 2, 3, 4}, 50) == 2, "nearest rank");
  // 80 slices: the 90th percentile is rank 72, leaving 8 faster slices.
  expect(perfbench::fast_rate(one_to(80)) == 72, "fast_rate at n=80");
  expect(perfbench::fast_rate(one_to(10)) == 9, "fast_rate at n=10");
}

void test_self_times() {
  using perfbench::SpanRec;
  // parent [0, 100); children [10, 30) and [20, 50) overlap -> cover 40;
  // child [90, 120) is clipped to [90, 100) -> 10; grandchild [12, 14)
  // belongs to child 2 only.
  std::vector<SpanRec> spans = {
      {1, 0, "p", 0, 100},  {2, 1, "c", 10, 30}, {3, 1, "c", 20, 50},
      {4, 1, "c", 90, 120}, {5, 2, "g", 12, 14},
  };
  const std::vector<uint64_t> self = perfbench::self_times(spans);
  expect(self[0] == 100 - 40 - 10, "parent self time");
  expect(self[1] == 20 - 2, "child self time minus grandchild");
  expect(self[2] == 30 && self[3] == 30 && self[4] == 2, "leaf self times");
}

void test_tracer() {
  perfbench::Tracer& tr = perfbench::tracer();
  tr.enable(true);
  {
    perfbench::Span outer("outer");
    perfbench::Span inner("inner");
  }
  tr.enable(false);
  { perfbench::Span off("off"); }
  const std::vector<perfbench::SpanRec> spans = tr.spans();
  expect(spans.size() == 2, "disabled tracer records nothing");
  expect(spans.size() == 2 && spans[1].parent == spans[0].id &&
             spans[0].parent == 0,
         "inner span's parent is the outer span");
  expect(spans.size() == 2 && spans[0].end_ns >= spans[1].end_ns &&
             spans[1].start_ns >= spans[0].start_ns,
         "inner span nests in time");
}

void test_keygen() {
  for (uint64_t seed : {1u, 2u, 77u}) {
    const perfbench::KeyGen gen(seed, 12);
    std::set<uint64_t> seen;
    for (uint64_t i = 0; i < 4096; ++i) seen.insert(gen(i));
    expect(seen.size() == 4096 && *seen.rbegin() < 4096,
           "KeyGen is a bijection on [0, 2^bits)");
  }
  expect(perfbench::KeyGen(1, 40)(5) != perfbench::KeyGen(2, 40)(5),
         "seed changes the keys");
  for (uint64_t seed : {1u, 9u}) {
    for (unsigned bits : {12u, 40u}) {
      const perfbench::KeyGen gen(seed, bits);
      bool ok = true;
      for (uint64_t i = 0; i < 4096; ++i) {
        const uint64_t id = i * 2654435761u & ((uint64_t{1} << bits) - 1);
        ok &= gen.id_of(gen(id)) == id;
      }
      expect(ok, "KeyGen::id_of inverts key(i)");
    }
  }
}

}  // namespace

int main() {
  test_percentiles();
  test_self_times();
  test_tracer();
  test_keygen();
  if (failures == 0) std::puts("helpers_test: all passed");
  return failures == 0 ? 0 : 1;
}
