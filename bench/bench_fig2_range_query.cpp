// Figure 2 / Table 10: range-query throughput (elements processed per
// second) as a function of the expected range length, for P-trees, U-PaC,
// C-PaC, PMA, and CPMA.
//
// Paper protocol: structure holds 1e8 keys; 100,000 parallel range queries
// per length. Scaled here: the query count adapts so each row processes a
// bounded number of elements.
//
// Expected shape (paper): PMA 9-27x P-trees; CPMA 1.2-10x C-PaC, advantage
// growing with range length; CPMA overtakes PMA on the longest ranges
// (compression = fewer bytes through the memory system).
//
// Machine-readable output: one RESULT line per (structure, len, dist, mode)
// for scripts/run_bench.py / compare_bench.py (tracked as
// BENCH_range_query.json). Beyond the paper's uniform per-op sweep:
//   dist=zipf    range starts drawn zipf (hot ranges rescanned)
//   dist=recent  ranges inside a monotone-appended suffix (newest data)
//   mode=batch   the SAME disjoint key ranges answered by one map_ranges
//                call instead of a per-op map_range loop — measures the
//                amortized multi-range path against its per-op twin.
#include <atomic>
#include <cstdio>
#include <utility>
#include <vector>

#include "baselines/pactree.hpp"
#include "baselines/ptree.hpp"
#include "bench_common.hpp"
#include "parallel/scheduler.hpp"
#include "pma/cpma.hpp"
#include "pma/settings.hpp"
#include "util/table.hpp"

namespace {

// Parallel length-bounded range queries (the paper's protocol); returns
// elements/second.
template <typename S>
double query_throughput(const S& s, uint64_t len, uint64_t queries,
                        uint64_t seed) {
  std::atomic<uint64_t> total{0};
  cpma::util::Timer t;
  cpma::par::parallel_for(0, queries, [&](uint64_t q) {
    uint64_t start = cpma::util::uniform_key(seed ^ 0xabcd, q);
    uint64_t acc = 0;
    uint64_t cnt = s.map_range_length([&](uint64_t k) { acc += k; }, start,
                                      len);
    (void)acc;
    total.fetch_add(cnt, std::memory_order_relaxed);
  }, 1);
  double secs = t.elapsed_seconds();
  return static_cast<double>(total.load()) / secs;
}

// Same protocol with arbitrary start keys (zipf / recent scenarios).
template <typename S>
double query_throughput_starts(const S& s, uint64_t len,
                               const std::vector<uint64_t>& starts) {
  std::atomic<uint64_t> total{0};
  cpma::util::Timer t;
  cpma::par::parallel_for(0, starts.size(), [&](uint64_t q) {
    uint64_t acc = 0;
    uint64_t cnt = s.map_range_length([&](uint64_t k) { acc += k; },
                                      starts[q], len);
    (void)acc;
    total.fetch_add(cnt, std::memory_order_relaxed);
  }, 1);
  return static_cast<double>(total.load()) / t.elapsed_seconds();
}

// Disjoint sorted key ranges of expected length `len` elements: starts are
// sorted uniform keys, each range's end clamps to the next start. Used for
// the per-op-vs-batch pair so both modes answer IDENTICAL ranges.
std::vector<std::pair<uint64_t, uint64_t>> make_ranges(uint64_t len,
                                                       uint64_t queries,
                                                       uint64_t n,
                                                       uint64_t seed) {
  // Expected key span holding `len` elements at density n / 2^40.
  const double span_d =
      static_cast<double>(len) * (static_cast<double>(uint64_t{1} << 40) /
                                  static_cast<double>(n));
  const uint64_t span = span_d < 1 ? 1 : static_cast<uint64_t>(span_d);
  std::vector<uint64_t> starts(queries);
  for (uint64_t q = 0; q < queries; ++q) {
    starts[q] = cpma::util::uniform_key(seed ^ 0xfade, q);
  }
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  ranges.reserve(starts.size());
  for (uint64_t i = 0; i < starts.size(); ++i) {
    uint64_t end = starts[i] + span;
    if (end < starts[i]) end = UINT64_MAX;  // overflow clamp
    if (i + 1 < starts.size() && end > starts[i + 1]) end = starts[i + 1];
    if (end > starts[i]) ranges.emplace_back(starts[i], end);
  }
  return ranges;
}

template <typename S>
double per_op_ranges(const S& s,
                     const std::vector<std::pair<uint64_t, uint64_t>>& r) {
  std::atomic<uint64_t> total{0};
  cpma::util::Timer t;
  cpma::par::parallel_for(0, r.size(), [&](uint64_t q) {
    uint64_t cnt = 0, acc = 0;
    s.map_range([&](uint64_t k) { acc += k; ++cnt; }, r[q].first,
                r[q].second);
    (void)acc;
    total.fetch_add(cnt, std::memory_order_relaxed);
  }, 1);
  return static_cast<double>(total.load()) / t.elapsed_seconds();
}

// Per-range accumulators, not shared atomics: map_ranges hands each range
// index to exactly one worker, so plain slots are race-free — a shared
// fetch_add per element would serialize the measurement on cache-line
// ping-pong and hide the amortization being measured.
template <typename S>
double batch_ranges(const S& s,
                    const std::vector<std::pair<uint64_t, uint64_t>>& r) {
  std::vector<uint64_t> cnt(r.size(), 0);
  std::vector<uint64_t> acc(r.size(), 0);
  cpma::util::Timer t;
  s.map_ranges(r.data(), r.size(), [&](uint64_t ri, uint64_t k) {
    acc[ri] += k;
    ++cnt[ri];
  });
  double secs = t.elapsed_seconds();
  uint64_t total = 0, sink = 0;
  for (uint64_t i = 0; i < r.size(); ++i) {
    total += cnt[i];
    sink += acc[i];
  }
  volatile uint64_t keep = sink;
  (void)keep;
  return static_cast<double>(total) / secs;
}

template <typename S>
S build(const std::vector<uint64_t>& base) {
  S s;
  std::vector<uint64_t> b = base;
  s.insert_batch(b.data(), b.size());
  return s;
}

void emit(const char* name, uint64_t len, const char* dist, const char* mode,
          double tp) {
  std::printf("RESULT bench=range_query struct=%s len=%llu dist=%s mode=%s "
              "elems_per_s=%.6e\n",
              name, (unsigned long long)len, dist, mode, tp);
}

}  // namespace

int main() {
  bench::print_config_line("Figure 2 / Table 10: range-query throughput");
  auto base = bench::uniform_keys(bench::base_n(), 3);
  // Monotone-appended suffix above the 40-bit space: the "newest data" the
  // recent-scenario ranges scan.
  const uint64_t tail_n = bench::base_n() / 8;
  const uint64_t tail_base = uint64_t{1} << 40;
  std::vector<uint64_t> content = base;
  for (uint64_t i = 0; i < tail_n; ++i) content.push_back(tail_base + 3 * i);

  const bool ptree_on = bench::struct_enabled("ptree");
  const bool upac_on = bench::struct_enabled("upac");
  const bool cpac_on = bench::struct_enabled("cpac");
  const bool pma_on = bench::struct_enabled("pma");
  const bool cpma_on = bench::struct_enabled("cpma");
  const bool trees_on = ptree_on && upac_on && cpac_on;

  cpma::baselines::PTree ptree;
  cpma::baselines::UPacTree upac;
  cpma::baselines::CPacTree cpac;
  if (trees_on) {
    std::vector<uint64_t> b = base;
    ptree.insert_batch(b.data(), b.size());
    b = base;
    upac.insert_batch(b.data(), b.size());
    b = base;
    cpac.insert_batch(b.data(), b.size());
  }
  auto pma = build<cpma::PMA>(content);
  auto cpma_s = build<cpma::CPMA>(content);

  // Range lengths follow the paper's sweep, capped at ~20% of the data.
  std::vector<uint64_t> lengths{6, 50, 400, 3000, 20000, 200000};
  while (lengths.back() > bench::base_n() / 5) lengths.pop_back();
  const uint64_t target_volume = 50'000'000;

  cpma::util::Table table({"avg_len", "queries", "P-tree", "U-PaC", "PMA",
                           "PMA/P-tree", "C-PaC", "CPMA", "CPMA/C-PaC",
                           "CPMA/PMA"});
  if (trees_on) table.print_header();
  for (uint64_t len : lengths) {
    uint64_t queries =
        std::max<uint64_t>(64, std::min<uint64_t>(10000, target_volume / len));
    double tp_pt = 0, tp_up = 0, tp_cp = 0, tp_p = 0, tp_c = 0;
    for (int t = 0; t < bench::trials(); ++t) {
      if (trees_on) {
        tp_pt = std::max(tp_pt, query_throughput(ptree, len, queries, 7 + t));
        tp_up = std::max(tp_up, query_throughput(upac, len, queries, 7 + t));
        tp_cp = std::max(tp_cp, query_throughput(cpac, len, queries, 7 + t));
      }
      if (pma_on) {
        tp_p = std::max(tp_p, query_throughput(pma, len, queries, 7 + t));
      }
      if (cpma_on) {
        tp_c = std::max(tp_c, query_throughput(cpma_s, len, queries, 7 + t));
      }
    }
    if (trees_on) {
      emit("ptree", len, "uniform", "per_op", tp_pt);
      emit("upac", len, "uniform", "per_op", tp_up);
      emit("cpac", len, "uniform", "per_op", tp_cp);
    }
    if (pma_on) emit("pma", len, "uniform", "per_op", tp_p);
    if (cpma_on) emit("cpma", len, "uniform", "per_op", tp_c);

    // Scenario + batch rows for the engines.
    std::vector<uint64_t> zipf_starts = bench::zipf_keys(queries, 23 + len);
    std::vector<uint64_t> recent_starts(queries);
    for (uint64_t q = 0; q < queries; ++q) {
      recent_starts[q] =
          tail_base + cpma::util::hash64((29 + len) ^ q) % (3 * tail_n);
    }
    auto ranges = make_ranges(len, queries, content.size(), 31 + len);
    for (int which = 0; which < 2; ++which) {
      const char* name = which == 0 ? "pma" : "cpma";
      if (which == 0 && !pma_on) continue;
      if (which == 1 && !cpma_on) continue;
      double tp_z = 0, tp_r = 0, tp_po = 0, tp_b = 0;
      for (int t = 0; t < bench::trials(); ++t) {
        if (which == 0) {
          tp_z = std::max(tp_z, query_throughput_starts(pma, len, zipf_starts));
          tp_r = std::max(tp_r,
                          query_throughput_starts(pma, len, recent_starts));
          tp_po = std::max(tp_po, per_op_ranges(pma, ranges));
          tp_b = std::max(tp_b, batch_ranges(pma, ranges));
        } else {
          tp_z = std::max(tp_z,
                          query_throughput_starts(cpma_s, len, zipf_starts));
          tp_r = std::max(tp_r,
                          query_throughput_starts(cpma_s, len, recent_starts));
          tp_po = std::max(tp_po, per_op_ranges(cpma_s, ranges));
          tp_b = std::max(tp_b, batch_ranges(cpma_s, ranges));
        }
      }
      emit(name, len, "zipf", "per_op", tp_z);
      emit(name, len, "recent", "per_op", tp_r);
      emit(name, len, "uniform", "ranges_per_op", tp_po);
      emit(name, len, "uniform", "ranges_batch", tp_b);
    }

    if (!trees_on || !pma_on || !cpma_on) continue;
    table.cell_u64(len);
    table.cell_u64(queries);
    table.cell_sci(tp_pt);
    table.cell_sci(tp_up);
    table.cell_sci(tp_p);
    table.cell_ratio(tp_p / tp_pt);
    table.cell_sci(tp_cp);
    table.cell_sci(tp_c);
    table.cell_ratio(tp_c / tp_cp);
    table.cell_ratio(tp_c / tp_p);
    table.end_row();
  }
  return 0;
}
