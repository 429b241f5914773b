// Table 6: bytes per element for U-PaC, PMA, C-PaC, CPMA (and P-trees' fixed
// 32 B/element) as the number of elements grows, plus PMA and CPMA rows on a
// dense-run distribution.
//
// Expected shape (paper): PMA ~10-12 B/elt; CPMA ~3-5 B/elt (>=2x smaller);
// CPMA/C-PaC ~1 (similar sizes); compression improves with n because key
// spacing shrinks. On dense_runs nearly every delta is a 1-byte code, so
// CPMA sits near its floor of ~1 byte/key plus slack.
//
// Output: one RESULT line per (dist, struct, n) — machine-parsed by
// scripts/run_bench.py into BENCH_space.json (bytes_per_key is compared
// lower-is-better by compare_bench.py).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/pactree.hpp"
#include "baselines/ptree.hpp"
#include "bench_common.hpp"
#include "pma/cpma.hpp"
#include "util/table.hpp"

namespace {

std::vector<uint64_t> dense_run_keys(uint64_t n, uint64_t seed) {
  // Clustered consecutive runs (256-1024 keys) at random 44-bit bases.
  std::vector<uint64_t> keys;
  keys.reserve(n);
  cpma::util::Rng r(seed);
  while (keys.size() < n) {
    uint64_t base = 1 + (r.next() >> 20);
    uint64_t len = std::min<uint64_t>(256 + r.next() % 768, n - keys.size());
    for (uint64_t i = 0; i < len; ++i) keys.push_back(base + i);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

template <typename S>
double bytes_per_element(const std::vector<uint64_t>& keys) {
  S s;
  std::vector<uint64_t> copy(keys);
  s.insert_batch(copy.data(), copy.size());
  return static_cast<double>(s.get_size()) / static_cast<double>(s.size());
}

void report(const std::string& dist, const std::string& st, uint64_t n,
            double bpk) {
  std::printf("RESULT bench=space dist=%s struct=%s n=%llu bytes_per_key=%.3f\n",
              dist.c_str(), st.c_str(), (unsigned long long)n, bpk);
}

}  // namespace

int main() {
  bench::print_config_line("Table 6: bytes per element");
  std::vector<uint64_t> sizes{100'000, 1'000'000};
  if (cpma::util::bench_scale() >= 10) sizes.push_back(10'000'000);
  if (cpma::util::bench_scale() >= 100) sizes.push_back(100'000'000);

  cpma::util::Table table({"n", "P-tree", "U-PaC", "PMA", "PMA/U-PaC",
                           "C-PaC", "CPMA", "CPMA/C-PaC", "CPMA/PMA"});
  table.print_header();
  for (uint64_t n : sizes) {
    auto keys = bench::uniform_keys(n, 51);
    double ptree = bytes_per_element<cpma::baselines::PTree>(keys);
    double upac = bytes_per_element<cpma::baselines::UPacTree>(keys);
    double pma = bytes_per_element<cpma::PMA>(keys);
    double cpac = bytes_per_element<cpma::baselines::CPacTree>(keys);
    double cc = bytes_per_element<cpma::CPMA>(keys);
    table.cell_u64(n);
    table.cell_ratio(ptree);
    table.cell_ratio(upac);
    table.cell_ratio(pma);
    table.cell_ratio(pma / upac);
    table.cell_ratio(cpac);
    table.cell_ratio(cc);
    table.cell_ratio(cc / cpac);
    table.cell_ratio(cc / pma);
    table.end_row();
    report("uniform", "ptree", n, ptree);
    report("uniform", "upac", n, upac);
    report("uniform", "pma", n, pma);
    report("uniform", "cpac", n, cpac);
    report("uniform", "cpma", n, cc);
  }

  // Dense-run rows (engines only; the baselines' uniform rows above anchor
  // the cross-structure comparison).
  for (uint64_t n : sizes) {
    auto keys = dense_run_keys(n, 53);
    double pma = bytes_per_element<cpma::PMA>(keys);
    double cc = bytes_per_element<cpma::CPMA>(keys);
    report("dense_runs", "pma", keys.size(), pma);
    report("dense_runs", "cpma", keys.size(), cc);
  }
  return 0;
}
