// Point-query throughput: single-key has/successor and the amortized batch
// forms (has_batch / successor_batch), per structure and distribution.
//
// The per-op rows are the read-side twin of bench_micro_ops' point rows and
// the gauge of the engine's one descent kernel (the Eytzinger head-index
// mirror).
//
// The batch rows time ONE has_batch/successor_batch call over a sorted query
// batch against a parallel per-op loop over the same batch — both use the
// whole machine, so the ratio is pure amortization (shared batch routing +
// one decode per touched leaf), not parallelism.
//
// Scenario rows beyond uniform:
//   dist=zipf    hot-key lookups (YCSB-style alpha=0.99 probes against a
//                structure that also holds a zipf sample: the hot keys hit)
//   dist=recent  monotone-append tail: structure carries an appended suffix
//                above the uniform base; successor probes land in it — the
//                "query the newest data" pattern of streaming ingest.
//
// RESULT lines feed scripts/run_bench.py; ops_per_s is compared by
// scripts/compare_bench.py against the tracked BENCH_point_query.json.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "pma/cpma.hpp"
#include "pma/settings.hpp"

namespace {

uint64_t query_n() {
  return cpma::util::env_u64("CPMA_BENCH_QUERY_N",
                             cpma::util::scaled(1'000'000));
}

// SERIAL per-op loop; returns ops/second. Single-threaded on purpose: these
// rows measure per-lookup latency (the serving point-read path and the
// descent kernel's single-core cache behavior). A parallel loop here would
// be DRAM-bandwidth-bound and bury the descent difference; the machine-wide
// form is what the mode=batch rows measure. `sink` defeats dead-code
// elimination.
template <typename S>
double per_op_has(const S& s, const std::vector<uint64_t>& q) {
  uint64_t sink = 0;
  cpma::util::Timer t;
  for (uint64_t i = 0; i < q.size(); ++i) sink += s.has(q[i]);
  double secs = t.elapsed_seconds();
  volatile uint64_t keep = sink;
  (void)keep;
  return static_cast<double>(q.size()) / secs;
}

template <typename S>
double per_op_successor(const S& s, const std::vector<uint64_t>& q) {
  uint64_t sink = 0;
  cpma::util::Timer t;
  for (uint64_t i = 0; i < q.size(); ++i) {
    auto v = s.successor(q[i]);
    if (v) sink += *v;
  }
  double secs = t.elapsed_seconds();
  volatile uint64_t keep = sink;
  (void)keep;
  return static_cast<double>(q.size()) / secs;
}

// One call per `chunk` keys; chunk == q.size() is the single-call form,
// chunk == 1 degenerates to the per-op API cost.
template <typename S>
double batch_has(const S& s, const std::vector<uint64_t>& q, uint64_t chunk) {
  std::vector<uint64_t> bits((q.size() + 63) / 64, 0);
  cpma::util::Timer t;
  for (uint64_t off = 0; off < q.size(); off += chunk) {
    uint64_t len = std::min<uint64_t>(chunk, q.size() - off);
    s.has_batch(q.data() + off, len, bits.data(), off);
  }
  return static_cast<double>(q.size()) / t.elapsed_seconds();
}

template <typename S>
double batch_successor(const S& s, const std::vector<uint64_t>& q,
                       uint64_t chunk) {
  std::vector<uint64_t> out(q.size());
  std::vector<uint64_t> found((q.size() + 63) / 64, 0);
  cpma::util::Timer t;
  for (uint64_t off = 0; off < q.size(); off += chunk) {
    uint64_t len = std::min<uint64_t>(chunk, q.size() - off);
    s.successor_batch(q.data() + off, len, out.data() + off, found.data(),
                      off);
  }
  return static_cast<double>(q.size()) / t.elapsed_seconds();
}

void emit(const char* name, const char* op, const char* dist, const char* mode,
          uint64_t batch, double tp, uint64_t shards = 0) {
  std::printf("RESULT bench=point_query struct=%s ", name);
  if (shards > 0) std::printf("shards=%llu ", (unsigned long long)shards);
  std::printf("op=%s dist=%s mode=%s ", op, dist, mode);
  if (batch > 0) std::printf("batch=%llu ", (unsigned long long)batch);
  std::printf("ops_per_s=%.6e\n", tp);
}

// Each distribution in two orders: the per-op rows probe in arrival (random)
// order — a sorted probe stream would hand the per-op descent near-perfect
// branch and cache locality no real point-lookup workload has — while the
// batch APIs take the sorted form their contract requires (the sort is the
// client's cost of admission to the amortized path, done once off-clock
// here, exactly like the routed insert path's presorted batches).
struct ProbeSet {
  std::vector<uint64_t> raw;
  std::vector<uint64_t> sorted;
};

struct QuerySets {
  ProbeSet uniform;  // 40-bit uniform probes
  ProbeSet zipf;     // zipf probes (hot keys repeat)
  ProbeSet recent;   // probes inside the appended monotone tail
};

// All structures hold the same key set: uniform base + zipf sample + a
// monotone tail appended above the 40-bit space.
template <typename S, typename Make>
void run_struct(const char* name, const std::vector<uint64_t>& content,
                const QuerySets& qs, Make make, uint64_t shards = 0) {
  S s = make();
  std::vector<uint64_t> b = content;
  s.insert_batch(b.data(), b.size());

  struct Dist {
    const char* name;
    const ProbeSet* q;
    bool successor_rows;  // recent is the successor scenario; zipf the has one
    bool has_rows;
  };
  const Dist dists[] = {
      {"uniform", &qs.uniform, true, true},
      {"zipf", &qs.zipf, false, true},
      {"recent", &qs.recent, true, false},
  };
  const uint64_t big = 10'000;
  for (const Dist& d : dists) {
    double po_has = 0, b1_has = 0, bn_has = 0;
    double po_suc = 0, bn_suc = 0;
    for (int t = 0; t < bench::trials(); ++t) {
      if (d.has_rows) {
        po_has = std::max(po_has, per_op_has(s, d.q->raw));
        bn_has = std::max(bn_has, batch_has(s, d.q->sorted, big));
        if (d.q == &qs.uniform) {
          b1_has = std::max(b1_has, batch_has(s, d.q->sorted, 1));
        }
      }
      if (d.successor_rows) {
        po_suc = std::max(po_suc, per_op_successor(s, d.q->raw));
        bn_suc = std::max(bn_suc, batch_successor(s, d.q->sorted, big));
      }
    }
    if (d.has_rows) {
      emit(name, "has", d.name, "per_op", 0, po_has, shards);
      emit(name, "has", d.name, "batch", big, bn_has, shards);
      if (d.q == &qs.uniform) {
        emit(name, "has", d.name, "batch", 1, b1_has, shards);
      }
    }
    if (d.successor_rows) {
      emit(name, "successor", d.name, "per_op", 0, po_suc, shards);
      emit(name, "successor", d.name, "batch", big, bn_suc, shards);
    }
  }
}

}  // namespace

int main() {
  bench::print_config_line("point-query throughput (has/successor, batched)");
  const uint64_t qn = query_n();

  // Content: uniform base + zipf sample (so zipf probes hit their hot keys)
  // + a monotone tail of base_n/8 keys appended above the 40-bit space.
  std::vector<uint64_t> content = bench::uniform_keys(bench::base_n(), 11);
  {
    std::vector<uint64_t> z = bench::zipf_keys(bench::base_n() / 4, 13);
    content.insert(content.end(), z.begin(), z.end());
    const uint64_t tail_n = bench::base_n() / 8;
    const uint64_t tail_base = uint64_t{1} << 40;
    for (uint64_t i = 0; i < tail_n; ++i) {
      content.push_back(tail_base + 3 * i);  // gaps: successor has work to do
    }
  }

  QuerySets qs;
  qs.uniform.raw = bench::uniform_keys(qn, 17);
  qs.zipf.raw = bench::zipf_keys(qn, 19);
  {
    const uint64_t tail_n = bench::base_n() / 8;
    const uint64_t tail_base = uint64_t{1} << 40;
    qs.recent.raw.resize(qn);
    for (uint64_t i = 0; i < qn; ++i) {
      qs.recent.raw[i] =
          tail_base + cpma::util::hash64(0x5eed + i) % (3 * tail_n);
    }
  }
  for (ProbeSet* p : {&qs.uniform, &qs.zipf, &qs.recent}) {
    p->sorted = p->raw;
    std::sort(p->sorted.begin(), p->sorted.end());
  }

  if (bench::struct_enabled("pma")) {
    run_struct<cpma::PMA>("pma", content, qs, [] { return cpma::PMA{}; });
  }
  if (bench::struct_enabled("cpma")) {
    run_struct<cpma::CPMA>("cpma", content, qs, [] { return cpma::CPMA{}; });
  }
  if (bench::struct_enabled("sharded_cpma")) {
    for (uint64_t sc : bench::shard_counts()) {
      cpma::pma::ShardedSettings st;
      st.num_shards = sc;
      run_struct<cpma::SCPMA>("sharded_cpma", content, qs,
                              [&] { return cpma::SCPMA(st); }, sc);
    }
  }
  return 0;
}
