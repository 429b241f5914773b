// batch_set: the CPMA engine driven directly (the paper's Fig 1/2 and
// Table 5 protocol). Uniform 40-bit keys; the store is several times the
// LLC. Phases: preload (set-up), then kSetRounds rounds of batched insert,
// batched delete, sorted has_batch requests, serial has/successor and
// parallel map_range_length.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "keys.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/sort.hpp"
#include "pma/cpma.hpp"

namespace perfbench {

namespace {

constexpr uint64_t kBatch = 10'000;     // write request size
constexpr uint64_t kLookupBatch = 256;  // keys per has_batch request
constexpr uint64_t kRangeLen = 1000;    // keys per range query
constexpr int kSetupReps = 3;
// Rounds of (insert slice, delete slice, one slice of each read phase).
constexpr uint64_t kSetRounds = 30;

// Nominal rates of this machine class (4 vCPU), used only to size each
// phase's fixed amount of work from --seconds so that the same seed always
// does the same work.
constexpr double kLookupRequestsPerS = 4500;
constexpr double kPointPairsPerS = 450'000;
constexpr double kRangesPerS = 300'000;

uint64_t at_least(double v, uint64_t floor) {
  return std::max<uint64_t>(floor, static_cast<uint64_t>(v));
}

// Wrapping sum of key(i) over [lo, hi).
uint64_t key_sum(const KeyGen& gen, uint64_t lo, uint64_t hi) {
  return cpma::par::parallel_sum<uint64_t>(lo, hi,
                                           [&](uint64_t i) { return gen(i); });
}

}  // namespace

void run_batch_set(const Options& opt, Report& rep) {
  using Engine = cpma::CPMA;
  const double sc = opt.scale;
  // Key ids: [0, n0) preload, [n0, n0 + ni) insert stream, [0, nd) deleted
  // (all present when the delete phase runs), [n0 + ni, ...) never stored.
  const uint64_t n0 = at_least(60e6 * sc, 20'000);
  const uint64_t ni = at_least(10e6 * sc, 10 * kBatch);
  const uint64_t nd = at_least(5e6 * sc, 5 * kBatch);
  const uint64_t live_lo = nd, live_hi = n0 + ni;
  const double s = opt.seconds;
  const uint64_t lookup_reqs = at_least(kLookupRequestsPerS * 0.1 * s, 1000);
  const uint64_t point_ops = at_least(kPointPairsPerS * 0.15 * s, 9000);
  const uint64_t ranges = at_least(kRangesPerS * 0.06 * s, 900);
  const KeyGen gen(opt.seed, 40);

  rep.config("workload", "batch_set");
  rep.config("engine", "cpma::CPMA");
  rep.config("keys", "uniform40");
  rep.config("preload_keys", static_cast<double>(n0));
  rep.config("insert_keys", static_cast<double>(ni));
  rep.config("delete_keys", static_cast<double>(nd));
  rep.config("write_batch", static_cast<double>(kBatch));
  rep.config("lookup_requests", static_cast<double>(lookup_reqs));
  rep.config("lookup_batch", static_cast<double>(kLookupBatch));
  rep.config("point_ops", static_cast<double>(point_ops));
  rep.config("ranges", static_cast<double>(ranges));
  rep.config("range_len", static_cast<double>(kRangeLen));
  rep.config("client_threads", 1.0);
  PhaseLog log;

  // ---- inputs (untimed) ----------------------------------------------------
  std::vector<uint64_t> inserts(ni), deletes(nd);
  cpma::par::parallel_for(0, ni, [&](uint64_t i) { inserts[i] = gen(n0 + i); });
  cpma::par::parallel_for(0, nd, [&](uint64_t i) { deletes[i] = gen(i); });

  log.mark("inputs");
  // ---- set-up: preload through the batch API -------------------------------
  std::unique_ptr<Engine> store;
  std::vector<uint64_t> scratch;
  const double setup_s = median_setup_seconds(
      kSetupReps,
      [&] {
        store.reset();
        // Regenerated each time: insert_batch sorts its input in place.
        scratch.resize(n0);
        cpma::par::parallel_for(0, n0,
                                [&](uint64_t i) { scratch[i] = gen(i); });
      },
      [&] {
        Span sp("engine.setup");
        store = std::make_unique<Engine>();
        store->insert_batch(scratch.data(), scratch.size(), /*sorted=*/false);
      });
  std::vector<uint64_t>().swap(scratch);
  Engine& e = *store;
  rep.check(e.size() == n0, "size after preload");
  rep.check(e.sum() == key_sum(gen, 0, n0), "key-sum after preload");
  const double bytes_per_key =
      static_cast<double>(e.total_bytes()) / static_cast<double>(e.size());
  LayerTimes lt;
  fill_space(lt, 1, [&](uint64_t) -> const Engine& { return e; });
  rep.config("store_bytes", static_cast<double>(e.total_bytes()));
  rep.config("leaf_bytes", static_cast<double>(e.leaf_bytes()));
  e.reset_batch_phase_times();

  log.mark("setup");
  // ---- read inputs: every query (untimed) ------------------------------------
  // Half of all point queries hit ids that are stored at some time, half
  // miss (ids never stored). A key is live after round r when its id lies
  // in [deleted[r], n0 + inserted[r]).
  Rng rng(opt.seed ^ 0x6c6f6f6b7570ull);
  auto probe_key = [&] {
    return (rng.next() & 1) ? gen(rng.below(n0 + ni))
                            : gen(live_hi + rng.below(live_hi));
  };
  std::vector<uint64_t> queries(lookup_reqs * kLookupBatch);
  for (uint64_t r = 0; r < lookup_reqs; ++r) {
    uint64_t* q = &queries[r * kLookupBatch];
    for (uint64_t j = 0; j < kLookupBatch; ++j) q[j] = probe_key();
    std::sort(q, q + kLookupBatch);
  }
  std::vector<uint64_t> probes(point_ops);
  for (uint64_t& k : probes) k = probe_key();
  std::vector<uint64_t> starts(ranges);
  for (uint64_t& k : starts) k = rng.next() & ((uint64_t{1} << 40) - 1);
  log.mark("read_inputs");

  // ---- timed rounds --------------------------------------------------------
  // Round r: insert slice r, delete slice r (batches of kBatch), then one
  // slice of each read phase: sorted has_batch requests (one request =
  // kLookupBatch keys), serial per-op has + successor in arrival order,
  // parallel map_range_length. Interleaving spreads every metric over the
  // whole run.
  std::vector<double> write_ns, insert_rates, delete_rates;
  std::vector<uint64_t> inserted(kSetRounds), deleted(kSetRounds);
  uint64_t round_bad = 0;
  auto write_slice = [&](std::vector<uint64_t>& keys, bool insert,
                         uint64_t round, const char* span) {
    const uint64_t batches = (keys.size() + kBatch - 1) / kBatch;
    const auto [b_lo, b_hi] = slice_of(batches, round, kSetRounds);
    uint64_t slice_keys = 0;
    const uint64_t t0 = now_ns();
    for (uint64_t b = b_lo; b < b_hi; ++b) {
      const uint64_t off = b * kBatch;
      const uint64_t n = std::min(kBatch, keys.size() - off);
      Span sp(span);
      const uint64_t b0 = now_ns();
      const uint64_t done = insert ? e.insert_batch(&keys[off], n)
                                   : e.remove_batch(&keys[off], n);
      write_ns.push_back(static_cast<double>(now_ns() - b0));
      slice_keys += n;
      rep.attempt(n);
      if (done != n) rep.fail(n - done);
    }
    (insert ? insert_rates : delete_rates)
        .push_back(static_cast<double>(slice_keys) / seconds_since(t0));
    return std::min<uint64_t>(keys.size(), b_hi * kBatch);
  };

  std::vector<double> read_ns, lookup_rates, point_rates, range_rates;
  std::vector<uint64_t> bits((kLookupBatch + 63) / 64);
  std::vector<uint64_t> got_hits(lookup_reqs), got_sum(ranges), got_len(ranges);
  std::vector<uint64_t> got_has(point_ops), got_succ(point_ops);
  for (uint64_t round = 0; round < kSetRounds; ++round) {
    inserted[round] = write_slice(inserts, true, round, "engine.insert_batch");
    deleted[round] = write_slice(deletes, false, round, "engine.remove_batch");
    // The key-sum scans the whole store, so it is checked every fifth round.
    round_bad += e.size() != n0 + inserted[round] - deleted[round];
    if (round % 5 == 4) {
      round_bad += e.sum() != key_sum(gen, deleted[round], n0 + inserted[round]);
    }
    {
      const auto [lo, hi] = slice_of(lookup_reqs, round, kSetRounds);
      const uint64_t t0 = now_ns();
      for (uint64_t r = lo; r < hi; ++r) {
        std::fill(bits.begin(), bits.end(), 0);
        const uint64_t b0 = now_ns();
        {
          Span sp("engine.has_batch");
          e.has_batch(&queries[r * kLookupBatch], kLookupBatch, bits.data());
        }
        read_ns.push_back(static_cast<double>(now_ns() - b0));
        for (uint64_t w : bits) got_hits[r] += static_cast<uint64_t>(std::popcount(w));
      }
      lookup_rates.push_back(static_cast<double>((hi - lo) * kLookupBatch) /
                             seconds_since(t0));
    }
    {
      const auto [lo, hi] = slice_of(point_ops, round, kSetRounds);
      Span sp("engine.point_reads");
      const uint64_t t0 = now_ns();
      for (uint64_t i = lo; i < hi; ++i) {
        got_has[i] = e.has(probes[i]);
        got_succ[i] = e.successor(probes[i]).value_or(0);
      }
      point_rates.push_back(static_cast<double>(2 * (hi - lo)) /
                            seconds_since(t0));
    }
    {
      const auto [lo, hi] = slice_of(ranges, round, kSetRounds);
      Span sp("engine.map_range_length");
      const uint64_t t0 = now_ns();
      cpma::par::parallel_for(lo, hi, [&](uint64_t i) {
        uint64_t sum = 0;
        got_len[i] = e.map_range_length([&](uint64_t k) { sum += k; },
                                        starts[i], kRangeLen);
        got_sum[i] = sum;
      }, 1);
      const double dt = seconds_since(t0);
      uint64_t keys = 0;
      for (uint64_t i = lo; i < hi; ++i) keys += got_len[i];
      range_rates.push_back(static_cast<double>(keys) / dt);
    }
  }
  const cpma::pma::BatchPhaseTimes pt = e.batch_phase_times();
  std::vector<uint64_t>().swap(inserts);
  std::vector<uint64_t>().swap(deletes);
  log.mark("rounds");

  rep.check(round_bad == 0, "size after every round, key-sum every fifth");
  rep.check(e.size() == live_hi - live_lo, "size after all writes");
  std::string err;
  rep.check(e.check_invariants(&err), "check_invariants: " + err);

  // ---- read checks against the model ---------------------------------------
  // Sorted keys of every id ever stored; round r's reads see those whose id
  // is live after round r.
  std::vector<uint64_t> model(n0 + ni);
  cpma::par::parallel_for(0, model.size(),
                          [&](uint64_t i) { model[i] = gen(i); });
  cpma::par::parallel_sort(model);
  auto round_of = [](uint64_t i, uint64_t n) {
    uint64_t r = 0;
    while (i >= slice_of(n, r, kSetRounds).second) ++r;
    return r;
  };
  auto live = [&](uint64_t k, uint64_t round) {
    const uint64_t id = gen.id_of(k);
    return id >= deleted[round] && id < n0 + inserted[round];
  };
  // The first live key >= k in round `round`.
  auto next_live = [&](uint64_t k, uint64_t round) {
    auto it = std::lower_bound(model.begin(), model.end(), k);
    while (it != model.end() && !live(*it, round)) ++it;
    return it;
  };
  uint64_t hits = 0;
  for (uint64_t h : got_hits) hits += h;
  const uint64_t lookup_bad = cpma::par::parallel_sum<uint64_t>(
      0, lookup_reqs, [&](uint64_t r) {
        const uint64_t round = round_of(r, lookup_reqs);
        uint64_t want = 0;
        for (uint64_t j = 0; j < kLookupBatch; ++j) {
          want += live(queries[r * kLookupBatch + j], round);
        }
        return uint64_t{want != got_hits[r]};
      });
  rep.attempt(queries.size());
  rep.check(lookup_bad == 0, "has_batch hit counts");
  rep.config("lookup_hits", static_cast<double>(hits));
  const uint64_t point_bad = cpma::par::parallel_sum<uint64_t>(
      0, point_ops, [&](uint64_t i) {
        const uint64_t round = round_of(i, point_ops);
        const auto it = next_live(probes[i], round);
        return uint64_t{got_has[i] != uint64_t{live(probes[i], round)} ||
                        got_succ[i] != (it == model.end() ? 0 : *it)};
      });
  rep.attempt(2 * point_ops);
  rep.check(point_bad == 0, "per-op has and successor");
  rep.attempt(ranges);
  const uint64_t range_bad = cpma::par::parallel_sum<uint64_t>(
      0, ranges, [&](uint64_t i) {
        const uint64_t round = round_of(i, ranges);
        uint64_t len = 0, sum = 0;
        for (auto it = next_live(starts[i], round);
             it != model.end() && len < kRangeLen; ++it) {
          if (live(*it, round)) {
            ++len;
            sum += *it;
          }
        }
        return uint64_t{len != got_len[i] || sum != got_sum[i]};
      });
  rep.check(range_bad == 0, "range key-sums (" + std::to_string(range_bad) +
                                " of " + std::to_string(ranges) + " wrong)");

  log.mark("read_checks");
  // ---- metrics --------------------------------------------------------------
  rep.metric("setup_s", setup_s, "s");
  rep.metric("insert_keys_per_s", fast_rate(insert_rates), "1/s");
  rep.metric("delete_keys_per_s", fast_rate(delete_rates), "1/s");
  rep.metric("lookup_keys_per_s", fast_rate(lookup_rates), "1/s");
  rep.metric("point_reads_per_s", fast_rate(point_rates), "1/s");
  rep.metric("range_keys_per_s", fast_rate(range_rates), "1/s");
  report_latency(rep, "read", read_ns, 1e3, "us");
  report_latency(rep, "write", write_ns, 1e6, "ms");
  rep.metric("bytes_per_key", bytes_per_key, "B");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");

  // ---- per-layer ----------------------------------------------------------
  const uint64_t probe_n = std::min<uint64_t>(model.size(), 4'000'000);
  lt.codec = probe_codec(model.data(), probe_n, e.leaf_bytes());
  rep.check(lt.codec.keys_per_pass == probe_n, "codec probe decoded every key");
  lt.engine = pt;
  lt.written_keys = static_cast<double>(ni + nd);
  lt.lookup_ns_per_key = tracer().total_ns("engine.has_batch") /
                         static_cast<double>(queries.size());
  report_layers(rep, lt);
  log.mark("layers");
}

}  // namespace perfbench
