// graph_stream: StreamingGraphCPMA (the paper's Fig 9/10 application) on a
// symmetrized RMAT graph. Phases: edge-batch ingest, edge-batch removal
// plus rebuild_connectivity(), reads on a pinned snapshot (has_edges
// batches, per-op has_edge/successor, parallel ranges), then analytics
// cycles (prepare + BFS + PageRank + CC) with ingest idle.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/streaming.hpp"
#include "keys.hpp"
#include "parallel/reduce.hpp"
#include "parallel/seq_ops.hpp"
#include "parallel/sort.hpp"

namespace perfbench {

namespace {

using Graph = cpma::graph::StreamingGraphCPMA;
using cpma::graph::edge_key;
using cpma::graph::vertex_t;

constexpr uint64_t kBatch = 10'000;      // edges per removal request
constexpr uint64_t kLookupBatch = 256;   // edge keys per has_edges request
constexpr uint64_t kRangeLen = 1000;
constexpr int kSetupReps = 5;
constexpr int kCycles = 3;
// Read phases run as kRounds interleaved rounds (one slice of every read
// phase per round) and write phases as kRounds consecutive slices; a rate
// metric is the trimmed mean over its slices, so a burst of machine noise
// moves one slice, not the metric.
constexpr uint64_t kRounds = 15;

// Nominal rates (4 vCPU), used only to size fixed work from --seconds.
constexpr double kLookupReqPerS = 9000;
constexpr double kPointPairsPerS = 500'000;
constexpr double kRangesPerS = 100'000;

cpma::serve::ServingSettings settings() {
  cpma::serve::ServingSettings cfg;
  cfg.sharded.num_shards = 4;
  // Publish only on flush(): no cost-budget or staleness trigger, so the
  // publish count is the number of flushes.
  cfg.publish_budget = 0;
  cfg.publish_eager = false;
  cfg.max_staleness_ns = std::numeric_limits<uint64_t>::max();
  cfg.max_combine_delay_ns = std::numeric_limits<uint64_t>::max();
  cfg.queue_cap = 0;
  return cfg;
}

// Symmetric edge batches of `batch` keys from an RMAT stream: each directed
// draw (u, v), u != v, contributes (u, v) and (v, u).
std::vector<std::vector<uint64_t>> rmat_batches(uint32_t scale, uint64_t batches,
                                                uint64_t batch, uint64_t seed) {
  const std::vector<uint64_t> draws =
      cpma::graph::rmat_edges(scale, batches * batch, seed);
  std::vector<std::vector<uint64_t>> out(batches);
  uint64_t d = 0;
  for (auto& b : out) {
    while (b.size() < batch && d < draws.size()) {
      const uint64_t e = draws[d++];
      const vertex_t u = cpma::graph::edge_src(e), v = cpma::graph::edge_dst(e);
      if (u == v) continue;
      b.push_back(edge_key(u, v));
      b.push_back(edge_key(v, u));
    }
  }
  return out;
}

uint64_t reached(const std::vector<int32_t>& depth) {
  return static_cast<uint64_t>(
      std::count_if(depth.begin(), depth.end(), [](int32_t d) { return d >= 0; }));
}

uint64_t components(const std::vector<vertex_t>& label) {
  uint64_t c = 0;
  for (uint64_t v = 0; v < label.size(); ++v) c += label[v] == v;
  return c;
}

}  // namespace

void run_graph_stream(const Options& opt, Report& rep) {
  PhaseLog log;
  const double s = opt.seconds;
  const uint32_t scale = std::max<uint32_t>(
      10, static_cast<uint32_t>(20 + std::floor(std::log2(opt.scale))));
  const vertex_t n = vertex_t{1} << scale;
  const uint64_t preload_draws = static_cast<uint64_t>(n) * 12;
  const uint64_t insert_batches = std::max<uint64_t>(10, 700 * opt.scale);
  const uint64_t remove_batches = std::max<uint64_t>(5, 300 * opt.scale);
  const uint64_t lookup_reqs = std::max<uint64_t>(
      1000, static_cast<uint64_t>(kLookupReqPerS * 0.1 * s));
  const uint64_t point_pairs = std::max<uint64_t>(
      9000, static_cast<uint64_t>(kPointPairsPerS * 0.1 * s));
  const uint64_t ranges = std::max<uint64_t>(
      900, static_cast<uint64_t>(kRangesPerS * 0.1 * s));
  const cpma::serve::ServingSettings cfg = settings();

  rep.config("workload", "graph_stream");
  rep.config("store", "cpma::graph::StreamingGraphCPMA");
  rep.config("graph", "rmat_symmetrized");
  rep.config("rmat_scale", static_cast<double>(scale));
  rep.config("shards", static_cast<double>(cfg.sharded.num_shards));
  rep.config("publish", "on_flush_only");
  rep.config("client_threads", 1.0);
  rep.config("insert_batch", static_cast<double>(kBatch / 2));
  rep.config("remove_batch", static_cast<double>(kBatch));
  rep.config("analytics_cycles", static_cast<double>(kCycles));

  // ---- inputs (untimed) ------------------------------------------------------
  const std::vector<uint64_t> base = cpma::graph::symmetrize(
      cpma::graph::rmat_edges(scale, preload_draws, opt.seed));
  std::vector<std::vector<uint64_t>> ins =
      rmat_batches(scale, insert_batches, kBatch / 2, opt.seed + 1);
  // Removals: symmetric pairs of preloaded edges (u < v), in random order.
  Rng rng(opt.seed ^ 0x6772617068ull);
  std::vector<std::vector<uint64_t>> rem(remove_batches);
  {
    std::vector<uint64_t> fwd;
    for (uint64_t e : base) {
      if (cpma::graph::edge_src(e) < cpma::graph::edge_dst(e)) fwd.push_back(e);
    }
    for (uint64_t i = fwd.size(); i > 1; --i) std::swap(fwd[i - 1], fwd[rng.below(i)]);
    uint64_t f = 0;
    for (auto& b : rem) {
      for (; b.size() < kBatch && f < fwd.size(); ++f) {
        b.push_back(fwd[f]);
        b.push_back(edge_key(cpma::graph::edge_dst(fwd[f]),
                             cpma::graph::edge_src(fwd[f])));
      }
    }
  }
  // Model: (base ∪ inserted) \ removed.
  std::vector<uint64_t> model;
  {
    std::vector<uint64_t> added;
    for (const auto& b : ins) added.insert(added.end(), b.begin(), b.end());
    cpma::par::parallel_sort(added);
    added.erase(std::unique(added.begin(), added.end()), added.end());
    std::vector<uint64_t> removed;
    for (const auto& b : rem) removed.insert(removed.end(), b.begin(), b.end());
    cpma::par::parallel_sort(removed);
    std::vector<uint64_t> u;
    std::set_union(base.begin(), base.end(), added.begin(), added.end(),
                   std::back_inserter(u));
    std::set_difference(u.begin(), u.end(), removed.begin(), removed.end(),
                        std::back_inserter(model));
  }
  auto live = [&](uint64_t k) {
    return std::binary_search(model.begin(), model.end(), k);
  };
  // Query i draws from its own stream, so generation runs in parallel and
  // still depends on the seed alone. Misses are random pairs checked absent.
  auto random_edge = [&](Rng& r, bool hit) {
    if (hit) return model[r.below(model.size())];
    uint64_t k;
    do {
      k = edge_key(static_cast<vertex_t>(r.below(n)),
                   static_cast<vertex_t>(r.below(n)));
    } while (live(k));
    return k;
  };
  const uint64_t qseed = mix64(opt.seed ^ 0x7175657279ull);
  std::vector<uint64_t> queries(lookup_reqs * kLookupBatch);
  cpma::par::parallel_for(0, lookup_reqs, [&](uint64_t r) {
    Rng qr(mix64(qseed + r));
    uint64_t* q = &queries[r * kLookupBatch];
    for (uint64_t j = 0; j < kLookupBatch; ++j) q[j] = random_edge(qr, j & 1);
    std::sort(q, q + kLookupBatch);
  }, 1);
  std::vector<uint64_t> probes(point_pairs), starts(ranges);
  cpma::par::parallel_for(0, point_pairs, [&](uint64_t i) {
    Rng pr(mix64(qseed ^ (i << 1)));
    probes[i] = random_edge(pr, pr.next() & 1);
  });
  cpma::par::parallel_for(0, ranges, [&](uint64_t i) {
    Rng rr(mix64(qseed ^ ((i << 1) | 1)));
    starts[i] = random_edge(rr, false);
  });
  rep.config("preload_edges", static_cast<double>(base.size()));
  rep.config("final_edges", static_cast<double>(model.size()));
  log.mark("inputs");

  // ---- set-up: preload through the batch API ---------------------------------
  std::unique_ptr<Graph> g;
  std::vector<uint64_t> copy;
  const double setup_s = median_setup_seconds(
      kSetupReps,
      [&] {
        g.reset();
        copy = base;
      },
      [&] {
        Span sp("graph.setup");
        g = std::make_unique<Graph>(n, cfg);
        g->insert_edges(std::move(copy));
        g->flush();
      });
  const auto& store = g->serve().store();
  rep.check(g->num_edges() == base.size(), "edge count after preload");
  uint64_t total_bytes = 0;
  for (uint64_t i = 0; i < store.num_shards(); ++i) {
    total_bytes += store.shard(i).total_bytes();
  }
  const double bytes_per_key =
      static_cast<double>(total_bytes) / static_cast<double>(base.size());
  rep.config("store_bytes", static_cast<double>(total_bytes));
  LayerTimes lt;
  fill_space(lt, store.num_shards(),
             [&](uint64_t i) -> const auto& { return store.shard(i); });
  const StackSample s0 = sample_stack(g->serve());
  log.mark("setup");

  // ---- ingest, removal, connectivity rebuild ---------------------------------------
  std::vector<double> write_ns;
  uint64_t written = 0;
  auto write_phase = [&](std::vector<std::vector<uint64_t>>& batches,
                         bool insert, const char* span) {
    uint64_t edges = 0;
    std::vector<double> rates;
    for (uint64_t r = 0; r < kRounds; ++r) {
      const auto [lo, hi] = slice_of(batches.size(), r, kRounds);
      uint64_t slice_edges = 0;
      const uint64_t t0 = now_ns();
      for (uint64_t i = lo; i < hi; ++i) {
        slice_edges += batches[i].size();
        Span sp(span);
        const uint64_t b0 = now_ns();
        if (insert) {
          g->insert_edges(std::move(batches[i]));
        } else {
          g->remove_edges(std::move(batches[i]));
        }
        write_ns.push_back(static_cast<double>(now_ns() - b0));
      }
      rates.push_back(static_cast<double>(slice_edges) / seconds_since(t0));
      edges += slice_edges;
    }
    rep.attempt(edges);
    written += edges;
    return trimmed_mean(rates);
  };
  const double insert_rate = write_phase(ins, true, "graph.insert_edges");
  const double delete_rate = write_phase(rem, false, "graph.remove_edges");
  double uf_rebuild_s = 0;
  {
    Span sp("graph.uf_rebuild");
    const uint64_t t0 = now_ns();
    g->rebuild_connectivity();
    uf_rebuild_s = static_cast<double>(now_ns() - t0) * 1e-9;
  }
  g->flush();
  rep.check(g->num_edges() == model.size(), "edge count after writes");
  std::string err;
  rep.check(store.check_invariants(&err), "check_invariants: " + err);
  log.mark("writes");

  // ---- reads on one pinned snapshot, interleaved rounds ---------------------------
  // Sorted has_edges requests, per-op has_edge + successor, parallel
  // map_range_length ranges. The serial per-op slice of round r runs on
  // vCPU r mod n (see CpuRotation), so it does not sit on one busy vCPU for
  // the whole phase.
  Graph::Snapshot snap = g->snapshot();
  const CpuRotation cpu(1);
  std::vector<double> read_ns, lookup_rates, point_rates, range_rates;
  std::vector<uint64_t> got_sum(ranges), got_len(ranges);
  uint64_t hits = 0, point_hits = 0, succ_sum = 0;
  for (uint64_t round = 0; round < kRounds; ++round) {
    {
      const auto [lo, hi] = slice_of(lookup_reqs, round, kRounds);
      const uint64_t t0 = now_ns();
      for (uint64_t r = lo; r < hi; ++r) {
        const uint64_t b0 = now_ns();
        std::vector<uint64_t> bits;
        {
          Span sp("graph.has_edges");
          bits = snap.has_edges(&queries[r * kLookupBatch], kLookupBatch);
        }
        read_ns.push_back(static_cast<double>(now_ns() - b0));
        for (uint64_t w : bits) hits += std::popcount(w);
      }
      lookup_rates.push_back(static_cast<double>((hi - lo) * kLookupBatch) /
                             seconds_since(t0));
    }
    {
      const auto [lo, hi] = slice_of(point_pairs, round, kRounds);
      cpu.pin(round);
      Span sp("graph.point_reads");
      const uint64_t t0 = now_ns();
      for (uint64_t i = lo; i < hi; ++i) {
        const uint64_t k = probes[i];
        point_hits += snap.has_edge(cpma::graph::edge_src(k),
                                    cpma::graph::edge_dst(k));
        succ_sum += snap.pin().successor(k).value_or(0);
      }
      point_rates.push_back(static_cast<double>(2 * (hi - lo)) /
                            seconds_since(t0));
      cpu.unpin();
    }
    {
      const auto [lo, hi] = slice_of(ranges, round, kRounds);
      Span sp("graph.map_range_length");
      const uint64_t t0 = now_ns();
      cpma::par::parallel_for(lo, hi, [&](uint64_t i) {
        uint64_t sum = 0;
        got_len[i] = snap.pin().map_range_length([&](uint64_t k) { sum += k; },
                                                 starts[i], kRangeLen);
        got_sum[i] = sum;
      }, 1);
      const double dt = seconds_since(t0);
      uint64_t keys = 0;
      for (uint64_t i = lo; i < hi; ++i) keys += got_len[i];
      range_rates.push_back(static_cast<double>(keys) / dt);
    }
  }
  log.mark("reads");

  // ---- read checks against the model ----------------------------------------------
  rep.attempt(lookup_reqs * kLookupBatch + 2 * point_pairs + ranges);
  rep.check(hits == lookup_reqs * (kLookupBatch / 2), "has_edges hit count");
  rep.config("lookup_hits", static_cast<double>(hits));
  const uint64_t want_point = cpma::par::parallel_sum<uint64_t>(
      0, point_pairs, [&](uint64_t i) { return uint64_t{live(probes[i])}; });
  const uint64_t want_succ = cpma::par::parallel_sum<uint64_t>(
      0, point_pairs, [&](uint64_t i) {
        auto it = std::lower_bound(model.begin(), model.end(), probes[i]);
        return it == model.end() ? uint64_t{0} : *it;
      });
  rep.check(point_hits == want_point && succ_sum == want_succ,
            "per-op has_edge / successor against the model");
  const uint64_t range_bad = cpma::par::parallel_sum<uint64_t>(
      0, ranges, [&](uint64_t i) {
        auto it = std::lower_bound(model.begin(), model.end(), starts[i]);
        const uint64_t len = std::min<uint64_t>(kRangeLen, model.end() - it);
        uint64_t sum = 0;
        for (uint64_t j = 0; j < len; ++j) sum += it[j];
        return uint64_t{len != got_len[i] || sum != got_sum[i]};
      });
  rep.check(range_bad == 0, "range key-sums against the model");
  log.mark("read_checks");

  // ---- analytics cycles, ingest idle -------------------------------------------
  std::vector<double> cycle_s, prepare_s, bfs_s, pr_s, cc_s, age_ms;
  std::vector<int32_t> depth;
  std::vector<vertex_t> label;
  const vertex_t source = cpma::graph::edge_src(model[model.size() / 2]);
  for (int c = 0; c < kCycles; ++c) {
    Span cycle("graph.analytics");
    const uint64_t t0 = now_ns();
    const uint64_t pin = tracer().begin("serving.pin");
    Graph::Snapshot a = g->snapshot();
    tracer().end(pin);
    age_ms.push_back(static_cast<double>(a.age_ns()) * 1e-6);
    uint64_t t = now_ns();
    auto lap = [&](std::vector<double>& into) {
      const uint64_t now = now_ns();
      into.push_back(static_cast<double>(now - t) * 1e-9);
      t = now;
    };
    {
      Span sp("graph.prepare");
      a.prepare();
    }
    lap(prepare_s);
    {
      Span sp("graph.bfs");
      depth = cpma::graph::bfs(a, source);
    }
    lap(bfs_s);
    {
      Span sp("graph.pagerank");
      const std::vector<double> pr = cpma::graph::pagerank(a);
      rep.check(!pr.empty(), "pagerank output");
    }
    lap(pr_s);
    {
      Span sp("graph.cc");
      label = cpma::graph::connected_components(a);
    }
    lap(cc_s);
    cycle_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  log.mark("analytics");
  {
    cpma::graph::Csr csr(n, model);
    rep.check(reached(depth) == reached(cpma::graph::bfs(csr, source)),
              "BFS reach count against Csr");
    rep.check(components(label) ==
                  components(cpma::graph::connected_components(csr)),
              "CC component count against Csr");
    rep.config("bfs_reached", static_cast<double>(reached(depth)));
    rep.config("components", static_cast<double>(components(label)));
  }
  log.mark("graph_checks");

  // ---- metrics ---------------------------------------------------------------------
  rep.metric("setup_s", setup_s, "s");
  rep.metric("insert_keys_per_s", insert_rate, "1/s");
  rep.metric("delete_keys_per_s", delete_rate, "1/s");
  rep.metric("lookup_keys_per_s", trimmed_mean(lookup_rates), "1/s");
  rep.metric("point_reads_per_s", trimmed_mean(point_rates), "1/s");
  rep.metric("range_keys_per_s", trimmed_mean(range_rates), "1/s");
  report_latency(rep, "read", read_ns, 1e3, "us");
  report_latency(rep, "write", write_ns, 1e6, "ms");
  rep.metric("bytes_per_key", bytes_per_key, "B");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
  rep.config("analytics_s", median(cycle_s));

  // ---- per-layer -------------------------------------------------------------------
  fill_stack_deltas(lt, s0, sample_stack(g->serve()));
  const uint64_t probe_n = std::min<uint64_t>(model.size(), 4'000'000);
  lt.codec = probe_codec(model.data(), probe_n, store.shard(0).leaf_bytes());
  rep.check(lt.codec.keys_per_pass == probe_n, "codec probe decoded every key");
  lt.written_keys = static_cast<double>(written);
  lt.lookup_ns_per_key =
      static_cast<double>(tracer().total_ns("graph.has_edges")) /
      static_cast<double>(lookup_reqs * kLookupBatch);
  lt.pin_ns = tracer().median_ns("serving.pin");
  lt.prepare_s = median(prepare_s);
  lt.bfs_s = median(bfs_s);
  lt.pagerank_s = median(pr_s);
  lt.cc_s = median(cc_s);
  lt.uf_rebuild_s = uf_rebuild_s;
  lt.snapshot_age_ms = median(age_ms);
  lt.analytics_s = median(cycle_s);
  report_layers(rep, lt);
  log.mark("layers");
}

}  // namespace perfbench
