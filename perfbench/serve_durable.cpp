// serve_durable: DurableCPMA on MemVfs. Two writer clients send
// insert_batch / remove_batch requests and groups of single-key insert()s
// through the combiner while one reader client sends pinned requests
// (has_batch of K keys plus a short map_range); one checkpoint() runs
// mid-run. The writes run in kSegments segments, each followed by
// quiescent reads. Then sync_wal(), MemVfs::crash(seed) and a timed
// reopen. Zipf (0.99) keys; the store is a few MiB.
#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common.hpp"
#include "keys.hpp"
#include "pma/cpma.hpp"
#include "util/zipf.hpp"

namespace perfbench {

namespace {

using Durable = cpma::DurableCPMA;

// Two writer clients contend for the writer mutex; about 1% of their batch
// requests wait 20-80 ms behind the other's combining, which shows in the
// write tail on the config line.
constexpr unsigned kWriters = 2;
constexpr unsigned kKeyBits = 34;
constexpr uint64_t kBatch = 1500;        // keys per insert_batch request
constexpr uint64_t kRemoveBatch = 1000;  // keys per remove_batch request
constexpr uint64_t kSingles = 256;       // insert() calls per single request
constexpr uint64_t kReadKeys = 256;      // keys per reader has_batch
constexpr uint64_t kRangeSpan = uint64_t{1} << 20;  // ~30-60 keys
constexpr int kSetupReps = 15;
// Rounds of (mixed write segment, quiescent reads), and slices of each read
// phase per round.
constexpr uint64_t kSegments = 40;
constexpr uint64_t kReadSlices = 2;

// Nominal rates (4 vCPU), used only to size fixed work from --seconds.
constexpr double kWriterCyclesPerS = 120;  // per writer, 3 requests each
constexpr double kLookupReqPerS = 5'000;
constexpr double kPointPairsPerS = 600'000;
constexpr double kRangeReqPerS = 40'000;

enum class Op : uint8_t { kInsertBatch, kSingles, kRemoveBatch };

struct Request {
  Op op;
  std::vector<uint64_t> keys;
};

cpma::durable::DurableSettings settings() {
  cpma::durable::DurableSettings cfg;
  cfg.serving.sharded.num_shards = 4;
  // Count-triggered only: combine at 1024 queued ops, publish after every
  // write, no age or staleness timers.
  cfg.serving.combine_batch = 1024;
  cfg.serving.max_combine_delay_ns = std::numeric_limits<uint64_t>::max();
  cfg.serving.publish_eager = true;
  cfg.serving.queue_cap = 0;
  // Byte-triggered group commit: fsync every 1 MiB of WAL per shard.
  cfg.wal.policy = cpma::durable::FsyncPolicy::kInterval;
  cfg.wal.interval_bytes = 1u << 20;
  cfg.wal.interval_ns = std::numeric_limits<uint64_t>::max();
  return cfg;
}

std::vector<uint64_t> sorted_contents(const Durable& d) {
  std::vector<uint64_t> out;
  d.snapshot().map([&](uint64_t k) { out.push_back(k); });
  return out;
}

}  // namespace

void run_serve_durable(const Options& opt, Report& rep) {
  const double s = opt.seconds;
  const uint64_t ranks = std::max<uint64_t>(
      1000, static_cast<uint64_t>(4e6 * opt.scale));
  const uint64_t preload_draws = ranks / 2;
  // Nominally, writes take half of --seconds and each read phase 15%.
  const uint64_t cycles =
      kSegments * std::max<uint64_t>(
                      10, static_cast<uint64_t>(kWriterCyclesPerS * 0.5 * s /
                                                kSegments));
  const uint64_t lookup_reqs = std::max<uint64_t>(
      1800, static_cast<uint64_t>(kLookupReqPerS * 0.15 * s));
  const uint64_t point_pairs = std::max<uint64_t>(
      18000, static_cast<uint64_t>(kPointPairsPerS * 0.15 * s));
  const uint64_t range_reqs = std::max<uint64_t>(
      1800, static_cast<uint64_t>(kRangeReqPerS * 0.15 * s));
  const cpma::durable::DurableSettings cfg = settings();
  PhaseLog log;

  rep.config("workload", "serve_durable");
  rep.config("store", "cpma::DurableCPMA");
  rep.config("vfs", "MemVfs");
  rep.config("keys", "zipf0.99_34bit");
  rep.config("zipf_ranks", static_cast<double>(ranks));
  rep.config("shards", static_cast<double>(cfg.serving.sharded.num_shards));
  rep.config("writer_clients", static_cast<double>(kWriters));
  rep.config("reader_clients", 1.0);
  rep.config("writer_cycles", static_cast<double>(cycles));
  rep.config("fsync", "interval_bytes=1MiB,no_timer");
  rep.config("publish", "eager(every_write)");
  rep.config("combine", "batch=1024,no_timer");

  // ---- inputs (untimed) ------------------------------------------------------
  // Key class: writer w's batch keys are class w, its single-insert keys
  // class kWriters + w. Classes are disjoint, and single-insert keys are
  // never removed, so the final set does not depend on how the writers or
  // the combiner interleave.
  const uint64_t salt = mix64(opt.seed ^ 0x636c617373ull);
  auto key_class = [&](uint64_t k) { return mix64(k ^ salt) % (2 * kWriters); };
  const cpma::util::ZipfGenerator zipf(ranks, 0.99, opt.seed);
  uint64_t draw = 0;
  std::vector<uint64_t> preload(preload_draws);
  for (uint64_t& k : preload) k = zipf.key(draw++, kKeyBits);

  std::vector<std::vector<uint64_t>> pool(2 * kWriters);
  const uint64_t need_batch = cycles * (kBatch + kRemoveBatch);
  const uint64_t need_single = cycles * kSingles;
  auto pools_full = [&] {
    for (unsigned c = 0; c < 2 * kWriters; ++c) {
      if (pool[c].size() < (c < kWriters ? need_batch : need_single)) {
        return false;
      }
    }
    return true;
  };
  while (!pools_full()) {
    const uint64_t k = zipf.key(draw++, kKeyBits);
    std::vector<uint64_t>& p = pool[key_class(k)];
    if (p.size() < (key_class(k) < kWriters ? need_batch : need_single)) {
      p.push_back(k);
    }
  }
  std::vector<std::vector<Request>> script(kWriters);
  for (unsigned w = 0; w < kWriters; ++w) {
    const std::vector<uint64_t>& b = pool[w];
    const std::vector<uint64_t>& one = pool[kWriters + w];
    uint64_t bi = 0, si = 0;
    for (uint64_t c = 0; c < cycles; ++c) {
      script[w].push_back({Op::kInsertBatch, {&b[bi], &b[bi] + kBatch}});
      bi += kBatch;
      script[w].push_back({Op::kSingles, {&one[si], &one[si] + kSingles}});
      si += kSingles;
      script[w].push_back(
          {Op::kRemoveBatch, {&b[bi], &b[bi] + kRemoveBatch}});
      bi += kRemoveBatch;
    }
  }
  std::vector<std::vector<uint64_t>>().swap(pool);

  // Reader request pool: sorted has_batch keys (zipf) and range starts.
  Rng rng(opt.seed ^ 0x7265616465ull);
  const uint64_t read_pool = 4096;
  std::vector<std::vector<uint64_t>> read_keys(read_pool);
  std::vector<uint64_t> range_start(read_pool);
  for (uint64_t r = 0; r < read_pool; ++r) {
    read_keys[r].resize(kReadKeys);
    for (uint64_t& k : read_keys[r]) {
      k = zipf.key(draw + rng.below(ranks * 4), kKeyBits);
    }
    std::sort(read_keys[r].begin(), read_keys[r].end());
    range_start[r] = rng.next() & ((uint64_t{1} << kKeyBits) - 1);
  }
  std::vector<uint64_t> probes(point_pairs);
  for (uint64_t& k : probes) k = zipf.key(draw + rng.below(ranks * 4), kKeyBits);

  // Keys present at every moment of the run: preloaded single-class keys.
  std::unordered_set<uint64_t> always;
  for (uint64_t k : preload) {
    if (key_class(k) >= kWriters) always.insert(k);
  }
  std::vector<uint64_t> read_always(read_pool, 0);
  for (uint64_t r = 0; r < read_pool; ++r) {
    for (uint64_t k : read_keys[r]) read_always[r] += always.count(k);
  }

  // Model: the preload, then each writer's requests in program order. Round
  // j's quiescent reads see the state after segment j, whatever order the
  // writers' requests interleaved in, because each key class has one writer
  // and single-insert keys are never removed. A segment's net effect on a
  // key is its last op there.
  std::vector<uint64_t> want(preload);  // sorted model after segment j
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  std::vector<uint64_t> want_lookup(kSegments, 0), want_point(kSegments, 0),
      want_succ(kSegments, 0), want_range(range_reqs, 0);
  for (uint64_t j = 0; j < kSegments; ++j) {
    std::unordered_map<uint64_t, bool> last;  // key -> present after j
    for (const auto& reqs : script) {
      const auto [lo, hi] = slice_of(reqs.size(), j, kSegments);
      for (uint64_t i = lo; i < hi; ++i) {
        for (uint64_t k : reqs[i].keys) last[k] = reqs[i].op != Op::kRemoveBatch;
      }
    }
    std::vector<std::pair<uint64_t, bool>> upd(last.begin(), last.end());
    std::sort(upd.begin(), upd.end());
    std::vector<uint64_t> next;
    next.reserve(want.size() + upd.size());
    auto old = want.begin();
    for (const auto& [k, present] : upd) {
      while (old != want.end() && *old < k) next.push_back(*old++);
      if (old != want.end() && *old == k) ++old;
      if (present) next.push_back(k);
    }
    next.insert(next.end(), old, want.end());
    want.swap(next);
    const auto lower = [&](uint64_t k) {
      return std::lower_bound(want.begin(), want.end(), k);
    };
    {
      const auto [lo, hi] = slice_of(lookup_reqs, j, kSegments);
      for (uint64_t i = lo; i < hi; ++i) {
        for (uint64_t k : read_keys[i % read_pool]) {
          want_lookup[j] += std::binary_search(want.begin(), want.end(), k);
        }
      }
    }
    {
      const auto [lo, hi] = slice_of(point_pairs, j, kSegments);
      for (uint64_t i = lo; i < hi; ++i) {
        const auto it = lower(probes[i]);
        want_point[j] += it != want.end() && *it == probes[i];
        want_succ[j] += it == want.end() ? 0 : *it;
      }
    }
    {
      const auto [lo, hi] = slice_of(range_reqs, j, kSegments);
      for (uint64_t i = lo; i < hi; ++i) {
        const uint64_t start = range_start[i % read_pool];
        for (auto it = lower(start); it != want.end() && *it < start + kRangeSpan;
             ++it) {
          want_range[i] += *it;
        }
      }
    }
  }

  log.mark("inputs");
  // ---- set-up: preload through the batch API ---------------------------------
  std::unique_ptr<cpma::durable::io::MemVfs> vfs;
  std::unique_ptr<Durable> db;
  std::vector<uint64_t> copy;
  const CpuRotation cpu(kWriters + 2);
  uint64_t setup_rep = 0;
  const double setup_s = median_setup_seconds(
      kSetupReps,
      [&] {
        cpu.pin(setup_rep++);
        db.reset();
        vfs = std::make_unique<cpma::durable::io::MemVfs>();
        copy = preload;
      },
      [&] {
        Span sp("durable.setup");
        db = std::make_unique<Durable>(*vfs, "db", cfg);
        db->insert_batch(std::move(copy));
      });
  const auto& store = db->serving().store();
  const uint64_t preload_keys = db->size();
  uint64_t total_bytes = 0;
  for (uint64_t i = 0; i < store.num_shards(); ++i) {
    total_bytes += store.shard(i).total_bytes();
  }
  const double bytes_per_key =
      static_cast<double>(total_bytes) / static_cast<double>(preload_keys);
  rep.config("preload_keys", static_cast<double>(preload_keys));
  rep.config("store_bytes", static_cast<double>(total_bytes));
  rep.config("final_keys", static_cast<double>(want.size()));
  LayerTimes lt;
  fill_space(lt, store.num_shards(),
             [&](uint64_t i) -> const auto& { return store.shard(i); });
  const uint64_t leaf_bytes = store.shard(0).leaf_bytes();
  const StackSample s0 = sample_stack(db->serving());
  const cpma::durable::DurableStats ds0 = db->stats();

  log.mark("setup");
  // ---- timed rounds ------------------------------------------------------------
  // Round j: mixed segment j (both writers run their j-th share of the
  // script beside the reader; round kSegments / 2 also checkpoints), then
  // quiescent reads against the state it left. Interleaving spreads every
  // metric over the whole run, and each round moves every thread to the
  // next CPU (see CpuRotation).
  std::vector<std::vector<double>> write_ns(kWriters);
  std::vector<uint64_t> acked(kWriters, 0), failed(kWriters, 0);
  std::vector<double> read_ns;
  uint64_t read_bad = 0, reads = 0;
  std::vector<double> ins_rates, del_rates;
  uint64_t insert_keys = 0, delete_keys = 0;
  double mixed_s = 0, checkpoint_s = 0;

  std::vector<double> lookup_rates, point_rates, range_rates;
  std::vector<uint64_t> bits(kReadKeys / 64), range_sum(range_reqs, 0);
  std::vector<uint64_t> lookup_hits(kSegments, 0), point_hits(kSegments, 0),
      succ_sum(kSegments, 0);
  double read_s = 0;

  for (uint64_t j = 0; j < kSegments; ++j) {
    cpu.pin(kWriters + 1 + j);
    std::atomic<unsigned> writers_left{kWriters};
    const uint64_t t_seg = now_ns();
    std::vector<std::thread> writers;
    for (unsigned w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        cpu.pin(w + j);
        const auto [lo, hi] = slice_of(script[w].size(), j, kSegments);
        for (uint64_t i = lo; i < hi; ++i) {
          const Request& r = script[w][i];
          const uint64_t t0 = now_ns();
          Span sp(r.op == Op::kSingles ? "serving.insert" : "serving.write_batch");
          if (r.op == Op::kSingles) {
            for (uint64_t k : r.keys) {
              if (db->insert(k)) {
                ++acked[w];
              } else {
                ++failed[w];
              }
            }
          } else {
            std::vector<uint64_t> keys = r.keys;
            if (r.op == Op::kInsertBatch) {
              db->insert_batch(std::move(keys));
            } else {
              db->remove_batch(std::move(keys));
            }
            acked[w] += r.keys.size();
          }
          write_ns[w].push_back(static_cast<double>(now_ns() - t0));
        }
        writers_left.fetch_sub(1, std::memory_order_release);
      });
    }
    std::thread reader([&] {
      cpu.pin(kWriters + j);
      std::vector<uint64_t> rbits(kReadKeys / 64);
      while (writers_left.load(std::memory_order_acquire) > 0) {
        const uint64_t q = reads++ % read_pool;
        std::fill(rbits.begin(), rbits.end(), 0);
        const uint64_t t0 = now_ns();
        Span sp("serving.read");
        uint64_t prev = 0, in_range = 0;
        bool ordered = true;
        {
          uint64_t pin = tracer().begin("serving.pin");
          auto snap = db->snapshot();
          tracer().end(pin);
          snap.has_batch(read_keys[q].data(), kReadKeys, rbits.data());
          const uint64_t lo = range_start[q];
          snap.map_range([&](uint64_t k) {
            ordered &= k >= lo && k < lo + kRangeSpan && (in_range == 0 || k > prev);
            prev = k;
            ++in_range;
          }, lo, lo + kRangeSpan);
        }
        read_ns.push_back(static_cast<double>(now_ns() - t0));
        uint64_t always_found = 0;
        for (uint64_t i = 0; i < kReadKeys; ++i) {
          if ((rbits[i / 64] >> (i % 64)) & 1) {
            always_found += always.count(read_keys[q][i]);
          }
        }
        read_bad += !ordered || always_found != read_always[q];
      }
    });
    if (j == kSegments / 2) {
      Span sp("durable.checkpoint");
      const uint64_t t0 = now_ns();
      rep.check(db->checkpoint().ok(), "mid-run checkpoint");
      checkpoint_s = seconds_since(t0);
    }
    for (std::thread& t : writers) t.join();
    const double seg_s = seconds_since(t_seg);
    reader.join();
    mixed_s += seg_s;
    uint64_t seg_ins = 0, seg_del = 0;
    for (unsigned w = 0; w < kWriters; ++w) {
      const auto [lo, hi] = slice_of(script[w].size(), j, kSegments);
      for (uint64_t i = lo; i < hi; ++i) {
        const Request& r = script[w][i];
        (r.op == Op::kRemoveBatch ? seg_del : seg_ins) += r.keys.size();
      }
    }
    insert_keys += seg_ins;
    delete_keys += seg_del;
    ins_rates.push_back(static_cast<double>(seg_ins) / seg_s);
    del_rates.push_back(static_cast<double>(seg_del) / seg_s);

    // Quiescent reads: pinned has_batch requests, per-op has + successor (a
    // pin per call), pinned short map_range requests, in kReadSlices
    // interleaved slices each.
    db->serving().flush();
    const uint64_t t_read = now_ns();
    for (uint64_t m = 0; m < kReadSlices; ++m) {
      const uint64_t slice = j * kReadSlices + m, slices = kSegments * kReadSlices;
      {
        const auto [lo, hi] = slice_of(lookup_reqs, slice, slices);
        Span sp("serving.has_batch");
        const uint64_t t0 = now_ns();
        for (uint64_t i = lo; i < hi; ++i) {
          std::fill(bits.begin(), bits.end(), 0);
          db->snapshot().has_batch(read_keys[i % read_pool].data(), kReadKeys,
                                   bits.data());
          for (uint64_t w : bits) lookup_hits[j] += std::popcount(w);
        }
        lookup_rates.push_back(static_cast<double>((hi - lo) * kReadKeys) /
                               seconds_since(t0));
      }
      {
        const auto [lo, hi] = slice_of(point_pairs, slice, slices);
        Span sp("serving.point_reads");
        const uint64_t t0 = now_ns();
        for (uint64_t i = lo; i < hi; ++i) {
          point_hits[j] += db->has(probes[i]);
          succ_sum[j] += db->serving().successor(probes[i]).value_or(0);
        }
        point_rates.push_back(static_cast<double>(2 * (hi - lo)) /
                              seconds_since(t0));
      }
      {
        const auto [lo, hi] = slice_of(range_reqs, slice, slices);
        uint64_t keys = 0;
        Span sp("serving.map_range");
        const uint64_t t0 = now_ns();
        for (uint64_t i = lo; i < hi; ++i) {
          const uint64_t start = range_start[i % read_pool];
          uint64_t sum = 0;
          db->snapshot().map_range([&](uint64_t k) { sum += k; ++keys; }, start,
                                   start + kRangeSpan);
          range_sum[i] = sum;
        }
        range_rates.push_back(static_cast<double>(keys) / seconds_since(t0));
      }
    }
    read_s += seconds_since(t_read);
  }
  cpu.unpin();
  log.mark("rounds");

  uint64_t acked_all = 0, failed_all = 0;
  for (unsigned w = 0; w < kWriters; ++w) {
    acked_all += acked[w];
    failed_all += failed[w];
  }
  rep.attempt(insert_keys + delete_keys);
  rep.fail(failed_all);
  rep.attempt(reads);
  rep.check(read_bad == 0, "reader: ordered ranges and always-present keys (" +
                               std::to_string(read_bad) + " bad requests)");
  rep.config("reader_requests", static_cast<double>(reads));

  // ---- read checks against the model -------------------------------------------
  uint64_t lookup_bad = 0, point_bad = 0, range_bad = 0;
  for (uint64_t j = 0; j < kSegments; ++j) {
    lookup_bad += lookup_hits[j] != want_lookup[j];
    point_bad += point_hits[j] != want_point[j] || succ_sum[j] != want_succ[j];
  }
  for (uint64_t i = 0; i < range_reqs; ++i) range_bad += range_sum[i] != want_range[i];
  rep.attempt(lookup_reqs * kReadKeys + 2 * point_pairs + range_reqs);
  rep.check(lookup_bad == 0, "quiescent has_batch hit counts");
  rep.check(point_bad == 0, "per-op has / successor against the model");
  rep.check(range_bad == 0, "range key-sums against the model");
  uint64_t total_lookup_hits = 0;
  for (uint64_t h : lookup_hits) total_lookup_hits += h;
  rep.config("lookup_hits", static_cast<double>(total_lookup_hits));
  log.mark("read_checks");

  // ---- sync, live check, crash, recover ------------------------------------------
  rep.check(db->sync_wal().ok(), "sync_wal");
  rep.check(db->durable_lsn() == db->last_lsn(), "durable_lsn == last_lsn");
  rep.check(sorted_contents(*db) == want, "live store equals the model");
  std::string err;
  rep.check(store.check_invariants(&err), "check_invariants: " + err);

  fill_stack_deltas(lt, s0, sample_stack(db->serving()));
  const cpma::serve::ServingStats ss = db->serving().stats();
  const cpma::durable::DurableStats ds = db->stats();
  uint64_t rejected = 0, blocked = 0;
  for (const auto& q : db->serving().serving_stats()) {
    rejected += q.rejected;
    blocked += q.blocked;
  }
  rep.fail(rejected + ss.vetoed_ops + ds.wal_append_errors);

  log.mark("live_checks");
  // `store` refers into the instance destroyed here.
  db.reset();
  vfs->crash(opt.seed);
  double recover_s = 0;
  {
    Span sp("durable.recover");
    const uint64_t t0 = now_ns();
    db = std::make_unique<Durable>(*vfs, "db", cfg);
    recover_s = static_cast<double>(now_ns() - t0) * 1e-9;
  }
  rep.check(sorted_contents(*db) == want, "recovered store equals the model");
  const cpma::durable::RecoveryReport rr = db->recovery_report();

  log.mark("recover");
  // ---- metrics --------------------------------------------------------------------
  std::vector<double> all_write_ns;
  for (const auto& v : write_ns) {
    all_write_ns.insert(all_write_ns.end(), v.begin(), v.end());
  }
  rep.metric("setup_s", setup_s, "s");
  rep.metric("insert_keys_per_s", trimmed_mean(ins_rates), "1/s");
  rep.metric("delete_keys_per_s", trimmed_mean(del_rates), "1/s");
  // Write segments differ in cost (the store grows from ~0.5M to ~0.95M
  // keys), so their rates are averaged; read slices are alike, so their
  // fastest decile is taken.
  rep.metric("lookup_keys_per_s", fast_rate(lookup_rates), "1/s");
  rep.metric("point_reads_per_s", fast_rate(point_rates), "1/s");
  rep.metric("range_keys_per_s", fast_rate(range_rates), "1/s");
  report_latency(rep, "read", read_ns, 1e3, "us");
  report_latency(rep, "write", all_write_ns, 1e6, "ms");
  rep.metric("bytes_per_key", bytes_per_key, "B");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
  rep.config("acked_keys", static_cast<double>(acked_all));
  rep.config("mixed_s", mixed_s);
  rep.config("quiescent_read_s", read_s);
  rep.config("cpu_rotation", cpu.active() ? "on" : "off");
  rep.config("checkpoint_s", checkpoint_s);
  rep.config("recover_s", recover_s);

  // ---- per-layer ----------------------------------------------------------------
  lt.codec = probe_codec(want.data(), want.size(), leaf_bytes);
  rep.check(lt.codec.keys_per_pass == want.size(), "codec probe decoded every key");
  lt.written_keys = static_cast<double>(insert_keys + delete_keys);
  lt.lookup_ns_per_key =
      static_cast<double>(tracer().total_ns("serving.has_batch")) /
      static_cast<double>(lookup_reqs * kReadKeys);
  lt.blocked = static_cast<double>(blocked);
  lt.rejected = static_cast<double>(rejected);
  lt.pin_ns = tracer().median_ns("serving.pin");
  lt.wal_bytes = static_cast<double>(ds.wal_bytes - ds0.wal_bytes);
  lt.wal_records = static_cast<double>(ds.wal_records - ds0.wal_records);
  lt.wal_syncs = static_cast<double>(ds.wal_syncs - ds0.wal_syncs);
  lt.checkpoint_bytes = static_cast<double>(ds.checkpoint_bytes);
  lt.live_keys = static_cast<double>(want.size());
  lt.replay_keys = static_cast<double>(rr.keys_replayed);
  lt.replay_bytes_scanned = static_cast<double>(rr.bytes_scanned);
  lt.checkpoint_s = checkpoint_s;
  lt.recover_s = recover_s;
  report_layers(rep, lt);
  log.mark("layers");
}

}  // namespace perfbench
