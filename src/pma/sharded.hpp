// ShardedPMA<Engine> — a keyspace-sharded composition of independent
// PMA/CPMA engines behind the single-engine set API.
//
// The paper parallelizes *within* one batch update; a single engine still
// serializes on one root, one resize coordinate, and one head index. This
// layer partitions the keyspace into S contiguous ranges, each owned by an
// independent engine ("shard"), PaC-tree style: many independent compressed
// chunks composed under one collection API — except our chunks are whole
// pointer-free engines that keep the paper's batch-parallel semantics
// internally.
//
//  * Routing: shard i+1 owns keys >= splitters_[i] (splitters are ascending;
//    shard 0 owns everything below splitters_[0], including the key-0
//    sentinel). A sorted batch is partitioned against the splitters with the
//    same exponential-gallop idiom as the engine's dense route_runs, then each
//    shard's slice is applied by a sibling top-level task — one parallel_for
//    at grain 1 — with every shard free to use its full inner parallelism
//    (nested fork-join; the work-stealing scheduler interleaves the shards'
//    subtasks).
//  * Splitter seeding: an empty structure receiving its first large sorted
//    batch takes its splitters from the batch's quantiles, so bulk loads
//    start balanced instead of waiting for the rebalancer to spread shard 0.
//  * Adaptive rebalancing: shard sizes are compared in CONTENT BYTES (the
//    terminator-scan sizing resize_spread uses — the honest coordinate for
//    compressed leaves). When the largest shard drifts past
//    rebalance_ratio * mean, one left-to-right sweep moves boundary ranges
//    between neighbors: the donor's engine extracts the range with
//    extract_range (leaf surgery + one direct spread, no full rebuild) and
//    the receiver absorbs it as a sorted batch. A cheap O(S) key-count probe
//    gates the byte scan so steady-state batches never pay it.
//  * Reads: the whole read API (point, scan, batch query, iteration and
//    flattened-leaf reads) is inherited from ShardedReads
//    (pma/sharded_reads.hpp), the one implementation the serving layer's
//    snapshots share. This class adds the writes, parallel_map, sum and
//    check_invariants.
//
// The per-shard engines are completely independent: no shared state, no
// cross-shard locks — the composition is safe under the engine's
// single-writer model because one batch dispatch writes each shard from
// exactly one task.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "parallel/reduce.hpp"
#include "parallel/scheduler.hpp"
#include "pma/pma.hpp"
#include "pma/sharded_reads.hpp"
#include "util/uninitialized.hpp"

namespace cpma::pma {

struct ShardedSettings {
  // Number of keyspace shards; 0 picks the scheduler's worker count
  // (clamped to [1, 64]) — one top-level task per worker.
  uint64_t num_shards = 0;

  // Rebalance trigger: a pass runs when the largest shard's content bytes
  // exceed ratio * (total / S). 2.0 tolerates healthy skew while keeping the
  // slowest shard within ~2x of the mean batch work.
  double rebalance_ratio = 2.0;

  // Total content below this never rebalances: boundary moves on tiny sets
  // churn more bytes than they balance.
  uint64_t min_rebalance_bytes = 1 << 20;

  // Per-shard engine settings (density bounds, growth factor).
  PmaSettings engine;
};

// Router-side counters, kept separately from the engines' BatchPhaseTimes:
// route_ns is the sharded sort + splitter partition, rebalance_ns the full
// rebalance passes (byte scans + boundary moves).
struct ShardRouterTimes {
  uint64_t route_ns = 0;
  uint64_t rebalance_ns = 0;
  uint64_t rebalances = 0;  // passes that ran (post-probe)
  uint64_t moves = 0;       // boundary ranges moved between neighbors
};

template <typename Engine>
class ShardedPMA : public ShardedReads<ShardedPMA<Engine>, Engine> {
 public:
  using key_type = uint64_t;
  using engine_type = Engine;
  using kvec = typename Engine::kvec;

  // First sorted batch at least this large seeds the splitters from its
  // quantiles (smaller loads start in shard 0 and rely on rebalancing).
  static constexpr uint64_t kSplitterSeedMin = 1024;

  explicit ShardedPMA(ShardedSettings settings = {}) : settings_(settings) {
    uint64_t s = settings_.num_shards;
    if (s == 0) {
      s = par::Scheduler::instance().num_workers();
      s = std::min<uint64_t>(std::max<uint64_t>(s, 1), 64);
    }
    shards_.reserve(s);
    for (uint64_t i = 0; i < s; ++i) shards_.emplace_back(settings_.engine);
    versions_.assign(s, 0);
    // All-UINT64_MAX splitters route every key below 2^64-1 to shard 0,
    // which is exactly the degenerate one-shard layout an empty structure
    // wants; seeding or rebalancing replaces them.
    splitters_.assign(s - 1, UINT64_MAX);
  }

  // Builds from an arbitrary range of keys (need not be sorted or unique):
  // sort + dedupe once, seed splitters, then bulk-build every shard through
  // the engine's build_from_sorted hook.
  ShardedPMA(const key_type* start, const key_type* end,
             ShardedSettings settings = {})
      : ShardedPMA(settings) {
    kvec keys(start, end);
    par::parallel_sort(keys.data(), keys.size());
    par::dedupe_sorted(keys);
    if (keys.size() >= kSplitterSeedMin) {
      set_splitters_from_sorted(keys.data(), keys.size());
    }
    std::vector<uint64_t> bounds;
    this->partition_batch(keys.data(), keys.size(), bounds);
    par::parallel_for(0, shards_.size(), [&](uint64_t s) {
      shards_[s].build_from_sorted(keys.data() + bounds[s],
                                   bounds[s + 1] - bounds[s]);
      if (bounds[s + 1] > bounds[s]) ++versions_[s];
    }, 1);
  }

  // Checkpoint restore hook (src/durable/): adopt the checkpoint's splitter
  // layout verbatim, then bulk-build each shard from its decoded sorted key
  // stream — `load_shard(s)` returns shard s's keys (sorted, deduped,
  // within the splitter range, as the validated checkpoint guarantees).
  // Requires an empty structure with matching shard count; returns false
  // (untouched) otherwise. Shards load in parallel as sibling tasks.
  template <typename Loader>
  bool restore_from_checkpoint(std::vector<key_type> splitters,
                               Loader&& load_shard) {
    if (!this->empty() || splitters.size() + 1 != shards_.size()) {
      return false;
    }
    splitters_ = std::move(splitters);
    par::parallel_for(0, shards_.size(), [&](uint64_t s) {
      std::vector<key_type> keys = load_shard(s);
      shards_[s].build_from_sorted(keys.data(), keys.size());
      if (!keys.empty()) ++versions_[s];
    }, 1);
    return true;
  }

  // ---- space ------------------------------------------------------------

  uint64_t get_size() const {
    uint64_t total = sizeof(*this) + splitters_.capacity() * sizeof(key_type);
    for (const Engine& e : shards_) total += e.get_size();
    return total;
  }

  uint64_t num_shards() const { return shards_.size(); }
  const Engine& shard(uint64_t s) const { return shards_[s]; }
  const std::vector<key_type>& splitters() const { return splitters_; }
  const ShardedSettings& settings() const { return settings_; }

  // Monotone per-shard mutation counter: bumped whenever the shard's SET
  // CONTENT may have changed (point op that took effect, batch slice with a
  // nonzero delta, boundary move). Equal versions across two observations
  // guarantee identical content — the serving layer's snapshot publisher
  // uses this to copy only dirty shards and share the rest.
  uint64_t shard_version(uint64_t s) const { return versions_[s]; }

  // Per-shard content bytes (the rebalance coordinate), computed in
  // parallel; benches report min/max of this as the imbalance statistic.
  std::vector<uint64_t> shard_content_bytes() const {
    std::vector<uint64_t> bytes(shards_.size());
    par::parallel_for(0, shards_.size(), [&](uint64_t s) {
      bytes[s] = shards_[s].content_bytes();
    }, 1);
    return bytes;
  }

  // ---- point operations ---------------------------------------------------

  bool insert(key_type key) {
    const uint64_t s = this->shard_for(key);
    const bool added = shards_[s].insert(key);
    if (added) ++versions_[s];
    return added;
  }

  bool remove(key_type key) {
    const uint64_t s = this->shard_for(key);
    const bool removed = shards_[s].remove(key);
    if (removed) ++versions_[s];
    return removed;
  }

  // ---- batch operations ---------------------------------------------------

  // Inserts a batch; `input` is used as scratch (sorted in place when
  // sorted == false). Returns the number of keys newly added.
  uint64_t insert_batch(key_type* input, uint64_t n, bool sorted = false) {
    return batch_dispatch<true>(input, n, sorted);
  }
  uint64_t insert_batch(std::vector<key_type> batch, bool sorted = false) {
    return insert_batch(batch.data(), batch.size(), sorted);
  }

  // Removes a batch; returns the number of keys actually removed.
  uint64_t remove_batch(key_type* input, uint64_t n, bool sorted = false) {
    return batch_dispatch<false>(input, n, sorted);
  }
  uint64_t remove_batch(std::vector<key_type> batch, bool sorted = false) {
    return remove_batch(batch.data(), batch.size(), sorted);
  }

  // Aggregated batch-pipeline breakdown: the sum of every shard's
  // BatchPhaseTimes, with the router's own sort + partition time folded
  // into route_ns. (Shard phases overlap in wall-clock when they run as
  // siblings, so the sums measure total work, not elapsed time.)
  BatchPhaseTimes batch_phase_times() const {
    BatchPhaseTimes t;
    t.route_ns = router_times_.route_ns;
    for (const Engine& e : shards_) t += e.batch_phase_times();
    return t;
  }
  void reset_batch_phase_times() {
    router_times_ = ShardRouterTimes{};
    for (Engine& e : shards_) e.reset_batch_phase_times();
  }
  const ShardRouterTimes& router_times() const { return router_times_; }

  // ---- rebalancing --------------------------------------------------------

  // One rebalance pass, unconditionally (the batch paths run it behind the
  // drift probe; point-op-only workloads can call it directly). Sweeps
  // left to right over neighbor pairs moving boundary ranges toward equal
  // content bytes; a single pass converges geometrically over successive
  // batches rather than chasing exact balance in one go.
  void rebalance() { rebalance_with(shard_content_bytes()); }

 private:
  void rebalance_with(std::vector<uint64_t> bytes) {
    const uint64_t s_count = shards_.size();
    if (s_count <= 1) return;
    detail::PhaseTimer pt;
    uint64_t total = 0;
    for (uint64_t b : bytes) total += b;
    if (total == 0) {
      router_times_.rebalance_ns += pt.lap();
      return;
    }
    ++router_times_.rebalances;
    uint64_t prefix = 0;
    for (uint64_t i = 0; i + 1 < s_count; ++i) {
      // Ideal cumulative content through shard i, and a dead band below
      // which a boundary move churns more than it balances (a couple of
      // leaves of granularity — split points land on leaf heads).
      const uint64_t ideal = (i + 1) * (total / s_count);
      const uint64_t cum = prefix + bytes[i];
      const uint64_t slack = std::max<uint64_t>(
          total / (8 * s_count), 2 * shards_[i].leaf_bytes());
      if (cum > ideal + slack) {
        // Donor: shard i's tail (everything at/after the split key) moves
        // right. keep < bytes[i] because cum > ideal.
        const uint64_t keep = bytes[i] - std::min(cum - ideal, bytes[i]);
        if (auto split = shards_[i].split_key_for_bytes(keep)) {
          kvec moved = shards_[i].extract_range(*split, splitters_[i]);
          if (!moved.empty()) {
            shards_[i + 1].insert_batch(moved.data(), moved.size(),
                                        /*sorted=*/true);
            splitters_[i] = *split;
            ++versions_[i];
            ++versions_[i + 1];
            ++router_times_.moves;
            bytes[i] = shards_[i].content_bytes();
            bytes[i + 1] = shards_[i + 1].content_bytes();
          }
        }
      } else if (cum + slack < ideal && bytes[i + 1] > 0) {
        // Receiver: pull shard i+1's head range left. When the want covers
        // shard i+1 entirely (split lands past its content), take the whole
        // shard: its upper bound becomes the new splitter.
        const uint64_t want = ideal - cum;
        std::optional<key_type> split =
            shards_[i + 1].split_key_for_bytes(want);
        const key_type cut =
            split ? *split
                  : (i + 2 < s_count ? splitters_[i + 1] : UINT64_MAX);
        kvec moved = shards_[i + 1].extract_range(0, cut);
        if (!moved.empty()) {
          shards_[i].insert_batch(moved.data(), moved.size(),
                                  /*sorted=*/true);
          splitters_[i] = cut;
          ++versions_[i];
          ++versions_[i + 1];
          ++router_times_.moves;
          bytes[i] = shards_[i].content_bytes();
          bytes[i + 1] = shards_[i + 1].content_bytes();
        }
      }
      prefix += bytes[i];
    }
    router_times_.rebalance_ns += pt.lap();
  }

 public:
  // ---- scans --------------------------------------------------------------

  // Applies f(key) to every key, in parallel across shards AND across each
  // shard's leaves (nested sibling tasks, like the batch dispatch).
  template <typename F>
  void parallel_map(F&& f) const {
    par::parallel_for(0, shards_.size(), [&](uint64_t s) {
      shards_[s].parallel_map(f);
    }, 1);
  }

  // Parallel sum of all keys: per-shard sums as sibling tasks, each shard
  // summing its leaves in parallel underneath.
  uint64_t sum() const {
    return par::parallel_sum<uint64_t>(
        0, shards_.size(), [&](uint64_t s) { return shards_[s].sum(); }, 1);
  }

  // ---- introspection ------------------------------------------------------

  // Validates every shard's engine invariants plus the sharding invariants:
  // ascending splitters and shard contents confined to their key ranges
  // (which also pins the key-0 sentinel to shard 0).
  bool check_invariants(std::string* err) const {
    auto fail = [&](const std::string& msg) {
      if (err != nullptr) *err = msg;
      return false;
    };
    for (uint64_t s = 0; s < shards_.size(); ++s) {
      if (!shards_[s].check_invariants(err)) {
        if (err != nullptr) *err = "shard " + std::to_string(s) + ": " + *err;
        return false;
      }
    }
    for (uint64_t i = 1; i < splitters_.size(); ++i) {
      if (splitters_[i - 1] > splitters_[i]) {
        return fail("splitters not ascending at " + std::to_string(i));
      }
    }
    for (uint64_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s].empty()) continue;
      const key_type lo = s == 0 ? 0 : splitters_[s - 1];
      if (*shards_[s].min() < lo) {
        return fail("shard " + std::to_string(s) + " min below its range");
      }
      if (s + 1 < shards_.size() && *shards_[s].max() >= splitters_[s]) {
        return fail("shard " + std::to_string(s) + " max above its range");
      }
    }
    return true;
  }

 private:
  // Quantile splitters from a sorted (possibly duplicated) stream; clamped
  // to >= 1 so the key-0 sentinel always routes to shard 0.
  void set_splitters_from_sorted(const key_type* keys, uint64_t n) {
    const uint64_t s_count = shards_.size();
    for (uint64_t i = 0; i + 1 < s_count; ++i) {
      splitters_[i] = std::max<key_type>(keys[(i + 1) * n / s_count], 1);
    }
  }

  // Shared insert/remove batch driver: sort once, partition against the
  // splitters, dispatch every shard's slice as a sibling top-level task
  // (each slice arrives sorted, so the engines skip their own sort), then
  // probe for drift.
  template <bool IsInsert>
  uint64_t batch_dispatch(key_type* input, uint64_t n, bool sorted) {
    if (n == 0) return 0;
    // Sub-threshold batches go straight to point updates (the engines
    // would do the same per slice): no sort, no partition, no task
    // dispatch — keeps tiny-batch throughput at engine parity.
    if (n < Engine::kPointThreshold) {
      uint64_t delta = 0;
      for (uint64_t i = 0; i < n; ++i) {
        delta += (IsInsert ? insert(input[i]) : remove(input[i])) ? 1 : 0;
      }
      // Still probe for drift: point-only workloads must rebalance too,
      // and the pre-trigger probe is O(S) loads.
      maybe_rebalance();
      return delta;
    }
    detail::PhaseTimer pt;
    if (!sorted) par::parallel_sort(input, n);
    if constexpr (IsInsert) {
      if (n >= kSplitterSeedMin && this->empty()) {
        set_splitters_from_sorted(input, n);
      }
    }
    std::vector<uint64_t> bounds;
    this->partition_batch(input, n, bounds);
    router_times_.route_ns += pt.lap();
    const uint64_t s_count = shards_.size();
    util::uvector<uint64_t> delta(s_count);
    par::parallel_for(0, s_count, [&](uint64_t s) {
      const uint64_t b = bounds[s], e = bounds[s + 1];
      if (e > b) {
        delta[s] = IsInsert
                       ? shards_[s].insert_batch(input + b, e - b, true)
                       : shards_[s].remove_batch(input + b, e - b, true);
        // Disjoint s per sibling task, so the plain increment is race-free.
        if (delta[s] > 0) ++versions_[s];
      } else {
        delta[s] = 0;
      }
    }, 1);
    uint64_t total = 0;
    for (uint64_t s = 0; s < s_count; ++s) total += delta[s];
    maybe_rebalance();
    return total;
  }

  // Drift probe after each batch: an O(S) key-count check gates the exact
  // content-byte scan (a terminator pass over every leaf), so balanced
  // steady states rarely pay the scan. Counts only track bytes within the
  // shards' compressibility spread (CPMA deltas span ~1-9 bytes/key), so
  // the count gate alone could suppress a genuine byte imbalance forever;
  // every kBytePeriod-th batch therefore bypasses it and checks true
  // bytes — the amortized cost is 1/kBytePeriod of a terminator pass per
  // batch, and the suppression window is bounded.
  static constexpr uint64_t kBytePeriod = 32;

  void maybe_rebalance() {
    const uint64_t s_count = shards_.size();
    if (s_count <= 1) return;
    uint64_t total = 0, largest = 0;
    for (const Engine& e : shards_) {
      const uint64_t c = e.size();
      total += c;
      largest = std::max(largest, c);
    }
    // ~8 bytes/key upper-bounds the content; below the floor, skip.
    if (total * 8 < settings_.min_rebalance_bytes) return;
    const bool forced_byte_check = ++batches_since_byte_check_ >= kBytePeriod;
    if (!forced_byte_check &&
        static_cast<double>(largest) * static_cast<double>(s_count) <=
            0.75 * settings_.rebalance_ratio * static_cast<double>(total)) {
      return;
    }
    batches_since_byte_check_ = 0;
    std::vector<uint64_t> bytes = shard_content_bytes();
    uint64_t byte_total = 0, byte_largest = 0;
    for (uint64_t b : bytes) {
      byte_total += b;
      byte_largest = std::max(byte_largest, b);
    }
    if (static_cast<double>(byte_largest) * static_cast<double>(s_count) <=
        settings_.rebalance_ratio * static_cast<double>(byte_total)) {
      return;
    }
    rebalance_with(std::move(bytes));
  }

  ShardedSettings settings_;
  std::vector<Engine> shards_;
  std::vector<key_type> splitters_;  // ascending; size num_shards() - 1
  std::vector<uint64_t> versions_;   // see shard_version()
  ShardRouterTimes router_times_;
  uint64_t batches_since_byte_check_ = 0;
};

}  // namespace cpma::pma
