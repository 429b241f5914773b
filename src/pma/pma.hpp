// PackedMemoryArray<LeafPolicy> — the paper's core data structure.
//
// One engine implements both the PMA (UncompressedLeaf) and the CPMA
// (CompressedLeaf): the engine works entirely in BYTE densities, which is the
// generalization Section 5 makes ("the density in a CPMA node is the ratio of
// filled bytes to total bytes").
//
// Structure: a flat byte array split into `num_leaves` leaves of `leaf_bytes`
// bytes (Theta(log n) sized, power-of-two), an implicit binary tree over the
// leaves with height-interpolated density bounds, and a contiguous head index
// (one key per leaf, empty leaves inherit their predecessor's head) used for
// binary-searching — our stand-in for the search-optimized layout of
// Wheatman et al. [ALENEX'23] that the paper builds on.
//
// Supported operations mirror the paper's artifact API: insert/remove,
// insert_batch/remove_batch (the paper's parallel batch-update algorithm),
// has, size, get_size, sum, min/max, map, parallel_map, map_range,
// map_range_length, iteration.
//
// Key 0 is the empty-cell sentinel inside leaves, so it is stored out-of-band
// (`has_zero_`); all public operations handle it transparently.
#pragma once

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/seq_ops.hpp"
#include "parallel/sort.hpp"
#include "parallel/worker_local.hpp"
#include "pma/head_eytzinger.hpp"
#include "pma/implicit_tree.hpp"
#include "pma/settings.hpp"
#include "util/bits.hpp"
#include "util/huge_pages.hpp"
#include "util/uninitialized.hpp"

namespace cpma::pma {

// Accumulated wall-clock breakdown of the batch-update pipeline, kept by
// every PackedMemoryArray and always compiled in: the cost is a handful of
// steady_clock reads per BATCH (not per leaf), which is noise next to the
// phases being measured. The bench surfaces these so batch-insert
// regressions are attributable to a phase.
struct BatchPhaseTimes {
  uint64_t route_ns = 0;         // phase 1a: partition batch into leaf runs
  uint64_t merge_ns = 0;         // phase 1b: per-leaf merges / subtractions
  uint64_t count_ns = 0;         // phase 2: work-efficient counting
  uint64_t redistribute_ns = 0;  // phase 3: redistribution + index repair
  uint64_t spread_ns = 0;        // direct-spread resize on root violation
  uint64_t rebuild_ns = 0;       // whole-structure rebuild strategy, plus
                                 // the rare pack+rebuild resize fallback
  uint64_t batches = 0;          // merge-path batches measured
  uint64_t rebuilds = 0;         // rebuild-path batches measured
  uint64_t spreads = 0;          // direct-spread resizes measured

  BatchPhaseTimes& operator+=(const BatchPhaseTimes& o) {
    route_ns += o.route_ns;
    merge_ns += o.merge_ns;
    count_ns += o.count_ns;
    redistribute_ns += o.redistribute_ns;
    spread_ns += o.spread_ns;
    rebuild_ns += o.rebuild_ns;
    batches += o.batches;
    rebuilds += o.rebuilds;
    spreads += o.spreads;
    return *this;
  }
};

namespace detail {
// Lap timer for the phase boundaries above.
class PhaseTimer {
 public:
  uint64_t lap() {
    auto now = clock::now();
    uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_)
            .count());
    last_ = now;
    return ns;
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point last_ = clock::now();
};
}  // namespace detail

template <typename Leaf>
class PackedMemoryArray {
 public:
  using key_type = uint64_t;
  using leaf_policy = Leaf;
  // Default-init vector used for all bulk key scratch (see util/uninitialized.hpp).
  using kvec = util::uvector<key_type>;

  static constexpr size_t kMinLeafBytes = 512;
  static constexpr uint64_t kMinLeaves = 2;
  // Batches below this size are applied as point updates (the paper: "if k is
  // small, the overheads from the batch-update algorithm outweigh the
  // benefits").
  static constexpr uint64_t kPointThreshold = 128;

  explicit PackedMemoryArray(PmaSettings settings = {})
      : settings_(settings) {
    init_empty();
  }

  // Builds from an arbitrary range of keys (need not be sorted or unique).
  PackedMemoryArray(const key_type* start, const key_type* end,
                    PmaSettings settings = {})
      : settings_(settings) {
    init_empty();
    std::vector<key_type> keys(start, end);
    insert_batch(keys.data(), keys.size(), /*sorted=*/false);
  }

  // ---- size & space -------------------------------------------------------

  // Number of stored keys.
  uint64_t size() const { return count_ + (has_zero_ ? 1 : 0); }
  bool empty() const { return size() == 0; }

  // Memory used by the structure, in bytes (paper API `get_size`).
  uint64_t get_size() const {
    return data_.capacity() + head_index_.capacity() * sizeof(key_type) +
           overflow_slot_.capacity() * sizeof(uint32_t) + sizeof(*this);
  }

  uint64_t num_leaves() const { return num_leaves_; }
  uint64_t leaf_bytes() const { return leaf_bytes_; }
  uint64_t total_bytes() const { return data_.size(); }
  const PmaSettings& settings() const { return settings_; }

  // ---- point operations ---------------------------------------------------

  // NOTE: has() and every other query below are genuinely const — no lazy
  // index repair, no mutable caches. (The head index is repaired eagerly on
  // the write paths: insert() re-indexes a leaf whose head changed
  // immediately after the leaf write, never from a read.) Snapshot layers
  // share one engine across reader threads relying on exactly this;
  // test_query_batch's TSan case pins it.
  bool has(key_type key) const {
    if (key == 0) return has_zero_;
    const uint8_t* lp = leaf_ptr(find_leaf(key));
    // Head fast paths: find_leaf answers the first leaf of its index run,
    // whose own head IS its index entry (see find_leaf), so an exact match
    // is a hit and a key below the head is a miss — neither decodes past
    // the head.
    const key_type h = Leaf::head(lp);
    if (key == h) return true;
    if (key < h || h == 0) return false;
    return Leaf::contains(lp, leaf_bytes_, key);
  }

  // Inserts `key`; returns true iff it was not already present.
  bool insert(key_type key) {
    if (key == 0) {
      bool added = !has_zero_;
      has_zero_ = true;
      return added;
    }
    uint64_t l = find_leaf(key);
    uint8_t* lp = leaf_ptr(l);
    if (!Leaf::insert(lp, leaf_bytes_, key)) return false;
    ++count_;
    if (Leaf::head(lp) != head_index_[l]) update_head_index(l, l + 1);
    rebalance_insert(l);
    return true;
  }

  // Removes `key`; returns true iff it was present.
  bool remove(key_type key) {
    if (key == 0) {
      bool removed = has_zero_;
      has_zero_ = false;
      return removed;
    }
    uint64_t l = find_leaf(key);
    uint8_t* lp = leaf_ptr(l);
    if (!Leaf::remove(lp, leaf_bytes_, key)) return false;
    --count_;
    update_head_index(l, l + 1);
    rebalance_remove(l);
    return true;
  }

  // Smallest stored key >= `key` (paper's `search`).
  std::optional<key_type> successor(key_type key) const {
    if (key == 0 && has_zero_) return key_type{0};
    key_type lo = key == 0 ? 1 : key;
    uint64_t l = find_leaf(lo);
    // Exact head hit: answer without decoding the leaf.
    if (Leaf::head(leaf_ptr(l)) == lo) return lo;
    if (auto v = Leaf::lower_bound(leaf_ptr(l), leaf_bytes_, key)) return v;
    for (uint64_t j = l + 1; j < num_leaves_; ++j) {
      key_type h = Leaf::head(leaf_ptr(j));
      if (h != 0) return h;  // first key after leaf l; necessarily >= key
    }
    return std::nullopt;
  }

  // Empty set -> nullopt. (These used to return key 0 on empty, which
  // collides with the out-of-band zero sentinel: {} and {0} both answered
  // min() == 0. The optional keeps the two distinguishable.)
  std::optional<key_type> min() const {
    if (has_zero_) return key_type{0};
    for (uint64_t l = 0; l < num_leaves_; ++l) {
      key_type h = Leaf::head(leaf_ptr(l));
      if (h != 0) return h;
    }
    return std::nullopt;
  }

  std::optional<key_type> max() const {
    for (uint64_t l = num_leaves_; l-- > 0;) {
      if (Leaf::head(leaf_ptr(l)) != 0) {
        return Leaf::last(leaf_ptr(l), leaf_bytes_);
      }
    }
    // No non-zero keys: the zero sentinel alone is the maximum.
    if (has_zero_) return key_type{0};
    return std::nullopt;
  }

  // ---- batch operations (Section 4 of the paper) --------------------------

  // Inserts a batch; `input` is used as scratch (sorted in place when
  // sorted == false, matching the artifact API). Returns the number of keys
  // newly added (duplicates of existing keys do not count).
  uint64_t insert_batch(key_type* input, uint64_t n, bool sorted = false);
  uint64_t insert_batch(std::vector<key_type> batch, bool sorted = false) {
    return insert_batch(batch.data(), batch.size(), sorted);
  }

  // Removes a batch; returns the number of keys actually removed.
  uint64_t remove_batch(key_type* input, uint64_t n, bool sorted = false);
  uint64_t remove_batch(std::vector<key_type> batch, bool sorted = false) {
    return remove_batch(batch.data(), batch.size(), sorted);
  }

  // Serial batch-insert BASELINE in the style of the Rewired PMA [De Leo &
  // Boncz, ICDE'19]: per-leaf merges shared between updates, but rebalancing
  // walks (and re-counts) per touched leaf instead of running the
  // work-efficient counting phase. Used by the Table 4 bench as the
  // comparator the paper's serial batch algorithm is measured against.
  uint64_t insert_batch_serial_baseline(key_type* input, uint64_t n,
                                        bool sorted = false);

  // Accumulated per-phase wall-clock times of the batch pipeline since
  // construction (or the last reset). Cheap enough to be always on.
  const BatchPhaseTimes& batch_phase_times() const { return phase_times_; }
  void reset_batch_phase_times() { phase_times_ = BatchPhaseTimes{}; }

  // ---- scans --------------------------------------------------------------

  // Applies f(key) to every key in sorted order.
  template <typename F>
  void map(F&& f) const {
    if (has_zero_) f(key_type{0});
    for (uint64_t l = 0; l < num_leaves_; ++l) {
      Leaf::map(leaf_ptr(l), leaf_bytes_, [&](key_type k) {
        f(k);
        return true;
      });
    }
  }

  // Applies f(key) to every key, in parallel across leaves (order within a
  // leaf is sorted; across leaves, concurrent).
  template <typename F>
  void parallel_map(F&& f) const {
    if (has_zero_) f(key_type{0});
    par::parallel_for(0, num_leaves_, [&](uint64_t l) {
      Leaf::map(leaf_ptr(l), leaf_bytes_, [&](key_type k) {
        f(k);
        return true;
      });
    }, 4);
  }

  // Applies f to keys in [start, end), in order (paper's range_map).
  template <typename F>
  void map_range(F&& f, key_type start, key_type end) const {
    if (start >= end) return;
    if (start == 0 && has_zero_) f(key_type{0});
    key_type lo = start == 0 ? 1 : start;
    uint64_t l = find_leaf(lo);
    for (; l < num_leaves_; ++l) {
      bool keep_going = Leaf::map(leaf_ptr(l), leaf_bytes_, [&](key_type k) {
        if (k < lo) return true;
        if (k >= end) return false;
        f(k);
        return true;
      });
      if (!keep_going) return;
      // Next leaf's keys are all > this leaf's; stop once past `end`.
      if (l + 1 < num_leaves_ && head_index_[l + 1] >= end &&
          Leaf::head(leaf_ptr(l + 1)) != 0) {
        return;
      }
    }
  }

  // Applies f to at most `length` keys starting from the smallest key
  // >= start; returns how many were applied.
  template <typename F>
  uint64_t map_range_length(F&& f, key_type start, uint64_t length) const {
    if (length == 0) return 0;
    uint64_t applied = 0;
    if (start == 0 && has_zero_) {
      f(key_type{0});
      if (++applied == length) return applied;
    }
    key_type lo = start == 0 ? 1 : start;
    uint64_t l = find_leaf(lo);
    for (; l < num_leaves_ && applied < length; ++l) {
      Leaf::map(leaf_ptr(l), leaf_bytes_, [&](key_type k) {
        if (k < lo) return true;
        f(k);
        return ++applied < length;
      });
    }
    return applied;
  }

  // ---- batch queries (read-side twin of the batch-insert pipeline) --------
  //
  // All three take SORTED query inputs (duplicates allowed), route them
  // through the batch updates' router, and decode each touched leaf ONCE —
  // a single streaming pass shared by every query landing in that leaf —
  // with per-run work dispatched as parallel tasks. Sparse batches (far
  // fewer keys than leaves) descend in lockstep groups with each target
  // leaf prefetched before its probe. Wait-free const reads (see has()).

  // Sets bit (bit_base + i) of `bits` for every keys[i] present. Bits for
  // missing keys are left untouched (callers zero-init), so concurrent
  // writers of one shared bitmap only ever OR — the sharded layer exploits
  // this to let sibling shards fill disjoint query slices of one output.
  void has_batch(const key_type* keys, uint64_t n, uint64_t* bits,
                 uint64_t bit_base = 0) const;

  // Convenience: bitmap sized to ceil(n / 64) words.
  std::vector<uint64_t> has_batch(const key_type* keys, uint64_t n) const {
    std::vector<uint64_t> bits((n + 63) / 64, 0);
    has_batch(keys, n, bits.data(), 0);
    return bits;
  }

  // out[i] = smallest stored key >= keys[i], and bit (bit_base + i) of
  // `found` is set, for every query with a successor; entries without one
  // are left untouched. (A sentinel cannot signal "none": both 0 and
  // UINT64_MAX are storable keys.)
  void successor_batch(const key_type* keys, uint64_t n, key_type* out,
                       uint64_t* found, uint64_t bit_base = 0) const;

  // Applies f(range_index, key) to every stored key in each [start, end)
  // range. `ranges` must be sorted by start and pairwise disjoint. Ranges
  // are grouped by starting leaf and the groups run as parallel tasks, so f
  // must be safe to call concurrently for different ranges (same contract
  // as parallel_map); within one range keys arrive in order.
  template <typename F>
  void map_ranges(const std::pair<key_type, key_type>* ranges, uint64_t m,
                  F&& f) const;

  // Parallel sum of all keys.
  uint64_t sum() const {
    return par::parallel_sum<uint64_t>(
        0, num_leaves_,
        [&](uint64_t l) { return Leaf::sum_leaf(leaf_ptr(l), leaf_bytes_); },
        4);
  }

  // ---- sharding hooks (used by pma/sharded.hpp) ---------------------------

  // Encoded content bytes over all leaves, via the same terminator-scan
  // sizing resize_spread's pass 1 uses. This is the sharded layer's balance
  // coordinate (and the numerator of density()).
  uint64_t content_bytes() const {
    return par::parallel_sum<uint64_t>(
        0, num_leaves_,
        [&](uint64_t l) { return Leaf::used_bytes(leaf_ptr(l), leaf_bytes_); },
        4);
  }

  // Smallest stored key at or after `target` content bytes (leaf
  // granularity): the keys below the returned key occupy approximately
  // `target` encoded bytes. nullopt when the target lands in or past the
  // last nonempty leaf — the caller cannot split there any finer than
  // "everything".
  std::optional<key_type> split_key_for_bytes(uint64_t target) const;

  // Removes every stored key in [lo, hi) and returns them sorted — the
  // sharded layer's boundary-move hook. Restores the density bounds with
  // one direct spread (resize machinery) instead of packing every key, so
  // a boundary move costs one streaming pass of this engine, not a full
  // materialize + rebuild.
  kvec extract_range(key_type lo, key_type hi);

  // Replaces the entire contents from a sorted, duplicate-free key stream
  // (leading zeros allowed: they set the key-0 sentinel). The sharded
  // layer's bulk-construction hook: O(n) spread, no merge.
  void build_from_sorted(const key_type* keys, uint64_t n);

  // ---- iteration ----------------------------------------------------------

  class const_iterator {
   public:
    using value_type = key_type;
    using difference_type = std::ptrdiff_t;
    using reference = key_type;
    using pointer = const key_type*;
    using iterator_category = std::forward_iterator_tag;

    const_iterator() = default;
    key_type operator*() const { return at_zero_ ? 0 : cur_.value; }

    const_iterator operator++(int) {
      const_iterator copy = *this;
      ++*this;
      return copy;
    }

    const_iterator& operator++() {
      if (at_zero_) {
        at_zero_ = false;
        seek_first_leaf(0);
        return *this;
      }
      if (!Leaf::cursor_next(pma_->leaf_ptr(leaf_), pma_->leaf_bytes_, cur_)) {
        seek_first_leaf(leaf_ + 1);
      }
      return *this;
    }

    bool operator==(const const_iterator& o) const {
      return leaf_ == o.leaf_ && at_zero_ == o.at_zero_ &&
             (leaf_ == end_leaf() || cur_.pos == o.cur_.pos);
    }

   private:
    friend class PackedMemoryArray;
    explicit const_iterator(const PackedMemoryArray* p) : pma_(p) {}

    uint64_t end_leaf() const { return pma_ ? pma_->num_leaves_ : 0; }

    void seek_first_leaf(uint64_t from) {
      for (leaf_ = from; leaf_ < pma_->num_leaves_; ++leaf_) {
        if (Leaf::cursor_begin(pma_->leaf_ptr(leaf_), pma_->leaf_bytes_,
                               cur_)) {
          return;
        }
      }
    }

    const PackedMemoryArray* pma_ = nullptr;
    uint64_t leaf_ = 0;
    typename Leaf::Cursor cur_{};
    bool at_zero_ = false;
  };

  const_iterator begin() const {
    const_iterator it(this);
    if (has_zero_) {
      it.at_zero_ = true;
    } else {
      it.seek_first_leaf(0);
    }
    return it;
  }

  const_iterator end() const {
    const_iterator it(this);
    it.leaf_ = num_leaves_;
    return it;
  }

  // ---- advanced iteration (used by F-Graph's vertex index) -----------------
  // A Position names a key's location (leaf + in-leaf cursor). Positions are
  // invalidated by ANY update; F-Graph rebuilds its index after batches, the
  // same protocol the paper uses for the vertex offset array.

  struct Position {
    uint64_t leaf = 0;
    typename Leaf::Cursor cur{};
  };

  // Calls f(position, key) for every key in leaf l, in order.
  template <typename F>
  void scan_leaf_positions(uint64_t l, F&& f) const {
    typename Leaf::Cursor cur;
    const uint8_t* lp = leaf_ptr(l);
    if (!Leaf::cursor_begin(lp, leaf_bytes_, cur)) return;
    do {
      f(Position{l, cur}, cur.value);
    } while (Leaf::cursor_next(lp, leaf_bytes_, cur));
  }

  // Number of keys stored in leaf l (for building rank offsets).
  uint64_t leaf_element_count(uint64_t l) const {
    return Leaf::element_count(leaf_ptr(l), leaf_bytes_);
  }

  // Key-only scan of leaf l (no positions): the hot loop of flat
  // arbitrary-order graph kernels.
  template <typename F>
  void scan_leaf_keys(uint64_t l, F&& f) const {
    Leaf::map(leaf_ptr(l), leaf_bytes_, [&](key_type k) {
      f(k);
      return true;
    });
  }

  // First position of leaf l, or nullopt for an empty leaf. The sharded
  // compositions use this to resume a cross-shard scan at the next shard's
  // first key (ShardedReads::map_from_position, pma/sharded_reads.hpp).
  std::optional<Position> leaf_first_position(uint64_t l) const {
    typename Leaf::Cursor cur;
    if (!Leaf::cursor_begin(leaf_ptr(l), leaf_bytes_, cur)) {
      return std::nullopt;
    }
    return Position{l, cur};
  }

  // Iterates keys starting at `pos` (inclusive), continuing across leaves,
  // while f(key) returns true.
  template <typename F>
  void map_from_position(Position pos, F&& f) const {
    uint64_t l = pos.leaf;
    if (l >= num_leaves_) return;
    typename Leaf::Cursor cur = pos.cur;
    while (true) {
      if (!f(cur.value)) return;
      if (!Leaf::cursor_next(leaf_ptr(l), leaf_bytes_, cur)) {
        ++l;
        while (l < num_leaves_ &&
               !Leaf::cursor_begin(leaf_ptr(l), leaf_bytes_, cur)) {
          ++l;
        }
        if (l >= num_leaves_) return;
      }
    }
  }

  // ---- introspection (tests, benches) --------------------------------------

  // Occupied bytes over total bytes.
  double density() const {
    return static_cast<double>(content_bytes()) /
           static_cast<double>(data_.size());
  }

  // Validates the structural invariants; returns true and leaves *err
  // untouched on success.
  bool check_invariants(std::string* err) const;

 private:
  // ---- layout ---------------------------------------------------------------

  uint8_t* leaf_ptr(uint64_t l) { return data_.data() + l * leaf_bytes_; }
  const uint8_t* leaf_ptr(uint64_t l) const {
    return data_.data() + l * leaf_bytes_;
  }

  // Chooses leaf size Theta(log N) bytes (power of two) for a given total.
  static size_t pick_leaf_bytes(uint64_t total) {
    uint64_t target = 16 * util::log2_ceil(std::max<uint64_t>(total, 2));
    target = std::max<uint64_t>(target, kMinLeafBytes);
    target = std::min<uint64_t>(target, 1 << 16);
    return util::next_pow2(target);
  }

  void init_empty() {
    leaf_bytes_ = kMinLeafBytes;
    num_leaves_ = kMinLeaves;
    data_.assign(num_leaves_ * leaf_bytes_, 0);  // small: serial zeroing fine
    head_index_.assign(num_leaves_, 0);
    eytz_.build(head_index_);
    count_ = 0;
  }

  // ---- head index ----------------------------------------------------------
  // Two coupled structures: the flat `head_index_` (source of truth — the
  // dense routing gallop, run_end, and map_range read it by position) and
  // `eytz_`, its branchless Eytzinger-layout mirror (head_eytzinger.hpp),
  // which runs every key-to-leaf descent. Both are maintained here and ONLY
  // here: every write funnels through update_head_index /
  // rebuild_head_index, always from the single-writer update paths.

  // Leaf whose key range contains `key`: the first leaf of the run of equal
  // head-index entries ending at the last entry <= key (leaf 0 when every
  // entry exceeds key). That leaf's own head equals its index entry: a run
  // starts either at leaf 0 (entry = leaf 0's head, or 0 when it is empty)
  // or at a nonempty leaf, since empty leaves only extend the run before
  // them. So callers compare against Leaf::head of the leaf they are about
  // to read anyway, never against a second random load of head_index_.
  uint64_t find_leaf(key_type key) const { return eytz_.find_leaf(key); }

  // First leaf after l whose index entry differs from l's (the next
  // nonempty leaf's position), or num_leaves_: a gallop from l, so the cost
  // is O(log gap), not O(log num_leaves).
  uint64_t next_head(uint64_t l) const {
    if (l + 1 < num_leaves_ && head_index_[l + 1] != head_index_[l]) {
      return l + 1;  // after a redistribution nearly every leaf is nonempty
    }
    return first_head_above(l + 1, head_index_[l]);
  }

  // First i >= from with head_index_[i] > key, or num_leaves_: exponential
  // search from `from`, then a binary search of the last doubling step.
  uint64_t first_head_above(uint64_t from, key_type key) const {
    uint64_t lo = from, step = 1;  // entries in [from, lo) are all <= key
    while (lo + step <= num_leaves_ && head_index_[lo + step - 1] <= key) {
      lo += step;
      step *= 2;
    }
    const uint64_t hi = std::min(lo + step, num_leaves_);
    return static_cast<uint64_t>(
        std::upper_bound(head_index_.begin() + lo, head_index_.begin() + hi,
                         key) -
        head_index_.begin());
  }

  // Recomputes index entries for leaves [lo, hi), then propagates through any
  // trailing run of empty leaves; the mirror is repaired over the full extent
  // actually written.
  void update_head_index(uint64_t lo, uint64_t hi) {
    for (uint64_t l = lo; l < hi; ++l) {
      key_type h = Leaf::head(leaf_ptr(l));
      head_index_[l] = (h != 0) ? h : (l == 0 ? 0 : head_index_[l - 1]);
    }
    uint64_t stop = hi;
    for (; stop < num_leaves_; ++stop) {
      if (Leaf::head(leaf_ptr(stop)) != 0) break;
      head_index_[stop] = head_index_[stop - 1];
    }
    eytz_.repair(head_index_, lo, stop);
  }

  void rebuild_head_index() {
    rebuild_head_index_flat();
    eytz_.build(head_index_);
  }

  void rebuild_head_index_flat() {
    head_index_.resize(num_leaves_);
    const uint64_t chunk = 2048;
    if (num_leaves_ <= 2 * chunk) {
      key_type prev = 0;
      for (uint64_t l = 0; l < num_leaves_; ++l) {
        key_type h = Leaf::head(leaf_ptr(l));
        prev = (h != 0) ? h : prev;
        head_index_[l] = prev;
      }
      return;
    }
    // Chunked two-pass: fill raw heads per chunk and record each chunk's
    // last nonempty head; serially carry across chunks; then fill the empty
    // entries with the carried value.
    const uint64_t num_chunks = (num_leaves_ + chunk - 1) / chunk;
    std::vector<key_type> chunk_last(num_chunks, 0);
    par::parallel_for(0, num_chunks, [&](uint64_t c) {
      uint64_t lo = c * chunk, hi = std::min(num_leaves_, lo + chunk);
      key_type prev = 0;
      for (uint64_t l = lo; l < hi; ++l) {
        key_type h = Leaf::head(leaf_ptr(l));
        prev = (h != 0) ? h : prev;
        head_index_[l] = prev;  // 0 marks "no head yet within this chunk"
      }
      chunk_last[c] = prev;
    }, 1);
    for (uint64_t c = 1; c < num_chunks; ++c) {
      if (chunk_last[c] == 0) chunk_last[c] = chunk_last[c - 1];
    }
    par::parallel_for(1, num_chunks, [&](uint64_t c) {
      key_type carry = chunk_last[c - 1];
      uint64_t lo = c * chunk, hi = std::min(num_leaves_, lo + chunk);
      for (uint64_t l = lo; l < hi && head_index_[l] == 0; ++l) {
        head_index_[l] = carry;
      }
    }, 1);
  }

  // ---- densities -----------------------------------------------------------

  uint64_t region_capacity(const ImplicitTree& t, NodeId n) const {
    return t.region_leaves(n) * leaf_bytes_;
  }

  uint64_t upper_bytes(const ImplicitTree& t, NodeId n) const {
    double frac = settings_.upper_at(n.height, t.height());
    return static_cast<uint64_t>(frac *
                                 static_cast<double>(region_capacity(t, n)));
  }

  uint64_t lower_bytes(const ImplicitTree& t, NodeId n) const {
    double frac = settings_.lower_at(n.height, t.height());
    return static_cast<uint64_t>(frac *
                                 static_cast<double>(region_capacity(t, n)));
  }

  uint64_t count_bytes(uint64_t leaf_lo, uint64_t leaf_hi) const {
    uint64_t total = 0;
    for (uint64_t l = leaf_lo; l < leaf_hi; ++l) {
      total += Leaf::used_bytes(leaf_ptr(l), leaf_bytes_);
    }
    return total;
  }

  // ---- point-update rebalancing ---------------------------------------------

  void rebalance_insert(uint64_t leaf) {
    ImplicitTree tree(num_leaves_);
    NodeId node = tree.leaf_node(leaf);
    uint64_t used = Leaf::used_bytes(leaf_ptr(leaf), leaf_bytes_);
    if (used <= upper_bytes(tree, node)) return;
    while (true) {
      if (tree.is_root(node)) {
        resize_rebuild(/*growing=*/true);
        return;
      }
      node = node.parent();
      used = count_bytes(tree.region_begin(node), tree.region_end(node));
      if (used <= upper_bytes(tree, node)) break;
    }
    redistribute_serial(tree, node);
  }

  void rebalance_remove(uint64_t leaf) {
    ImplicitTree tree(num_leaves_);
    NodeId node = tree.leaf_node(leaf);
    uint64_t used = Leaf::used_bytes(leaf_ptr(leaf), leaf_bytes_);
    if (used >= lower_bytes(tree, node)) return;
    while (true) {
      if (tree.is_root(node)) {
        resize_rebuild(/*growing=*/false);
        return;
      }
      node = node.parent();
      used = count_bytes(tree.region_begin(node), tree.region_end(node));
      if (used >= lower_bytes(tree, node)) break;
    }
    redistribute_serial(tree, node);
  }

  void redistribute_serial(const ImplicitTree& tree, NodeId node) {
    const uint64_t lo = tree.region_begin(node), hi = tree.region_end(node);
    std::vector<key_type> keys;
    for (uint64_t l = lo; l < hi; ++l) {
      Leaf::decode_append(leaf_ptr(l), leaf_bytes_, keys);
    }
    spread(lo, hi, keys.data(), keys.size());
    update_head_index(lo, hi);
  }

  // ---- spread (the redistribute primitive) ----------------------------------
  // Writes keys[0..n) into leaves [lo, hi), equalizing BYTE densities: the
  // paper's redistribution "spreads the elements evenly" — with compression,
  // evenly in encoded bytes. Parallel: per-key costs, prefix sums, split by
  // byte budget, write each leaf independently.
  void spread(uint64_t lo, uint64_t hi, const key_type* keys, uint64_t n);

  // Per-key incremental encoded cost used by spread.
  static uint64_t key_cost(key_type prev, key_type key, bool first);

  // Parallel equivalent of Leaf::encoded_size (a serial pass over millions
  // of keys otherwise shows up in every resize).
  uint64_t stream_size_parallel(const key_type* keys, uint64_t n) const {
    if (n == 0) return 0;
    if (n < 8192) return Leaf::encoded_size(keys, n);
    return 8 + par::parallel_sum<uint64_t>(1, n, [&](uint64_t i) {
             return key_cost(keys[i - 1], keys[i], false);
           });
  }

  // ---- resize ----------------------------------------------------------------

  kvec pack_all() const;
  void rebuild_into(uint64_t new_total_bytes, const key_type* keys,
                    uint64_t n);
  void rebuild_into(uint64_t new_total_bytes, const kvec& keys) {
    rebuild_into(new_total_bytes, keys.data(), keys.size());
  }
  uint64_t choose_total_bytes(uint64_t stream_bytes) const;
  // Resize sizing policy shared by the direct-spread and pack+rebuild
  // paths: grow by the configured factor until `bytes` comfortably respects
  // the root's upper bound (0.95 margin absorbs per-leaf head inflation),
  // shrink while the contents still fit a smaller array with room to spare.
  uint64_t resize_target_bytes(uint64_t bytes, bool growing) const {
    const double g = settings_.growth_factor;
    const uint64_t min_total = kMinLeaves * kMinLeafBytes;
    uint64_t nt = data_.size();
    if (growing) {
      do {
        nt = static_cast<uint64_t>(static_cast<double>(nt) * g) + 1;
      } while (static_cast<double>(bytes) >
               settings_.upper_root * 0.95 * static_cast<double>(nt));
      return nt;
    }
    while (nt > min_total) {
      uint64_t smaller = std::max<uint64_t>(
          min_total, static_cast<uint64_t>(static_cast<double>(nt) / g));
      if (smaller == nt) break;
      if (static_cast<double>(bytes) <=
          settings_.upper_root * 0.7 * static_cast<double>(smaller)) {
        nt = smaller;
      } else {
        break;
      }
    }
    return nt;
  }
  // Tries the direct spread first, falling back to pack + rebuild.
  void resize_rebuild(bool growing);
  // The old materializing resize: pack every key into a flat vector and
  // re-encode the whole structure. Kept as the fallback for density targets
  // that leave too little slack for verbatim splicing, and reused by the
  // huge-batch rebuild strategy's helpers.
  void resize_pack_rebuild(bool growing);

  // A destination-leaf boundary in the direct spread: the first key whose
  // content offset is at or past the boundary's byte target. `off`/`next`
  // are the key's code start / one-past-code offsets inside source leaf
  // `leaf` (off == 0 is the head); `kidx` is the key's index when the
  // source is an overflowed leaf's flat key vector. leaf == num_leaves_
  // marks "past the end"; off == kSliverOff marks a target that fell in the
  // sliver past the leaf's last key (resolved to the next nonempty head).
  struct SpreadSplit {
    uint64_t leaf = 0;
    size_t off = 0;
    size_t next = 0;
    key_type key = 0;
    uint64_t kidx = 0;
  };
  static constexpr size_t kSliverOff = SIZE_MAX;

  // Reusable arenas for the direct-spread resize (one per BatchContext; the
  // point-update paths use a local).
  struct ResizeScratch {
    util::uvector<uint64_t> prefix;  // per-leaf content bytes, then prefix sums
    util::uvector<key_type> last;    // per-leaf last key (0 = empty)
    util::uvector<SpreadSplit> splits;  // one per destination leaf, plus end
  };

  // Direct-spread resize (no flat key vector): computes per-leaf byte
  // prefix sums, sizes the new array from the exact concatenated stream
  // size, and stitches encoded source runs straight into the destination
  // leaves — splitting runs at leaf boundaries, re-encoding only at
  // source-leaf joins and promoted heads. `ctx` (nullable) supplies the
  // batch's overflowed leaves and the reusable arenas. Returns false
  // (structure untouched) when the byte budget cannot guarantee the slack
  // bound; the caller then packs and rebuilds.
  struct BatchContext;
  bool resize_spread(bool growing, BatchContext* ctx);

  // ---- batch machinery (pma_impl.hpp) ----------------------------------------
  //
  // The batch-update middle is a flat four-phase pipeline:
  //   1. route:        one parallel partition of the sorted batch (lockstep
  //                    descent when sparse, gallop when dense) emits a dense
  //                    (leaf, begin, end) work list, sorted by leaf; per-leaf
  //                    merges then run as one parallel_for over that list.
  //   2. overflow:     out-of-place leaf overflows are tracked by a flat
  //                    per-leaf slot array (kNoOverflow sentinel) — every
  //                    lookup in the later phases is one array load.
  //   3. count/redistribute: the counting cache is a sorted flat vector
  //                    merged in parallel between levels, and region
  //                    redistribution reuses BatchContext-owned arenas.
  //   4. measure:      phase boundaries feed BatchPhaseTimes (always on).

  struct Overflow {
    uint64_t leaf;
    std::vector<key_type> keys;  // full merged content of the leaf
    uint64_t bytes;              // true encoded size
  };

  // (leaf, bytes-after-merge): the merge phase hands its byte counts to the
  // counting phase so level-0 seeding never rescans leaves.
  struct TouchedLeaf {
    uint64_t leaf;
    uint64_t bytes;
  };

  // A maximal slice of the sorted batch routed to one leaf.
  struct LeafRun {
    uint64_t leaf;
    uint64_t begin;
    uint64_t end;
  };

  // Flat overflow tracking: overflow_slot_[leaf] indexes into the batch's
  // overflow list, or kNoOverflow. The array persists across batches with
  // the invariant that every entry is kNoOverflow between batches (each
  // batch resets exactly the slots it set).
  static constexpr uint32_t kNoOverflow = UINT32_MAX;

  // Sentinel byte count marking a routed leaf that a remove batch did not
  // actually change (filtered out before the counting phase).
  static constexpr uint64_t kUntouched = UINT64_MAX;

  // Reusable per-worker scratch for leaf merges. The tail-splice fast path
  // re-encodes into the leaf policy's MergeBuf; the materializing fallback
  // builds the merged key list. Merge tasks never fork, so worker-local
  // scratch cannot be re-entered by a stolen task.
  struct MergeScratch {
    std::vector<key_type> merged;
    typename Leaf::MergeBuf tail;
  };

  // Reusable per-worker pack scratch for small-region redistribution.
  struct RegionArena {
    util::uvector<uint64_t> counts;
    kvec buffer;
  };

  // (node_key, bytes) entry of the counting phase's sorted flat cache.
  using CountEntry = std::pair<uint64_t, uint64_t>;

  struct BatchContext {
    // Phase 1 (route): per-chunk run lists flattened into the dense work
    // list, plus per-run outputs written by index (no combining, no sort).
    std::vector<LeafRun> runs;
    std::vector<std::vector<LeafRun>> route_parts;
    util::uvector<TouchedLeaf> touched_dense;
    util::uvector<uint64_t> delta_dense;  // keys added / removed per run
    // Phase 1 (merge): per-worker scratch; overflows are rare and combined
    // once at the phase boundary.
    par::WorkerLocal<MergeScratch> scratch;
    par::WorkerLocal<std::vector<Overflow>> overflows;
    std::vector<Overflow> overflow_list;  // slot-indexed by overflow_slot_
    // Phase 3 arenas: region pack buffers and the counting cache, reused
    // across regions/levels instead of allocated per region.
    par::WorkerLocal<RegionArena> arenas;
    util::uvector<CountEntry> count_cache;    // sorted by node_key
    util::uvector<CountEntry> count_scratch;  // merge swap buffer
    util::uvector<CountEntry> fresh_all;
    // Direct-spread resize arenas (root-violation grows inside the batch).
    ResizeScratch resize;
  };

  // Phase 1 routing, shared by the batch updates and the batch queries:
  // fills `runs` with the batch's leaf runs (sorted by leaf, disjoint,
  // covering [0, n)); `parts` is per-chunk scratch.
  void route_runs(const key_type* batch, uint64_t n, std::vector<LeafRun>& runs,
                  std::vector<std::vector<LeafRun>>& parts) const;

  // Sparse/dense switch of the router. A batch with at most one key per
  // kSparseLeavesPerKey leaves routes by lockstep descent (route_sparse):
  // its keys are far apart, so a gallop over the flat index would pay
  // O(log gap) dependent misses per key. Denser batches gallop (route_chunk),
  // whose steps then stay within a cache line or two. Measured on 4.3e5
  // leaves, the two routers cost about the same at 16-50 leaves per key;
  // at 100+ the descent is 1.5-3x cheaper.
  static constexpr uint64_t kSparseLeavesPerKey = 16;
  bool sparse_batch(uint64_t n) const {
    return n * kSparseLeavesPerKey <= num_leaves_;
  }
  // Chunks a sparse batch splits into: one per worker, and no more than it
  // has lockstep groups.
  uint64_t sparse_chunks(uint64_t n) const {
    return std::min<uint64_t>(
        par::Scheduler::instance().num_workers(),
        util::div_round_up(n, EytzingerHeadIndex::kGroup));
  }

  // Sparse routing of batch[lo, hi): descends kGroup keys at a time in
  // lockstep through the Eytzinger mirror, then calls emit(LeafRun) for
  // every run of equal leaves whose first key lies in [lo, hi). A run
  // continuing past hi is extended to its true end (and the next chunk
  // skips it), so runs from different chunks are disjoint, exactly as
  // route_chunk's are. kProbe: emit probes the leaf right away, so each
  // group's target leaves are prefetched before its runs are emitted. (The
  // write path merges in a later phase; prefetching there only competes
  // with the next group's descent for line-fill buffers.)
  template <bool kProbe, typename Emit>
  void route_sparse(const key_type* batch, uint64_t n, uint64_t lo,
                    uint64_t hi, Emit&& emit) const;
  // Dense routing of batch[lo, hi): gallops leaf by leaf over the flat index.
  void route_chunk(const key_type* batch, uint64_t n, uint64_t lo, uint64_t hi,
                   std::vector<LeafRun>& out) const;

  // Calls f(run) for every leaf run of the sorted batch, concurrently across
  // runs. Sparse batches probe each chunk's runs inside the chunk's routing
  // task, right behind the leaf prefetches; dense batches route first, then
  // run f over the run list at the merge phase's grain.
  template <typename F>
  void for_each_run(const key_type* batch, uint64_t n, F&& f) const;

  // Leaf lines prefetched ahead of a sparse probe: a whole 512-byte leaf;
  // larger leaves get their first 512 bytes, where a search starts.
  static constexpr uint64_t kPrefetchLeafBytes = 512;
  void prefetch_leaf(uint64_t l) const {
    const uint8_t* lp = leaf_ptr(l);
    const uint64_t bytes = std::min<uint64_t>(leaf_bytes_, kPrefetchLeafBytes);
    for (uint64_t off = 0; off < bytes; off += 64) __builtin_prefetch(lp + off);
  }

  // End of the batch run routed to leaf l that contains batch index i, and
  // the first candidate leaf for the next run (num_leaves_ if none).
  std::pair<uint64_t, uint64_t> run_end(uint64_t l, const key_type* batch,
                                        uint64_t n, uint64_t i) const;
  // find_leaf restricted to leaves >= from (preconditions: `from` is the
  // first leaf of its equal-head run and head_index_[from] <= key), used by
  // the routing gallop and map_ranges. Gallops from `from`: O(log gap).
  uint64_t find_leaf_from(uint64_t from, key_type key) const {
    // Consecutive runs usually route to consecutive leaves: if the key sits
    // below the next head, it belongs to `from` and no search is needed.
    const uint64_t nx = from + 1;
    if (nx >= num_leaves_ || key < head_index_[nx]) return from;
    // head_index_[nx] <= key, so the last entry <= key is at or after nx;
    // its run starts no earlier than `from`.
    const uint64_t last = first_head_above(nx + 1, key) - 1;
    return static_cast<uint64_t>(
        std::lower_bound(head_index_.begin() + from,
                         head_index_.begin() + last, head_index_[last]) -
        head_index_.begin());
  }

  void merge_into_leaf(uint64_t leaf, const key_type* keys, uint64_t k,
                       uint64_t slot, BatchContext& ctx);
  void remove_from_leaf(uint64_t leaf, const key_type* keys, uint64_t k,
                        uint64_t slot, BatchContext& ctx);

  // Binds/releases the overflow slot array for ctx.overflow_list.
  void bind_overflow_slots(BatchContext& ctx);
  void release_overflow_slots(BatchContext& ctx);

  uint64_t leaf_bytes_aware(uint64_t leaf, const BatchContext& ctx) const;

  // Work-efficient counting phase; fills `roots` with the maximal nodes to
  // redistribute. Returns false if the root's bound is violated (caller must
  // resize-rebuild). `touched` is sorted by leaf.
  bool counting_phase(const TouchedLeaf* touched, uint64_t num_touched,
                      BatchContext& ctx, bool is_insert,
                      std::vector<NodeId>* roots);

  // Incremental head-index repair after a batch: only leaves that were
  // merged into or covered by a redistribution region can have changed
  // heads (full-array rebuilds are O(num_leaves), which would dominate
  // small batches).
  void update_index_after_batch(const TouchedLeaf* touched,
                                uint64_t num_touched,
                                const std::vector<NodeId>& roots) {
    ImplicitTree tree(num_leaves_);
    std::vector<std::pair<uint64_t, uint64_t>> intervals;
    intervals.reserve(roots.size() + num_touched);
    for (NodeId r : roots) {
      intervals.emplace_back(tree.region_begin(r), tree.region_end(r));
    }
    for (uint64_t t = 0; t < num_touched; ++t) {
      intervals.emplace_back(touched[t].leaf, touched[t].leaf + 1);
    }
    std::sort(intervals.begin(), intervals.end());
    uint64_t covered = 0;
    for (auto [lo, hi] : intervals) {
      if (hi <= covered) continue;
      update_head_index(std::max(lo, covered), hi);
      covered = hi;
    }
  }

  void redistribute_parallel(const std::vector<NodeId>& roots,
                             BatchContext& ctx);

  // Shared prologue of insert_batch / remove_batch: sort, strip the key-0
  // sentinel, and apply small batches as point updates. done == true means
  // the batch was fully handled and `delta` is the return value.
  struct BatchPrologue {
    const key_type* keys = nullptr;
    uint64_t n = 0;
    uint64_t delta = 0;
    bool done = false;
  };
  template <bool IsInsert>
  BatchPrologue batch_prologue(key_type* input, uint64_t n, bool sorted);

  uint64_t insert_batch_merge(const key_type* batch, uint64_t n);
  uint64_t insert_batch_rebuild(const key_type* batch, uint64_t n);
  uint64_t remove_batch_merge(const key_type* batch, uint64_t n);
  uint64_t remove_batch_rebuild(const key_type* batch, uint64_t n);

  // ---- members ----------------------------------------------------------------

  PmaSettings settings_;
  // The leaf array and the head index are the engine's large allocations:
  // huge-page backed once they reach 2 MiB (util/huge_pages.hpp).
  util::huge_uvector<uint8_t> data_;
  size_t leaf_bytes_ = 0;
  uint64_t num_leaves_ = 0;
  uint64_t count_ = 0;
  bool has_zero_ = false;
  util::huge_vector<key_type> head_index_;
  EytzingerHeadIndex eytz_;  // branchless mirror of head_index_ (see above)
  util::uvector<uint32_t> overflow_slot_;  // all kNoOverflow between batches
  BatchPhaseTimes phase_times_;
};

}  // namespace cpma::pma

#include "pma/pma_impl.hpp"  // IWYU pragma: keep
