// ShardedReads<Derived, Engine> — the read surface of a sharded
// composition, written once.
//
// A sharded composition (ShardedPMA, the serving layer's immutable
// SnapshotView, and the epoch-pinned ServingPMA::Snapshot over it) is S
// engines whose key ranges are disjoint and ascending: shard i+1 owns keys
// >= splitters()[i], shard 0 everything below splitters()[0] (including the
// key-0 sentinel). Derived exposes three accessors —
//
//   uint64_t num_shards() const;
//   const Engine& shard(uint64_t s) const;
//   const std::vector<uint64_t>& splitters() const;
//
// — and inherits the whole read API from this CRTP mixin:
//
//  * routing: shard_for (the one place the splitter rule is written) and
//    partition_batch (the exponential gallop that slices a sorted batch);
//  * point reads: has / successor / min / max, size / empty;
//  * scans: map / map_range / map_range_length, stitched in key order
//    (shard ranges ascend, so concatenation is global key order);
//  * batch queries: has_batch / successor_batch / map_ranges, one sibling
//    task per shard slice with each engine's inner parallelism underneath;
//  * a stitched forward const_iterator;
//  * the flattened-leaf surface the graph vertex index is built on
//    (graph/vertex_index.hpp): global leaf l is shard 0's leaves, then
//    shard 1's, and so on. A flat Position is (shard, engine Position);
//    like engine positions it is invalidated by ANY update — callers
//    rebuild after batches, or hold an epoch pin over an immutable view.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "parallel/scheduler.hpp"

namespace cpma::pma {

// At namespace scope, not nested in the mixin, so every composition over
// one Engine shares a single Position type.
template <typename Engine>
struct FlatPosition {
  uint64_t shard = 0;
  typename Engine::Position inner{};
};

template <typename Derived, typename Engine>
class ShardedReads {
 public:
  using key_type = uint64_t;
  using Position = FlatPosition<Engine>;

  // Shard owning `key`: the number of splitters <= key.
  uint64_t shard_for(key_type key) const {
    const std::vector<key_type>& sp = self().splitters();
    return static_cast<uint64_t>(
        std::upper_bound(sp.begin(), sp.end(), key) - sp.begin());
  }

  // ---- size ---------------------------------------------------------------

  uint64_t size() const {
    uint64_t total = 0;
    for (uint64_t s = 0; s < self().num_shards(); ++s) {
      total += self().shard(s).size();
    }
    return total;
  }

  // Short-circuits on the first non-empty shard instead of summing all S
  // shard sizes — empty() sits on hot guard paths (splitter seeding, the
  // serving layer's per-op checks) where the O(S) size() walk showed up.
  bool empty() const {
    for (uint64_t s = 0; s < self().num_shards(); ++s) {
      if (!self().shard(s).empty()) return false;
    }
    return true;
  }

  // ---- point reads --------------------------------------------------------

  bool has(key_type key) const { return self().shard(shard_for(key)).has(key); }

  std::optional<key_type> successor(key_type key) const {
    for (uint64_t s = shard_for(key); s < self().num_shards(); ++s) {
      if (auto v = self().shard(s).successor(key)) return v;
    }
    return std::nullopt;
  }

  // Empty set -> nullopt (key 0 is a real, storable key).
  std::optional<key_type> min() const {
    for (uint64_t s = 0; s < self().num_shards(); ++s) {
      if (auto v = self().shard(s).min()) return v;
    }
    return std::nullopt;
  }

  std::optional<key_type> max() const {
    for (uint64_t s = self().num_shards(); s-- > 0;) {
      if (auto v = self().shard(s).max()) return v;
    }
    return std::nullopt;
  }

  // ---- scans --------------------------------------------------------------

  // Applies f(key) to every key in sorted order.
  template <typename F>
  void map(F&& f) const {
    for (uint64_t s = 0; s < self().num_shards(); ++s) self().shard(s).map(f);
  }

  // Applies f to keys in [start, end), in order.
  template <typename F>
  void map_range(F&& f, key_type start, key_type end) const {
    if (start >= end) return;
    for (uint64_t s = shard_for(start); s < self().num_shards(); ++s) {
      // Shard s's lower bound at/after `end` means no further shard
      // overlaps the range.
      if (s > 0 && self().splitters()[s - 1] >= end) break;
      self().shard(s).map_range(f, start, end);
    }
  }

  // Applies f to at most `length` keys starting from the smallest key
  // >= start; returns how many were applied.
  template <typename F>
  uint64_t map_range_length(F&& f, key_type start, uint64_t length) const {
    uint64_t applied = 0;
    for (uint64_t s = shard_for(start);
         s < self().num_shards() && applied < length; ++s) {
      applied += self().shard(s).map_range_length(f, start, length - applied);
    }
    return applied;
  }

  // ---- batch queries ------------------------------------------------------
  // Sorted query batches are partitioned against the splitters and each
  // shard's slice runs as a sibling task with the engine's full inner
  // parallelism underneath. All slices write one shared output: bitmap
  // words via relaxed atomic ORs (the engine's bit protocol), out[] slots
  // per-query exclusive. Over an immutable view any number of reader
  // threads may run these concurrently — the serving multi-get surface.

  void has_batch(const key_type* keys, uint64_t n, uint64_t* bits,
                 uint64_t bit_base = 0) const {
    if (n == 0) return;
    std::vector<uint64_t> bounds;
    partition_batch(keys, n, bounds);
    par::parallel_for(0, self().num_shards(), [&](uint64_t s) {
      const uint64_t b = bounds[s], e = bounds[s + 1];
      if (e > b) self().shard(s).has_batch(keys + b, e - b, bits, bit_base + b);
    }, 1);
  }

  std::vector<uint64_t> has_batch(const key_type* keys, uint64_t n) const {
    std::vector<uint64_t> bits((n + 63) / 64, 0);
    has_batch(keys, n, bits.data(), 0);
    return bits;
  }

  // Per-shard successor_batch, then one stitch pass: queries whose slice
  // shard holds no key >= them (the slice's unfound SUFFIX — slices are
  // sorted) share one answer, the next nonempty shard's minimum.
  void successor_batch(const key_type* keys, uint64_t n, key_type* out,
                       uint64_t* found, uint64_t bit_base = 0) const {
    if (n == 0) return;
    const uint64_t s_count = self().num_shards();
    std::vector<uint64_t> bounds;
    partition_batch(keys, n, bounds);
    par::parallel_for(0, s_count, [&](uint64_t s) {
      const uint64_t b = bounds[s], e = bounds[s + 1];
      if (e > b) {
        self().shard(s).successor_batch(keys + b, e - b, out + b, found,
                                        bit_base + b);
      }
    }, 1);
    // next_min: smallest key in any shard after s (the shared answer for
    // shard s's spill-over queries). The parallel_for above joined, so the
    // found bits are plainly readable here.
    std::optional<key_type> next_min;
    for (uint64_t s = s_count; s-- > 0;) {
      if (next_min) {
        for (uint64_t q = bounds[s + 1]; q-- > bounds[s];) {
          const uint64_t bit = bit_base + q;
          if ((found[bit >> 6] >> (bit & 63)) & 1) break;  // found suffix ends
          out[q] = *next_min;
          found[bit >> 6] |= uint64_t{1} << (bit & 63);
        }
      }
      if (auto v = self().shard(s).min()) next_min = v;
    }
  }

  // Engine map_ranges stitched across shards: each shard receives the slice
  // of ranges overlapping its key span (a range straddling a splitter goes
  // to every shard it crosses — each emits only its stored keys, so the
  // union is exact). Same f contract as the engine, plus: one straddling
  // range's keys may arrive from different shard tasks concurrently.
  template <typename F>
  void map_ranges(const std::pair<key_type, key_type>* ranges, uint64_t m,
                  F&& f) const {
    if (m == 0) return;
    const uint64_t s_count = self().num_shards();
    const std::vector<key_type>& sp = self().splitters();
    std::vector<std::pair<uint64_t, uint64_t>> slices(s_count);
    uint64_t rb = 0;
    for (uint64_t s = 0; s < s_count; ++s) {
      const key_type lo = s == 0 ? 0 : sp[s - 1];
      while (rb < m && ranges[rb].second <= lo) ++rb;
      uint64_t re = rb;
      while (re < m && (s + 1 >= s_count || ranges[re].first < sp[s])) ++re;
      slices[s] = {rb, re};
    }
    par::parallel_for(0, s_count, [&](uint64_t s) {
      auto [b, e] = slices[s];
      if (e > b) {
        self().shard(s).map_ranges(
            ranges + b, e - b,
            [&, b](uint64_t ri, key_type k) { f(b + ri, k); });
      }
    }, 1);
  }

  // ---- iteration ----------------------------------------------------------

  class const_iterator {
   public:
    using value_type = key_type;
    using difference_type = std::ptrdiff_t;
    using reference = key_type;
    using pointer = const key_type*;
    using iterator_category = std::forward_iterator_tag;

    const_iterator() = default;
    key_type operator*() const { return *it_; }

    const_iterator& operator++() {
      ++it_;
      advance_past_empty();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator copy = *this;
      ++*this;
      return copy;
    }

    bool operator==(const const_iterator& o) const {
      if (shard_ != o.shard_) return false;
      if (owner_ == nullptr || shard_ == owner_->num_shards()) return true;
      return it_ == o.it_;
    }

   private:
    friend class ShardedReads;
    const_iterator(const Derived* owner, uint64_t shard)
        : owner_(owner), shard_(shard) {
      if (shard_ < owner_->num_shards()) {
        it_ = owner_->shard(shard_).begin();
        advance_past_empty();
      }
    }

    void advance_past_empty() {
      while (shard_ < owner_->num_shards() &&
             it_ == owner_->shard(shard_).end()) {
        if (++shard_ < owner_->num_shards()) {
          it_ = owner_->shard(shard_).begin();
        }
      }
    }

    const Derived* owner_ = nullptr;
    uint64_t shard_ = 0;
    typename Engine::const_iterator it_{};
  };

  const_iterator begin() const { return const_iterator(&self(), 0); }
  const_iterator end() const {
    return const_iterator(&self(), self().num_shards());
  }

  // ---- flattened-leaf iteration (graph vertex index) ----------------------

  uint64_t num_leaves() const {
    uint64_t total = 0;
    for (uint64_t s = 0; s < self().num_shards(); ++s) {
      total += self().shard(s).num_leaves();
    }
    return total;
  }

  uint64_t leaf_element_count(uint64_t l) const {
    const auto [s, local] = locate(l);
    return self().shard(s).leaf_element_count(local);
  }

  template <typename F>
  void scan_leaf_positions(uint64_t l, F&& f) const {
    const auto [s, local] = locate(l);
    self().shard(s).scan_leaf_positions(
        local, [&, s = s](typename Engine::Position pos, uint64_t key) {
          f(Position{s, pos}, key);
        });
  }

  template <typename F>
  void scan_leaf_keys(uint64_t l, F&& f) const {
    const auto [s, local] = locate(l);
    self().shard(s).scan_leaf_keys(local, f);
  }

  // Iterates keys from `pos` (inclusive) while f(key) returns true,
  // continuing across leaf AND shard boundaries.
  template <typename F>
  void map_from_position(Position pos, F&& f) const {
    bool more = true;
    auto wrapped = [&](uint64_t key) {
      more = f(key);
      return more;
    };
    self().shard(pos.shard).map_from_position(pos.inner, wrapped);
    for (uint64_t s = pos.shard + 1; more && s < self().num_shards(); ++s) {
      const Engine& e = self().shard(s);
      for (uint64_t l = 0; l < e.num_leaves(); ++l) {
        if (auto first = e.leaf_first_position(l)) {
          e.map_from_position(*first, wrapped);
          break;  // the engine continues to its own end internally
        }
      }
    }
  }

 protected:
  // bounds[i] = first batch index routed to shard i; bounds[S] = n. Same
  // exponential-gallop-then-binary-search idiom as the engine's run_end:
  // gallop from the previous boundary, bounded search over the last gap.
  void partition_batch(const key_type* batch, uint64_t n,
                       std::vector<uint64_t>& bounds) const {
    const uint64_t s_count = self().num_shards();
    const std::vector<key_type>& sp = self().splitters();
    bounds.assign(s_count + 1, n);
    bounds[0] = 0;
    uint64_t pos = 0;
    for (uint64_t i = 0; i + 1 < s_count; ++i) {
      if (pos < n && batch[pos] < sp[i]) {
        uint64_t lo = pos, step = 1;
        while (lo + step < n && batch[lo + step] < sp[i]) {
          lo += step;
          step *= 2;
        }
        const uint64_t hi = std::min(lo + step, n);
        pos = static_cast<uint64_t>(
            std::lower_bound(batch + lo, batch + hi, sp[i]) - batch);
      }
      bounds[i + 1] = pos;
    }
  }

 private:
  const Derived& self() const { return static_cast<const Derived&>(*this); }

  // Global leaf l -> (shard, local leaf). Walks the shard prefix per call —
  // O(S) with S <= 64, noise next to the leaf scan each call performs.
  std::pair<uint64_t, uint64_t> locate(uint64_t l) const {
    uint64_t s = 0;
    while (l >= self().shard(s).num_leaves()) {
      l -= self().shard(s).num_leaves();
      ++s;
    }
    return {s, l};
  }
};

}  // namespace cpma::pma
