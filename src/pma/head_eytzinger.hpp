// Branchless Eytzinger-layout mirror of the engine's flat head index: the
// engine's one leaf-descent kernel.
//
// The flat `head_index_` (one key per leaf; empty leaves inherit their
// predecessor's head) stays the source of truth — the dense routing
// gallop, the map_range early-exit checks, and every repair path keep
// reading it by position. This structure is a read-kernel MIRROR of it,
// rebuilt/patched at exactly the points that touch the flat index, and
// answers every key-to-leaf descent (`find_leaf`, and the sparse batch
// router's `find_leaves`) with one cache-friendly walk:
//
//  * BFS (Eytzinger) layout: the descent touches one node per level, and
//    every node's near descendants share a cache line, so a software
//    prefetch three levels ahead hides most of the misses a binary search
//    over a large flat array pays serially.
//  * Branchless: each step is `k = 2k + (keys_[k] <= key)` — no compare
//    jump for the predictor to miss on random query keys.
//  * Lockstep groups: `find_leaves` walks a group of keys level by level
//    together, so the group's loads at one level are independent and
//    overlap in the memory system (group prefetching, Kocberber et al.,
//    VLDB 2015) instead of each key paying its levels' misses back to back.
//  * Equal-head-run disambiguation folded into the layout: a flat search
//    needs a SECOND binary search to map the located entry to the first
//    leaf of its run of equal entries (runs arise from empty-leaf
//    inheritance). Here every BFS slot stores `leaf_of_` — the run-first
//    leaf — precomputed at build/repair time, so the descent's answer is
//    one array load.
//
// The arrays sit on the huge-page allocator (util/huge_pages.hpp): at a
// few hundred thousand leaves the node array spans MiBs, and every level
// below the cached top is otherwise a TLB miss as well as a cache miss.
//
// Maintenance contract (enforced by PackedMemoryArray::check_invariants):
//  * build(head) whenever the leaf count changes (rebuild_head_index);
//  * repair(head, lo, hi) after update_head_index writes entries [lo, hi)
//    — `hi` must cover the trailing empty-leaf propagation too. repair
//    recomputes run_first over [lo, hi) only; that is sufficient because a
//    nonempty leaf is always its own run-first (heads are distinct stored
//    keys; equal entries only ever come from empty-leaf inheritance), and
//    update_head_index's walk always ends at the array end or at a
//    nonempty leaf, whose run_first is unchanged.
//
// Queries are wait-free const reads; all mutation happens on the engine's
// single-writer paths, exactly like the flat index.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "util/huge_pages.hpp"

namespace cpma::pma {

class EytzingerHeadIndex {
 public:
  using key_type = uint64_t;

  // Keys the sparse router descends in lockstep: enough independent loads
  // per level to cover DRAM latency, few enough that the group's node
  // cursors stay in registers or L1.
  static constexpr size_t kGroup = 16;

  bool built() const { return n_ != 0; }
  uint64_t size() const { return n_; }

  // (Re)builds the mirror from the flat head index.
  void build(std::span<const key_type> head) {
    n_ = head.size();
    full_levels_ = static_cast<uint32_t>(std::bit_width(n_ + 1) - 1);
    keys_.resize(n_ + 1);
    leaf_of_.resize(n_ + 1);
    pos_of_.resize(n_);
    run_first_.resize(n_);
    keys_[0] = 0;
    leaf_of_[0] = 0;
    for (uint64_t l = 0; l < n_; ++l) {
      run_first_[l] = (l > 0 && head[l] == head[l - 1])
                          ? run_first_[l - 1]
                          : static_cast<uint32_t>(l);
    }
    uint64_t next = 0;
    fill(head, 1, next);
  }

  // Patches the mirror after the flat index rewrote entries [lo, hi).
  void repair(std::span<const key_type> head, uint64_t lo, uint64_t hi) {
    for (uint64_t l = lo; l < hi; ++l) {
      run_first_[l] = (l > 0 && head[l] == head[l - 1])
                          ? run_first_[l - 1]
                          : static_cast<uint32_t>(l);
      const uint32_t p = pos_of_[l];
      keys_[p] = head[l];
      leaf_of_[p] = run_first_[l];
    }
  }

  // First leaf of the equal-head run owning `key`: the run ending at the
  // last head-index entry <= key, or leaf 0 when every entry exceeds key.
  uint64_t find_leaf(key_type key) const {
    uint64_t leaf;
    find_leaves<1>(&key, &leaf);
    return leaf;
  }

  // out[i] = find_leaf(q[i]) for i < G, descending all G keys in lockstep.
  // G is a compile-time count so every group loop unrolls; G = 1 is the
  // single-key descent.
  template <size_t G>
  void find_leaves(const key_type* q, uint64_t* out) const {
    const key_type* keys = keys_.data();
    uint64_t k[G];
    for (size_t i = 0; i < G; ++i) k[i] = 1;
    // Levels 0 .. full_levels_-1 exist for every path, so every key takes
    // exactly full_levels_ steps there — no per-key bounds check.
    for (uint32_t level = 0; level < full_levels_; ++level) {
      for (size_t i = 0; i < G; ++i) {
        // Descendants three levels down share (about) one cache line of
        // 8-byte keys; fetching them now hides the miss the deeper loads
        // would otherwise pay.
        __builtin_prefetch(keys + (k[i] << 3));
        k[i] = 2 * k[i] + (keys[k[i]] <= q[i]);
      }
    }
    // The last, partial level: only paths that reach an existing node step.
    for (size_t i = 0; i < G; ++i) {
      if (k[i] <= n_) k[i] = 2 * k[i] + (keys[k[i]] <= q[i]);
    }
    // The answer is the node where the descent last went right (the last
    // entry <= key): strip the trailing left-moves, then step to the node
    // the final right-move was taken FROM. 0 afterwards means no
    // right-move ever happened — every entry exceeds the key — which
    // answers leaf 0.
    for (size_t i = 0; i < G; ++i) {
      k[i] >>= (std::countr_zero(k[i]) + 1);
      out[i] = k[i] == 0 ? 0 : leaf_of_[k[i]];
    }
  }

  // Introspection for check_invariants: the mirror entry for flat slot l.
  key_type key_at(uint64_t l) const { return keys_[pos_of_[l]]; }
  uint64_t run_first_at(uint64_t l) const { return leaf_of_[pos_of_[l]]; }

 private:
  // In-order walk: BFS slot k receives the next flat entry, so the BFS
  // array is a permutation of the sorted flat array.
  void fill(std::span<const key_type> head, uint64_t k, uint64_t& next) {
    if (k > n_) return;
    fill(head, 2 * k, next);
    keys_[k] = head[next];
    leaf_of_[k] = run_first_[next];
    pos_of_[next] = static_cast<uint32_t>(k);
    ++next;
    fill(head, 2 * k + 1, next);
  }

  uint64_t n_ = 0;
  uint32_t full_levels_ = 0;  // levels with every node present
  util::huge_uvector<key_type> keys_;      // BFS-order heads; slot 0 unused
  util::huge_uvector<uint32_t> leaf_of_;   // BFS slot -> run-first flat leaf
  util::huge_uvector<uint32_t> pos_of_;    // flat leaf -> BFS slot
  util::huge_uvector<uint32_t> run_first_; // flat leaf -> first leaf of its run
};

}  // namespace cpma::pma
