// Vertex index over a sorted edge-key store: first-edge position, edge
// rank, and degree per vertex, rebuilt in one parallel pass over the
// store's leaves.
//
// Extracted from FGraphT::prepare() so the same build runs over anything
// exposing the flattened-leaf surface: a single engine (CPMA), or any
// sharded composition through ShardedReads (pma/sharded_reads.hpp) — a
// ShardedPMA, or a pinned immutable SnapshotView (graph/streaming.hpp).
// Positions stored in the index are invalidated by ANY update to a
// mutable source — callers either rebuild after batches (FGraph protocol)
// or build over an immutable epoch-pinned view, where positions stay
// valid for the life of the pin.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/edge.hpp"
#include "parallel/scan.hpp"
#include "parallel/scheduler.hpp"

namespace cpma::graph {

template <typename Source>
class VertexIndex {
 public:
  using Position = typename Source::Position;

  // Rebuilds the index for vertices [0, n) from `src`'s current leaves.
  // Cost is part of algorithm time, exactly the paper's Section 6 protocol
  // ("this experiment rebuilds the vertex array with each run").
  void build(const Source& src, vertex_t n) {
    n_ = n;
    first_.resize(n_);
    rank_.resize(static_cast<size_t>(n_) + 1);
    has_edges_.resize(n_);
    par::parallel_for(0, n_, [&](uint64_t v) {
      rank_[v] = kNoRank;
      has_edges_[v] = 0;
    });
    rank_[n_] = kNoRank;
    const uint64_t leaves = src.num_leaves();
    // Rank offset of each leaf.
    std::vector<uint64_t> offsets(leaves);
    par::parallel_for(0, leaves, [&](uint64_t l) {
      offsets[l] = src.leaf_element_count(l);
    }, 8);
    uint64_t total = par::exclusive_scan_inplace(offsets);
    // Per-leaf: record vertex starts at src changes inside the leaf, plus
    // the position of each leaf's first key; the first key starts a vertex
    // iff the previous nonempty leaf ended with a different src (stitched
    // below with no rescanning).
    std::vector<uint64_t> first_src(leaves, kNoVertex);
    std::vector<uint64_t> last_src(leaves, kNoVertex);
    std::vector<Position> first_pos(leaves);
    par::parallel_for(0, leaves, [&](uint64_t l) {
      uint64_t idx = 0;
      uint64_t prev_src = kNoVertex;
      src.scan_leaf_positions(l, [&](Position pos, uint64_t key) {
        vertex_t s = edge_src(key);
        if (idx == 0) {
          first_src[l] = s;
          first_pos[l] = pos;
        }
        if (prev_src != kNoVertex && s != prev_src) {
          first_[s] = pos;
          rank_[s] = offsets[l] + idx;
          has_edges_[s] = 1;
        }
        prev_src = s;
        last_src[l] = s;
        ++idx;
      });
    }, 4);
    // Stitch leaf boundaries: a leaf's first key starts its vertex iff no
    // earlier nonempty leaf ended with the same src.
    uint64_t prev = kNoVertex;
    for (uint64_t l = 0; l < leaves; ++l) {
      if (first_src[l] == kNoVertex) continue;  // empty leaf
      if (first_src[l] != prev) {
        vertex_t s = static_cast<vertex_t>(first_src[l]);
        first_[s] = first_pos[l];
        rank_[s] = offsets[l];
        has_edges_[s] = 1;
      }
      prev = last_src[l];
    }
    // Degrees: distance between consecutive ranks (reverse chunked carry so
    // the O(n) pass is parallel).
    rank_[n_] = total;
    degree_.resize(n_);
    const uint64_t chunk = 8192;
    const uint64_t num_chunks = (n_ + chunk - 1) / chunk;
    std::vector<uint64_t> chunk_first_rank(num_chunks + 1, total);
    par::parallel_for(0, num_chunks, [&](uint64_t c) {
      uint64_t lo = c * chunk, hi = std::min<uint64_t>(n_, lo + chunk);
      for (uint64_t v = lo; v < hi; ++v) {
        if (has_edges_[v]) {
          chunk_first_rank[c] = rank_[v];
          break;
        }
      }
    }, 1);
    // Backward carry: first set rank at or after each chunk's end.
    std::vector<uint64_t> carry(num_chunks, total);
    uint64_t run = total;
    for (uint64_t c = num_chunks; c-- > 0;) {
      carry[c] = run;
      if (chunk_first_rank[c] != total) run = chunk_first_rank[c];
    }
    par::parallel_for(0, num_chunks, [&](uint64_t c) {
      uint64_t lo = c * chunk, hi = std::min<uint64_t>(n_, lo + chunk);
      uint64_t next_rank = carry[c];
      for (uint64_t v = hi; v-- > lo;) {
        if (has_edges_[v]) {
          degree_[v] = next_rank - rank_[v];
          next_rank = rank_[v];
        } else {
          degree_[v] = 0;
        }
      }
    }, 1);
    valid_ = true;
  }

  bool valid() const { return valid_; }
  void invalidate() { valid_ = false; }

  vertex_t num_vertices() const { return n_; }
  bool has_edges(vertex_t v) const { return has_edges_[v] != 0; }
  const Position& first(vertex_t v) const { return first_[v]; }
  uint64_t degree(vertex_t v) const { return degree_[v]; }

  uint64_t bytes() const {
    return first_.capacity() * sizeof(Position) + rank_.capacity() * 8 +
           degree_.capacity() * 8 + has_edges_.capacity();
  }

 private:
  static constexpr uint64_t kNoVertex = ~uint64_t{0};
  static constexpr uint64_t kNoRank = ~uint64_t{0};

  vertex_t n_ = 0;
  bool valid_ = false;
  std::vector<Position> first_;
  std::vector<uint64_t> rank_;
  std::vector<uint64_t> degree_;
  std::vector<uint8_t> has_edges_;
};

}  // namespace cpma::graph
