// F-Graph: the paper's dynamic-graph system built on one edge-key set.
//
// The whole graph lives in one compressed array of (src<<32)|dst edge keys —
// no vertex array, no per-vertex trees, no pointers. Neighborhoods are
// contiguous runs of the sorted key space; the vertex index (first-edge
// position + rank per vertex, graph/vertex_index.hpp) is an acceleration
// structure rebuilt after updates, exactly the protocol Section 6 describes
// ("this experiment rebuilds the vertex array with each run of the
// algorithm").
//
// Batch updates go straight to Set::insert_batch / remove_batch, which is
// where F-Graph inherits the paper's parallel batch-update algorithm. Set
// can be a single engine (CPMA/PMA) or a ShardedPMA — the sharded store
// exposes the same flattened-leaf surface (pma/sharded_reads.hpp). For
// serving-layer stores with concurrent readers, see graph/streaming.hpp.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/edge.hpp"
#include "graph/vertex_index.hpp"
#include "parallel/scheduler.hpp"
#include "pma/cpma.hpp"

namespace cpma::graph {

template <typename Set = cpma::CPMA>
class FGraphT {
 public:
  explicit FGraphT(vertex_t num_vertices) : n_(num_vertices) {}

  FGraphT(vertex_t num_vertices, std::vector<uint64_t> edges)
      : n_(num_vertices) {
    insert_edges(std::move(edges));
  }

  vertex_t num_vertices() const { return n_; }
  uint64_t num_edges() const { return edges_.size(); }

  // Inserts a batch of directed edge keys (duplicates allowed); returns the
  // number of new edges.
  uint64_t insert_edges(std::vector<uint64_t> edges) {
    index_.invalidate();
    return edges_.insert_batch(edges.data(), edges.size());
  }

  uint64_t remove_edges(std::vector<uint64_t> edges) {
    index_.invalidate();
    return edges_.remove_batch(edges.data(), edges.size());
  }

  bool has_edge(vertex_t u, vertex_t v) const {
    return edges_.has(edge_key(u, v));
  }

  // Rebuilds the vertex index. Algorithms call prepare(); its cost is part
  // of algorithm time, as in the paper's evaluation.
  void prepare() { index_.build(edges_, n_); }

  uint64_t degree(vertex_t v) const { return index_.degree(v); }

  // Applies f(dst) to v's neighbors in ascending order. Requires prepare().
  template <typename F>
  void map_neighbors(vertex_t v, F&& f) const {
    if (!index_.has_edges(v)) return;
    // Last key of v's range (avoids vertex_t overflow at v = 2^32 - 1).
    const uint64_t hi = (static_cast<uint64_t>(v) << 32) | 0xffffffffull;
    edges_.map_from_position(index_.first(v), [&](uint64_t key) {
      if (key > hi) return false;
      f(edge_dst(key));
      return true;
    });
  }

  // Flat arbitrary-order pass: one parallel scan over the single edge array,
  // reducing val(dst) with `comb` over each maximal same-src run within a
  // leaf and flushing via emit(src, partial). A vertex whose neighborhood
  // spans leaf boundaries gets one emit per leaf, so emit must be
  // commutative-associative (atomic add / atomic min at the caller).
  //
  // This is the paper's "arbitrary-order algorithms such as PR ... can be
  // cast as a straightforward pass through the data structure": no vertex
  // index, no per-vertex searches, pure sequential bandwidth.
  template <typename T, typename Val, typename Combine, typename Emit>
  void scan_neighbor_runs(T identity, Val&& val, Combine&& comb,
                          Emit&& emit) const {
    const uint64_t leaves = edges_.num_leaves();
    par::parallel_for(0, leaves, [&](uint64_t l) {
      uint64_t cur_src = kNoVertex;
      T acc = identity;
      edges_.scan_leaf_keys(l, [&](uint64_t key) {
        uint64_t s = edge_src(key);
        if (s != cur_src) {
          if (cur_src != kNoVertex) {
            emit(static_cast<vertex_t>(cur_src), acc);
          }
          cur_src = s;
          acc = identity;
        }
        acc = comb(acc, val(edge_dst(key)));
      });
      if (cur_src != kNoVertex) emit(static_cast<vertex_t>(cur_src), acc);
    }, 2);
  }

  // Slow-path neighborhood map that does not need the index (binary search
  // per vertex, O(log n) extra; the cost prepare() amortizes away).
  template <typename F>
  void map_neighbors_noindex(vertex_t v, F&& f) const {
    edges_.map_range([&](uint64_t key) { f(edge_dst(key)); }, edge_key(v, 0),
                     (static_cast<uint64_t>(v) + 1) << 32);
  }

  uint64_t get_size() const { return edges_.get_size() + sizeof(*this); }

  // Index memory is an acceleration structure; report it separately so the
  // space tables can show both (the paper reports graph storage).
  uint64_t get_index_size() const { return index_.bytes(); }

  const Set& edge_set() const { return edges_; }

 private:
  static constexpr uint64_t kNoVertex = ~uint64_t{0};

  vertex_t n_;
  Set edges_;
  VertexIndex<Set> index_;
};

using FGraph = FGraphT<cpma::CPMA>;
// Uncompressed variant (PMA-backed), used in ablation benches.
using FGraphUncompressed = FGraphT<cpma::PMA>;

}  // namespace cpma::graph
