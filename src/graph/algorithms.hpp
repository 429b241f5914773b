// The paper's graph-algorithm suite: PageRank (fixed 10 iterations, as in
// the evaluation), Connected Components (label propagation + shortcutting),
// and single-source Betweenness Centrality (Brandes: forward BFS via
// edge_map, backward dependency accumulation). All generic over the graph
// concept, so every container runs identical algorithm code.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "graph/ligra.hpp"
#include "parallel/scheduler.hpp"

namespace cpma::graph {

// ---------------------------------------------------------------------------
// PageRank: pull-based, 10 fixed iterations (the paper's PR "runs for a
// fixed number (10) of iterations"). Arbitrary-order kernel: one pass over
// the whole structure per iteration — the case where flat layouts shine.
// ---------------------------------------------------------------------------

// True iff the container supports the flat arbitrary-order run scan
// (F-Graph's single-array layout; Section 6's PR discussion).
template <typename G>
concept HasRunScan = requires(const G& g) {
  g.scan_neighbor_runs(
      0.0, [](vertex_t) { return 0.0; },
      [](double a, double b) { return a + b; }, [](vertex_t, double) {});
};

namespace detail {
inline void atomic_add_double(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
  }
}
}  // namespace detail

template <typename G>
std::vector<double> pagerank(G& g, int iterations = 10,
                             double damping = 0.85) {
  const vertex_t n = g.num_vertices();
  std::vector<double> rank(n, 1.0 / n), contrib(n);

  if constexpr (HasRunScan<G>) {
    // No prepare(): the paper's F-Graph skips the vertex-array rebuild for
    // PR precisely because the kernel is a pass over all edges.
    // Flat path: degrees via a run scan (no vertex index at all), then one
    // linear pass per iteration.
    // A neighborhood spanning leaves is emitted once per leaf, possibly
    // from two workers at once, so degrees accumulate atomically.
    std::vector<std::atomic<double>> next(n);
    std::vector<std::atomic<uint64_t>> deg(n);
    g.scan_neighbor_runs(
        uint64_t{0}, [](vertex_t) { return uint64_t{1}; },
        [](uint64_t a, uint64_t b) { return a + b; },
        [&](vertex_t src, uint64_t cnt) {
          deg[src].fetch_add(cnt, std::memory_order_relaxed);
        });
    for (int iter = 0; iter < iterations; ++iter) {
      par::parallel_for(0, n, [&](uint64_t v) {
        const uint64_t d = deg[v].load(std::memory_order_relaxed);
        contrib[v] = d == 0 ? 0.0 : rank[v] / static_cast<double>(d);
        next[v].store((1.0 - damping) / n, std::memory_order_relaxed);
      });
      g.scan_neighbor_runs(
          0.0, [&](vertex_t dst) { return contrib[dst]; },
          [](double a, double b) { return a + b; },
          [&](vertex_t src, double acc) {
            detail::atomic_add_double(next[src], damping * acc);
          });
      par::parallel_for(0, n, [&](uint64_t v) {
        rank[v] = next[v].load(std::memory_order_relaxed);
      });
    }
    return rank;
  } else {
    g.prepare();
    std::vector<double> next(n);
    for (int iter = 0; iter < iterations; ++iter) {
      par::parallel_for(0, n, [&](uint64_t v) {
        uint64_t d = g.degree(static_cast<vertex_t>(v));
        contrib[v] = d == 0 ? 0.0 : rank[v] / static_cast<double>(d);
      });
      par::parallel_for(0, n, [&](uint64_t v) {
        double acc = 0;
        g.map_neighbors(static_cast<vertex_t>(v),
                        [&](vertex_t u) { acc += contrib[u]; });
        next[v] = (1.0 - damping) / n + damping * acc;
      }, 16);
      std::swap(rank, next);
    }
    return rank;
  }
}

// ---------------------------------------------------------------------------
// Connected Components: min-label propagation with pointer-jumping
// shortcuts. Starts with full scans and converges to small frontiers — the
// paper's "in between arbitrary order and topology order" kernel.
// ---------------------------------------------------------------------------

template <typename G>
std::vector<vertex_t> connected_components(G& g) {
  if constexpr (!HasRunScan<G>) g.prepare();
  const vertex_t n = g.num_vertices();
  std::vector<std::atomic<vertex_t>> label(n);
  par::parallel_for(0, n, [&](uint64_t v) {
    label[v].store(static_cast<vertex_t>(v), std::memory_order_relaxed);
  });
  auto atomic_min = [&](vertex_t v, vertex_t m, std::atomic<bool>& any) {
    vertex_t cur = label[v].load(std::memory_order_relaxed);
    while (m < cur) {
      if (label[v].compare_exchange_weak(cur, m,
                                         std::memory_order_relaxed)) {
        any.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  bool changed = true;
  while (changed) {
    std::atomic<bool> any{false};
    if constexpr (HasRunScan<G>) {
      // Flat min-label pass over the single edge array.
      g.scan_neighbor_runs(
          ~vertex_t{0},
          [&](vertex_t dst) {
            return label[dst].load(std::memory_order_relaxed);
          },
          [](vertex_t a, vertex_t b) { return a < b ? a : b; },
          [&](vertex_t src, vertex_t m) { atomic_min(src, m, any); });
    } else {
      par::parallel_for(0, n, [&](uint64_t v) {
        vertex_t m = label[v].load(std::memory_order_relaxed);
        g.map_neighbors(static_cast<vertex_t>(v), [&](vertex_t u) {
          vertex_t lu = label[u].load(std::memory_order_relaxed);
          if (lu < m) m = lu;
        });
        if (m < label[v].load(std::memory_order_relaxed)) {
          label[v].store(m, std::memory_order_relaxed);
          any.store(true, std::memory_order_relaxed);
        }
      }, 16);
    }
    // Shortcut: hook labels to their root (pointer jumping).
    par::parallel_for(0, n, [&](uint64_t v) {
      vertex_t l = label[v].load(std::memory_order_relaxed);
      while (true) {
        vertex_t ll = label[l].load(std::memory_order_relaxed);
        if (ll == l) break;
        l = ll;
      }
      label[v].store(l, std::memory_order_relaxed);
    });
    changed = any.load();
  }
  std::vector<vertex_t> out(n);
  par::parallel_for(0, n, [&](uint64_t v) {
    out[v] = label[v].load(std::memory_order_relaxed);
  });
  return out;
}

// ---------------------------------------------------------------------------
// BFS: frontier traversal through edge_map; returns the depth of every
// vertex from `source` (-1 = unreachable). The paper's topology-order
// kernel in its simplest form, and the differential-test workhorse — depths
// are deterministic, so any two containers must agree exactly.
// ---------------------------------------------------------------------------

template <typename G>
std::vector<int32_t> bfs(G& g, vertex_t source) {
  g.prepare();
  const vertex_t n = g.num_vertices();
  std::vector<std::atomic<int32_t>> depth(n);
  par::parallel_for(0, n, [&](uint64_t v) {
    depth[v].store(-1, std::memory_order_relaxed);
  });
  depth[source].store(0, std::memory_order_relaxed);

  VertexSubset frontier = VertexSubset::single(n, source);
  int32_t d = 0;
  while (!frontier.empty()) {
    frontier = edge_map(
        g, frontier,
        [&](vertex_t, vertex_t v) {
          int32_t expected = -1;
          return depth[v].compare_exchange_strong(expected, d + 1,
                                                  std::memory_order_relaxed);
        },
        [&](vertex_t v) {
          return depth[v].load(std::memory_order_relaxed) == -1;
        });
    ++d;
  }

  std::vector<int32_t> out(n);
  par::parallel_for(0, n, [&](uint64_t v) {
    out[v] = depth[v].load(std::memory_order_relaxed);
  });
  return out;
}

// ---------------------------------------------------------------------------
// Betweenness Centrality from a single source (Brandes). The forward phase
// is a frontier BFS through edge_map (topology-order traversal); sigma
// counts are then computed per level with a pull pass (no atomics), and the
// backward phase accumulates dependencies level by level.
// ---------------------------------------------------------------------------

template <typename G>
std::vector<double> betweenness_centrality(G& g, vertex_t source) {
  g.prepare();
  const vertex_t n = g.num_vertices();
  std::vector<std::atomic<int32_t>> depth(n);
  par::parallel_for(0, n, [&](uint64_t v) {
    depth[v].store(-1, std::memory_order_relaxed);
  });
  depth[source].store(0, std::memory_order_relaxed);

  std::vector<VertexSubset> levels;
  levels.push_back(VertexSubset::single(n, source));
  int32_t d = 0;
  while (!levels.back().empty()) {
    const VertexSubset& frontier = levels.back();
    VertexSubset next = edge_map(
        g, frontier,
        [&](vertex_t, vertex_t v) {
          int32_t expected = -1;
          return depth[v].compare_exchange_strong(
              expected, d + 1, std::memory_order_relaxed);
        },
        [&](vertex_t v) {
          return depth[v].load(std::memory_order_relaxed) == -1;
        });
    ++d;
    levels.push_back(std::move(next));
  }
  levels.pop_back();  // drop the empty frontier

  // Sigma per level: pull from predecessors (depth == level - 1).
  std::vector<double> sigma(n, 0.0);
  sigma[source] = 1.0;
  for (size_t l = 1; l < levels.size(); ++l) {
    vertex_map(levels[l], [&](vertex_t v) {
      double acc = 0;
      g.map_neighbors(v, [&](vertex_t u) {
        if (depth[u].load(std::memory_order_relaxed) ==
            static_cast<int32_t>(l) - 1) {
          acc += sigma[u];
        }
      });
      sigma[v] = acc;
    });
  }

  // Backward dependency accumulation.
  std::vector<double> delta(n, 0.0);
  for (size_t l = levels.size(); l-- > 0;) {
    vertex_map(levels[l], [&](vertex_t u) {
      double acc = 0;
      g.map_neighbors(u, [&](vertex_t v) {
        if (depth[v].load(std::memory_order_relaxed) ==
            static_cast<int32_t>(l) + 1) {
          acc += (sigma[u] / sigma[v]) * (1.0 + delta[v]);
        }
      });
      delta[u] = acc;
    });
  }
  delta[source] = 0.0;
  return delta;
}

}  // namespace cpma::graph
