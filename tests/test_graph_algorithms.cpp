// Tests for PR / CC / BC: serial reference implementations on adjacency
// lists, compared against the parallel Ligra-style implementations running
// on every graph container.
#include <gtest/gtest.h>

#include <cmath>
#include <queue>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "graph/fgraph.hpp"
#include "graph/generators.hpp"
#include "graph/tree_graphs.hpp"

using namespace cpma::graph;

namespace {

std::vector<std::vector<vertex_t>> adjacency(vertex_t n,
                                             const std::vector<uint64_t>& es) {
  std::vector<std::vector<vertex_t>> adj(n);
  for (uint64_t e : es) adj[edge_src(e)].push_back(edge_dst(e));
  return adj;
}

std::vector<double> pagerank_ref(const std::vector<std::vector<vertex_t>>& adj,
                                 int iters = 10, double damp = 0.85) {
  const size_t n = adj.size();
  std::vector<double> rank(n, 1.0 / n), contrib(n), next(n);
  for (int it = 0; it < iters; ++it) {
    for (size_t v = 0; v < n; ++v) {
      contrib[v] = adj[v].empty() ? 0 : rank[v] / adj[v].size();
    }
    for (size_t v = 0; v < n; ++v) {
      double acc = 0;
      for (vertex_t u : adj[v]) acc += contrib[u];
      next[v] = (1.0 - damp) / n + damp * acc;
    }
    std::swap(rank, next);
  }
  return rank;
}

// Reference CC: BFS labeling with the minimum vertex id per component.
std::vector<vertex_t> cc_ref(const std::vector<std::vector<vertex_t>>& adj) {
  const vertex_t n = static_cast<vertex_t>(adj.size());
  std::vector<vertex_t> label(n, n);
  for (vertex_t s = 0; s < n; ++s) {
    if (label[s] != n) continue;
    std::queue<vertex_t> q;
    q.push(s);
    label[s] = s;
    while (!q.empty()) {
      vertex_t u = q.front();
      q.pop();
      for (vertex_t v : adj[u]) {
        if (label[v] == n) {
          label[v] = s;
          q.push(v);
        }
      }
    }
  }
  return label;
}

// Reference BC from one source (serial Brandes).
std::vector<double> bc_ref(const std::vector<std::vector<vertex_t>>& adj,
                           vertex_t s) {
  const vertex_t n = static_cast<vertex_t>(adj.size());
  std::vector<int32_t> depth(n, -1);
  std::vector<double> sigma(n, 0), delta(n, 0);
  std::vector<vertex_t> order;
  std::queue<vertex_t> q;
  depth[s] = 0;
  sigma[s] = 1;
  q.push(s);
  while (!q.empty()) {
    vertex_t u = q.front();
    q.pop();
    order.push_back(u);
    for (vertex_t v : adj[u]) {
      if (depth[v] == -1) {
        depth[v] = depth[u] + 1;
        q.push(v);
      }
      if (depth[v] == depth[u] + 1) sigma[v] += sigma[u];
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    vertex_t u = *it;
    for (vertex_t v : adj[u]) {
      if (depth[v] == depth[u] + 1) {
        delta[u] += (sigma[u] / sigma[v]) * (1.0 + delta[v]);
      }
    }
  }
  delta[s] = 0;
  return delta;
}

struct TestGraphData {
  vertex_t n;
  std::vector<uint64_t> edges;
  std::vector<std::vector<vertex_t>> adj;
};

TestGraphData make_rmat(uint32_t scale, uint64_t m, uint64_t seed) {
  TestGraphData d;
  d.n = 1 << scale;
  d.edges = symmetrize(rmat_edges(scale, m, seed));
  d.adj = adjacency(d.n, d.edges);
  return d;
}

}  // namespace

template <typename G>
class AlgoTest : public ::testing::Test {};

using GraphTypes = ::testing::Types<FGraph, CPacGraph, AspenGraph, Csr>;
TYPED_TEST_SUITE(AlgoTest, GraphTypes);

TYPED_TEST(AlgoTest, PageRankMatchesReference) {
  auto d = make_rmat(10, 30000, 21);
  TypeParam g(d.n, d.edges);
  auto got = pagerank(g);
  auto want = pagerank_ref(d.adj);
  ASSERT_EQ(got.size(), want.size());
  for (size_t v = 0; v < want.size(); ++v) {
    ASSERT_NEAR(got[v], want[v], 1e-9) << "vertex " << v;
  }
}

TYPED_TEST(AlgoTest, ConnectedComponentsMatchReference) {
  auto d = make_rmat(10, 8000, 22);  // sparse => several components
  TypeParam g(d.n, d.edges);
  auto got = connected_components(g);
  auto want = cc_ref(d.adj);
  // Labels must induce the same partition (the representatives may differ).
  ASSERT_EQ(got.size(), want.size());
  std::map<vertex_t, vertex_t> got2want;
  for (size_t v = 0; v < want.size(); ++v) {
    auto it = got2want.find(got[v]);
    if (it == got2want.end()) {
      got2want[got[v]] = want[v];
    } else {
      ASSERT_EQ(it->second, want[v]) << "vertex " << v;
    }
  }
  // And the inverse direction: same number of components.
  std::set<vertex_t> gc(got.begin(), got.end()), wc(want.begin(), want.end());
  EXPECT_EQ(gc.size(), wc.size());
}

TYPED_TEST(AlgoTest, BetweennessMatchesReference) {
  auto d = make_rmat(9, 15000, 23);
  TypeParam g(d.n, d.edges);
  // Pick a source inside the giant component (vertex with max degree).
  vertex_t src = 0;
  for (vertex_t v = 0; v < d.n; ++v) {
    if (d.adj[v].size() > d.adj[src].size()) src = v;
  }
  auto got = betweenness_centrality(g, src);
  auto want = bc_ref(d.adj, src);
  ASSERT_EQ(got.size(), want.size());
  for (size_t v = 0; v < want.size(); ++v) {
    ASSERT_NEAR(got[v], want[v], 1e-6 * (1.0 + std::abs(want[v])))
        << "vertex " << v;
  }
}

TYPED_TEST(AlgoTest, PageRankSumsToOne) {
  auto d = make_rmat(10, 40000, 24);
  TypeParam g(d.n, d.edges);
  auto pr = pagerank(g);
  double total = 0;
  for (double r : pr) total += r;
  // With no dangling redistribution the sum decays slightly below 1; it must
  // stay in (0.5, 1.0001] and match the reference exactly (checked above).
  EXPECT_GT(total, 0.5);
  EXPECT_LT(total, 1.0001);
}

TYPED_TEST(AlgoTest, CCOnDisconnectedSingletons) {
  TypeParam g(16, std::vector<uint64_t>{edge_key(0, 1), edge_key(1, 0)});
  auto cc = connected_components(g);
  EXPECT_EQ(cc[0], cc[1]);
  std::set<vertex_t> labels(cc.begin(), cc.end());
  EXPECT_EQ(labels.size(), 15u);  // {0,1} together + 14 singletons
}

TEST(AlgoCrossContainer, AllContainersAgreeOnPR) {
  auto d = make_rmat(10, 25000, 25);
  FGraph f(d.n, d.edges);
  CPacGraph c(d.n, d.edges);
  AspenGraph a(d.n, d.edges);
  auto pf = pagerank(f), pc = pagerank(c), pa = pagerank(a);
  for (size_t v = 0; v < pf.size(); ++v) {
    ASSERT_NEAR(pf[v], pc[v], 1e-12);
    ASSERT_NEAR(pf[v], pa[v], 1e-12);
  }
}

TEST(AlgoDynamic, PRTracksGraphUpdates) {
  // After a batch of inserts, PR on the dynamic graph equals PR on a fresh
  // CSR of the final edge set.
  auto d1 = make_rmat(9, 10000, 26);
  FGraph f(d1.n, d1.edges);
  auto extra = symmetrize(rmat_edges(9, 5000, 27));
  f.insert_edges(extra);
  std::vector<uint64_t> all = d1.edges;
  all.insert(all.end(), extra.begin(), extra.end());
  all = symmetrize(all);
  Csr csr(d1.n, all);
  auto pf = pagerank(f), pcsr = pagerank(csr);
  for (size_t v = 0; v < pf.size(); ++v) ASSERT_NEAR(pf[v], pcsr[v], 1e-12);
}

TEST(AlgoRunScan, PageRankHubDegreesSpanningManyLeaves) {
  // Each hub's neighborhood covers many leaves, so the run scan emits its
  // degree in parts from concurrent workers; every part must land. Repeated
  // runs give interleavings the chance to show a lost update.
  const vertex_t n = 2048, hubs = 8;
  std::vector<uint64_t> edges;
  for (vertex_t h = 0; h < hubs; ++h) {
    for (vertex_t v = hubs; v < n; v += 1 + h) {
      edges.push_back(edge_key(h, v));
      edges.push_back(edge_key(v, h));
    }
  }
  FGraph g(n, edges);
  const auto want = pagerank_ref(adjacency(n, symmetrize(edges)));
  for (int run = 0; run < 20; ++run) {
    const auto got = pagerank(g);
    for (vertex_t v = 0; v < n; ++v) {
      ASSERT_NEAR(got[v], want[v], 1e-9) << "run " << run << " vertex " << v;
    }
  }
}
