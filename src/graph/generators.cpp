#include "graph/generators.hpp"

#include "common/logging.hpp"

namespace treedl {

Graph PathGraph(size_t n) {
  Graph g(n);
  for (size_t i = 0; i + 1 < n; ++i) {
    g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
  }
  return g;
}

Graph CycleGraph(size_t n) {
  Graph g = PathGraph(n);
  if (n >= 3) g.AddEdge(static_cast<VertexId>(n - 1), 0);
  return g;
}

Graph CompleteGraph(size_t n) {
  Graph g(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(j));
    }
  }
  return g;
}

Graph TreeFanGraph(size_t n) {
  Graph g(n);
  for (VertexId v = 1; v < n; ++v) g.AddEdge(0, v);
  for (VertexId v = 2; v < n; ++v) g.AddEdge(v, v / 2);
  return g;
}

Graph GridGraph(size_t rows, size_t cols) {
  Graph g(rows * cols);
  auto id = [cols](size_t r, size_t c) {
    return static_cast<VertexId>(r * cols + c);
  };
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.AddEdge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.AddEdge(id(r, c), id(r + 1, c));
    }
  }
  return g;
}

Graph PetersenGraph() {
  Graph g(10);
  // Outer 5-cycle 0..4, inner 5-cycle (pentagram) 5..9, spokes i -- i+5.
  for (VertexId i = 0; i < 5; ++i) {
    g.AddEdge(i, (i + 1) % 5);
    g.AddEdge(i + 5, ((i + 2) % 5) + 5);
    g.AddEdge(i, i + 5);
  }
  return g;
}

Graph RandomKTree(size_t n, int k, Rng* rng) {
  TREEDL_CHECK(k >= 1);
  TREEDL_CHECK(n >= static_cast<size_t>(k) + 1)
      << "k-tree needs at least k+1 vertices";
  Graph g(n);
  // Seed clique K_{k+1}.
  for (int i = 0; i <= k; ++i) {
    for (int j = i + 1; j <= k; ++j) {
      g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(j));
    }
  }
  // Track the k-cliques available for attachment. Each new vertex v attached
  // to clique C spawns k+1 new k-cliques (C - {c} + {v} for c in C, plus C
  // stays available); keeping all of them gives the uniform-ish shape used in
  // the literature.
  std::vector<std::vector<VertexId>> cliques;
  std::vector<VertexId> seed;
  for (int i = 0; i <= k; ++i) seed.push_back(static_cast<VertexId>(i));
  for (int omit = 0; omit <= k; ++omit) {
    std::vector<VertexId> c;
    for (int i = 0; i <= k; ++i) {
      if (i != omit) c.push_back(seed[static_cast<size_t>(i)]);
    }
    cliques.push_back(std::move(c));
  }
  for (size_t v = static_cast<size_t>(k) + 1; v < n; ++v) {
    const std::vector<VertexId>& attach = cliques[rng->UniformIndex(cliques.size())];
    std::vector<VertexId> chosen = attach;  // copy before cliques reallocates
    for (VertexId u : chosen) g.AddEdge(static_cast<VertexId>(v), u);
    for (size_t omit = 0; omit < chosen.size(); ++omit) {
      std::vector<VertexId> c;
      for (size_t i = 0; i < chosen.size(); ++i) {
        if (i != omit) c.push_back(chosen[i]);
      }
      c.push_back(static_cast<VertexId>(v));
      cliques.push_back(std::move(c));
    }
  }
  return g;
}

Graph RandomPartialKTree(size_t n, int k, double keep_probability, Rng* rng) {
  Graph full = RandomKTree(n, k, rng);
  Graph g(n);
  for (auto [u, v] : full.Edges()) {
    if (rng->Bernoulli(keep_probability)) g.AddEdge(u, v);
  }
  return g;
}

Graph RandomGnp(size_t n, double p, Rng* rng) {
  Graph g(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng->Bernoulli(p)) {
        g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(j));
      }
    }
  }
  return g;
}

}  // namespace treedl
