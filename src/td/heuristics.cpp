#include "td/heuristics.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <set>
#include <utility>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "graph/gaifman.hpp"
#include "td/elimination_order.hpp"

namespace treedl {

namespace {

// Live vertices ordered by (primary score, secondary score, id). The minimum
// is the lowest-id vertex of the best score — the pick of a strict-< scan in
// id order. Session decompositions, and the transcripts and bench baselines
// pinned to them, depend on that tie-break (see OrderOracleTest).
class ScoreQueue {
 public:
  using Score = std::pair<int64_t, int64_t>;

  template <typename ScoreFn>
  ScoreQueue(size_t n, ScoreFn score) : key_(n) {
    for (VertexId v = 0; v < n; ++v) {
      key_[v] = {score(v), v};
      queue_.insert(key_[v]);
    }
  }

  bool Empty() const { return queue_.empty(); }

  void Rescore(VertexId v, Score score) {
    queue_.erase(key_[v]);
    key_[v].first = score;
    queue_.insert(key_[v]);
  }

  // Removes and returns the minimum; with `rng`, a uniform pick among the
  // vertices tied on the minimum score (walked in id order).
  VertexId Pop(Rng* rng) {
    auto best = queue_.begin();
    if (rng != nullptr) {
      size_t ties = 0;
      for (auto it = best; it != queue_.end() && it->first == best->first;
           ++it) {
        ++ties;
      }
      if (ties > 1) best = std::next(best, rng->UniformIndex(ties));
    }
    VertexId v = best->second;
    queue_.erase(best);
    return v;
  }

 private:
  using Key = std::pair<Score, VertexId>;
  std::set<Key> queue_;
  std::vector<Key> key_;
};

// Greedy elimination by the score of each live vertex: kMinDegree is
// (degree, 0), kMinFill is (fill, 0), and kMinFillTieBreak — also the
// randomized restarts of the multi-start variant, which pass `rng` — is
// (fill, degree).
std::vector<VertexId> GreedyOrder(const Graph& graph, TdHeuristic heuristic,
                                  Rng* rng) {
  size_t n = graph.NumVertices();
  internal::EliminationGraph elim(graph,
                                  heuristic != TdHeuristic::kMinDegree);
  auto score = [&](VertexId v) -> ScoreQueue::Score {
    auto degree = static_cast<int64_t>(elim.Degree(v));
    if (heuristic == TdHeuristic::kMinDegree) return {degree, 0};
    auto fill = static_cast<int64_t>(elim.Fill(v));
    return {fill, heuristic == TdHeuristic::kMinFill ? 0 : degree};
  };
  ScoreQueue queue(n, score);
  std::vector<VertexId> order;
  order.reserve(n);
  while (!queue.Empty()) {
    VertexId v = queue.Pop(rng);
    order.push_back(v);
    for (VertexId u : elim.Eliminate(v)) queue.Rescore(u, score(u));
  }
  return order;
}

// Maximum cardinality search: repeatedly pick the vertex with the most
// already-visited neighbors (lowest id on ties); the *reverse* of the visit
// order is used as the elimination order (exact on chordal graphs).
std::vector<VertexId> McsOrder(const Graph& graph) {
  size_t n = graph.NumVertices();
  std::vector<int64_t> weight(n, 0);
  std::vector<bool> visited(n, false);
  ScoreQueue queue(n, [](VertexId) { return ScoreQueue::Score{0, 0}; });
  std::vector<VertexId> visit_order;
  visit_order.reserve(n);
  while (!queue.Empty()) {
    VertexId best = queue.Pop(nullptr);
    visited[best] = true;
    visit_order.push_back(best);
    for (VertexId u : graph.Neighbors(best)) {
      if (!visited[u]) queue.Rescore(u, {-++weight[u], 0});
    }
  }
  std::reverse(visit_order.begin(), visit_order.end());
  return visit_order;
}

// (induced width, Σ 3^min(|bag|, 20)) of an order — the same state-count
// model as td::EstimateNodeCost, aggregated over the raw bags, used to rank
// multi-start candidates without normalizing each one.
std::pair<int, uint64_t> OrderQuality(const Graph& graph,
                                      const std::vector<VertexId>& order) {
  StatusOr<TreeDecomposition> td = DecompositionFromOrder(graph, order);
  TREEDL_CHECK(td.ok()) << td.status();
  uint64_t cost = 0;
  for (size_t id = 0; id < td->NumNodes(); ++id) {
    size_t b = std::min<size_t>(td->Bag(static_cast<TdNodeId>(id)).size(), 20);
    uint64_t states = 1;
    for (size_t i = 0; i < b; ++i) states *= 3;
    cost += states;
  }
  return {td->Width(), cost};
}

}  // namespace

std::vector<VertexId> HeuristicOrder(const Graph& graph,
                                     TdHeuristic heuristic) {
  switch (heuristic) {
    case TdHeuristic::kMinDegree:
    case TdHeuristic::kMinFill:
    case TdHeuristic::kMinFillTieBreak:
      return GreedyOrder(graph, heuristic, /*rng=*/nullptr);
    case TdHeuristic::kMcs:
      return McsOrder(graph);
  }
  TREEDL_CHECK(false) << "unknown heuristic";
  return {};
}

std::vector<VertexId> MinFillMultiStartOrder(const Graph& graph,
                                             const MultiStartOptions& options) {
  TREEDL_CHECK(graph.NumVertices() > 0);
  std::vector<VertexId> best =
      GreedyOrder(graph, TdHeuristic::kMinFillTieBreak, nullptr);
  std::pair<int, uint64_t> best_quality = OrderQuality(graph, best);
  for (size_t start = 1; start < options.starts; ++start) {
    // One independent deterministic stream per restart (golden-ratio step).
    Rng rng(options.seed + start * 0x9E3779B97F4A7C15ULL);
    std::vector<VertexId> candidate =
        internal::RandomizedMinFillOrder(graph, &rng);
    std::pair<int, uint64_t> quality = OrderQuality(graph, candidate);
    if (quality < best_quality) {
      best_quality = quality;
      best = std::move(candidate);
    }
  }
  return best;
}

namespace internal {

std::vector<VertexId> RandomizedMinFillOrder(const Graph& graph, Rng* rng) {
  return GreedyOrder(graph, TdHeuristic::kMinFillTieBreak, rng);
}

}  // namespace internal

StatusOr<TreeDecomposition> Decompose(const Graph& graph,
                                      TdHeuristic heuristic) {
  if (graph.NumVertices() == 0) {
    return Status::InvalidArgument("cannot decompose the empty graph");
  }
  return DecompositionFromOrder(graph, HeuristicOrder(graph, heuristic));
}

StatusOr<TreeDecomposition> DecomposeStructure(const Structure& structure,
                                               TdHeuristic heuristic) {
  if (structure.NumElements() == 0) {
    return Status::InvalidArgument("cannot decompose the empty structure");
  }
  return Decompose(GaifmanGraph(structure), heuristic);
}

StatusOr<int> ExactTreewidth(const Graph& graph) {
  size_t n = graph.NumVertices();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (n > 20) {
    return Status::OutOfRange("exact treewidth limited to 20 vertices");
  }
  // f(S) = best achievable max-bag-minus-one when the vertex set S (bitmask)
  // is eliminated first, in some order. Transition: last vertex v of the
  // prefix costs q(S \ {v}, v) = |neighbors of v reachable via S \ {v}|.
  size_t full = size_t{1} << n;
  std::vector<int8_t> f(full, 0);
  auto q = [&](uint64_t through, VertexId v) -> int {
    // BFS from v, travelling only through vertices in `through`; count
    // reached vertices outside `through` (excluding v itself).
    uint64_t seen = uint64_t{1} << v;
    std::vector<VertexId> stack{v};
    int count = 0;
    while (!stack.empty()) {
      VertexId u = stack.back();
      stack.pop_back();
      for (VertexId w : graph.Neighbors(u)) {
        if (seen & (uint64_t{1} << w)) continue;
        seen |= uint64_t{1} << w;
        if (through & (uint64_t{1} << w)) {
          stack.push_back(w);
        } else {
          ++count;
        }
      }
    }
    return count;
  };
  f[0] = -1;
  for (uint64_t s = 1; s < full; ++s) {
    int best = std::numeric_limits<int>::max();
    uint64_t rest = s;
    while (rest) {
      int v = __builtin_ctzll(rest);
      rest &= rest - 1;
      uint64_t prev = s & ~(uint64_t{1} << v);
      int cost = std::max(static_cast<int>(f[prev]),
                          q(prev, static_cast<VertexId>(v)));
      best = std::min(best, cost);
    }
    f[s] = static_cast<int8_t>(best);
  }
  return static_cast<int>(f[full - 1]);
}

}  // namespace treedl
