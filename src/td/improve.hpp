// Decomposition quality: cost-guarded width reduction and the anytime
// improvement behind Engine::ImproveDecomposition (the server's REOPT).
//
// Everything here is deterministic given its inputs (and seed) and measured
// against the same 3^|bag| state-count model as td::EstimateNodeCost — DP
// cost is exponential in bag size, so one merged bag or one width unit saved
// beats any constant-factor tuning downstream.
#ifndef TREEDL_TD_IMPROVE_HPP_
#define TREEDL_TD_IMPROVE_HPP_

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "graph/graph.hpp"
#include "td/tree_decomposition.hpp"

namespace treedl {

class WorkBudget;

/// Normalize + Σ EstimateNodeCost over the normal form — the modeled cost of
/// the tree the DPs actually traverse. This is THE quality objective of the
/// width-reduction guard and the local search: raw bag counts mispredict
/// the normal form (contracting nested bags, for instance, concentrates join
/// nodes at the merged bag and can make the normalized tree strictly more
/// expensive even as the raw tree shrinks).
StatusOr<uint64_t> NormalizedDpCost(const TreeDecomposition& td);

/// The raw width-reduction primitive: greedily contracts tree edges whose
/// endpoint bags are nested (the merged bag is the larger of the two) until
/// no such edge remains. Each merge removes one node without touching any
/// other bag, so the width provably never increases and the raw tree loses
/// one node per merge. Note this shrinks the RAW tree; the normalized DP
/// cost can go either way (see NormalizedDpCost), which is why ImproveTd
/// applies it through the cost guard below. Returns the number of merges.
/// Deterministic; validity is preserved.
size_t WidthReduce(TreeDecomposition* td);

/// WidthReduce guarded by the real objective: applies the merges only when
/// the resulting (width, NormalizedDpCost) is no worse than the input's, and
/// reverts them otherwise, so a "reduction" can never make the DP slower.
/// Returns the number of merges kept (0 when reverted).
StatusOr<size_t> CostGuardedWidthReduce(TreeDecomposition* td);

/// An elimination order compatible with `td`: vertices ordered by the
/// post-order position of the highest bag containing them (children before
/// parents), whose induced width is at most td.Width(). Vertices of `graph`
/// missing from every bag (only possible for an invalid decomposition) are
/// prepended. The seed order of the local search below.
std::vector<VertexId> EliminationOrderFromTd(const Graph& graph,
                                             const TreeDecomposition& td);

struct ImproveOptions {
  /// Seed of the local-move stream. The engine passes the session
  /// fingerprint, so improvement is a pure function of the session input.
  uint64_t seed = 0;
  /// Round cap when no WorkBudget bounds the search.
  size_t max_rounds = 64;
};

struct ImproveOutcome {
  int width_before = 0;
  int width_after = 0;
  uint64_t cost_before = 0;  // NormalizedDpCost of the input
  uint64_t cost_after = 0;   // ... and of `td`
  /// Local-search rounds evaluated (== budget units consumed when a budget
  /// stopped the search).
  size_t rounds = 0;
  /// Rounds whose candidate strictly improved (width, cost).
  size_t accepted = 0;
  /// Strict improvement: width dropped, or width held and cost dropped.
  bool improved = false;
  /// The best decomposition found; equals the input when !improved. Always a
  /// valid decomposition of the graph.
  TreeDecomposition td;
};

/// Anytime improvement: cost-guarded width reduction of the current
/// decomposition, then bounded local search over elimination orders (seeded
/// position moves: swaps, relocations, segment reversals), accepting
/// candidates that strictly improve (width, NormalizedDpCost). One budget
/// unit is consumed per round via WorkBudget::ConsumeUnit; exhaustion stops the
/// search gracefully with the best result so far — it is never an error, so
/// the serving layer's REOPT <units> sheds deterministically at any thread
/// count. `budget` == nullptr caps at options.max_rounds instead.
StatusOr<ImproveOutcome> ImproveTd(const Graph& graph,
                                   const TreeDecomposition& td,
                                   const ImproveOptions& options = {},
                                   WorkBudget* budget = nullptr);

}  // namespace treedl

#endif  // TREEDL_TD_IMPROVE_HPP_
