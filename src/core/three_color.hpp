// The 3-Colorability algorithm of §5.1 (Fig. 5).
//
// Executes the Fig. 5 datalog program natively: solve(s, R, G, B) facts are
// DP states (the bag coloring) computed by a bottom-up traversal of the
// modified-normalized tree decomposition; only reachable states are
// materialized. Extensions beyond the paper: witness extraction (an actual
// proper coloring) and coloring counting (same transitions over the counting
// semiring).
#ifndef TREEDL_CORE_THREE_COLOR_HPP_
#define TREEDL_CORE_THREE_COLOR_HPP_

#include <optional>
#include <variant>
#include <vector>

#include "common/status.hpp"
#include "core/tree_dp.hpp"
#include "graph/graph.hpp"

namespace treedl::core {

struct ThreeColorResult {
  bool colorable = false;
  /// A proper coloring (vertex -> {0,1,2}) when colorable and extraction was
  /// requested.
  std::optional<std::vector<int>> coloring;
  DpStats stats;
};

// Each function below runs one problem over an already-normalized
// decomposition (no validation or normalization): one RunDp walk, then the
// answer read off the root table. `exec` optionally carries a bag sharding
// and thread pool for a parallel walk, a table memory budget, and a work
// budget; an aborted budget returns its typed status. `stats` (may be null)
// accumulates the walk's DpStats, aborted walks included. Sessions answer
// through Engine::Solve instead; these are the bare kernels.

/// 3-colorability; with `extract_coloring`, also one proper coloring (the
/// witness walk re-reads interior tables, so they are kept).
StatusOr<ThreeColorResult> DecideThreeColor(
    const Graph& graph, const NormalizedTreeDecomposition& ntd,
    const DpExec& exec, DpStats* stats, bool extract_coloring = true);

/// Number of proper 3-colorings (counting semiring, saturating 64-bit
/// arithmetic). A count of 2^64 - 1 or more returns OutOfRange; saturation
/// inside the walk alone is no error (a non-3-colorable graph answers 0).
StatusOr<uint64_t> CountThreeColorings(const Graph& graph,
                                       const NormalizedTreeDecomposition& ntd,
                                       const DpExec& exec, DpStats* stats);

/// DecideThreeColor with the walk's DpStats returned in the result.
StatusOr<ThreeColorResult> SolveThreeColorNormalized(
    const Graph& graph, const NormalizedTreeDecomposition& ntd,
    bool extract_coloring = true, const DpExec& exec = {});

}  // namespace treedl::core

#endif  // TREEDL_CORE_THREE_COLOR_HPP_
