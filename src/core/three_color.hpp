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

/// DP kernel over an already-normalized decomposition (no validation or
/// normalization): one decision pass, one RunDp walk. `exec` optionally
/// carries a bag sharding and thread pool for a parallel walk. Sessions
/// answer through Engine::Solve instead; this is the bare kernel.
StatusOr<ThreeColorResult> SolveThreeColorNormalized(
    const Graph& graph, const NormalizedTreeDecomposition& ntd,
    bool extract_coloring = true, const DpExec& exec = {});

// --- Pass registration (Engine::Solve / SolveAll) ---------------------------
//
// Each Add*Pass registers the problem's transitions as one pass of a MultiDp
// and returns a finalizer that reads the answer out of the pass's table —
// call it only after RunDp ran the traversal (and its budget did not abort).
// `graph` and `ntd` must outlive both the traversal and the finalizer call.

std::function<StatusOr<ThreeColorResult>()> AddThreeColorPass(
    MultiDp* multi, const Graph& graph, const NormalizedTreeDecomposition& ntd,
    bool extract_coloring = true);

std::function<StatusOr<uint64_t>()> AddThreeColorCountPass(
    MultiDp* multi, const Graph& graph,
    const NormalizedTreeDecomposition& ntd);

}  // namespace treedl::core

#endif  // TREEDL_CORE_THREE_COLOR_HPP_
