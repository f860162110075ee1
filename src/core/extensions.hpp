// Further MSO-expressible problems on the §5 DP framework — the paper's
// conclusion announces "many more problems whose FPT was established via
// Courcelle's Theorem" as targets of the approach; these three classics are
// the standard first wave.
#ifndef TREEDL_CORE_EXTENSIONS_HPP_
#define TREEDL_CORE_EXTENSIONS_HPP_

#include <functional>

#include "common/status.hpp"
#include "core/tree_dp.hpp"
#include "graph/graph.hpp"

namespace treedl::core {

// Pass registration (Engine::Solve / SolveAll), same contract as
// core::AddThreeColorPass (three_color.hpp): registers one pass of a MultiDp
// and returns a finalizer valid once RunDp ran the traversal; `graph` and
// `ntd` must outlive both. The Leaf hooks enumerate 2^|bag| subsets, so the
// caller must reject bags of more than 63 elements before the walk.

/// Size of a minimum vertex cover.
std::function<StatusOr<size_t>()> AddVertexCoverPass(
    MultiDp* multi, const Graph& graph,
    const NormalizedTreeDecomposition& ntd);

/// Size of a maximum independent set.
std::function<StatusOr<size_t>()> AddIndependentSetPass(
    MultiDp* multi, const Graph& graph,
    const NormalizedTreeDecomposition& ntd);

/// Size of a minimum dominating set.
std::function<StatusOr<size_t>()> AddDominatingSetPass(
    MultiDp* multi, const Graph& graph,
    const NormalizedTreeDecomposition& ntd);

}  // namespace treedl::core

#endif  // TREEDL_CORE_EXTENSIONS_HPP_
