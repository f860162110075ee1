// Further MSO-expressible problems on the §5 DP framework — the paper's
// conclusion announces "many more problems whose FPT was established via
// Courcelle's Theorem" as targets of the approach; these three classics are
// the standard first wave.
#ifndef TREEDL_CORE_EXTENSIONS_HPP_
#define TREEDL_CORE_EXTENSIONS_HPP_

#include "common/status.hpp"
#include "core/tree_dp.hpp"
#include "graph/graph.hpp"

namespace treedl::core {

// Same contract as core::DecideThreeColor (three_color.hpp): one RunDp walk
// over an already-normalized decomposition, the answer read off the root
// table, an aborted `exec.budget` returned as its typed status, and the
// walk's DpStats accumulated into `stats` (may be null). The Leaf hooks
// enumerate 2^|bag| subsets, so the caller must reject bags of more than 63
// elements before the walk.

/// Size of a minimum vertex cover.
StatusOr<size_t> MinVertexCover(const Graph& graph,
                                const NormalizedTreeDecomposition& ntd,
                                const DpExec& exec, DpStats* stats);

/// Size of a maximum independent set.
StatusOr<size_t> MaxIndependentSet(const Graph& graph,
                                   const NormalizedTreeDecomposition& ntd,
                                   const DpExec& exec, DpStats* stats);

/// Size of a minimum dominating set.
StatusOr<size_t> MinDominatingSet(const Graph& graph,
                                  const NormalizedTreeDecomposition& ntd,
                                  const DpExec& exec, DpStats* stats);

}  // namespace treedl::core

#endif  // TREEDL_CORE_EXTENSIONS_HPP_
