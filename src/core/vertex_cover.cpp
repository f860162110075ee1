#include <algorithm>

#include "core/extensions.hpp"
#include "core/graph_dp_internal.hpp"

namespace treedl::core {

using internal::SubsetProblem;

StatusOr<size_t> MinVertexCover(const Graph& graph,
                                const NormalizedTreeDecomposition& ntd,
                                const DpExec& exec, DpStats* stats) {
  auto table = RunDp(ntd, SubsetProblem<true>(graph), exec, stats,
                     TableRetention::kNone);
  if (exec.budget != nullptr && exec.budget->Aborted()) {
    return exec.budget->AbortStatus();
  }
  size_t best = graph.NumVertices();
  for (const auto& [state, value] : table.at(ntd.root())) {
    best = std::min(best, value);
  }
  return best;
}

StatusOr<size_t> MaxIndependentSet(const Graph& graph,
                                   const NormalizedTreeDecomposition& ntd,
                                   const DpExec& exec, DpStats* stats) {
  auto table = RunDp(ntd, SubsetProblem<false>(graph), exec, stats,
                     TableRetention::kNone);
  if (exec.budget != nullptr && exec.budget->Aborted()) {
    return exec.budget->AbortStatus();
  }
  size_t best = 0;
  for (const auto& [state, value] : table.at(ntd.root())) {
    best = std::max(best, value);
  }
  return best;
}

}  // namespace treedl::core
