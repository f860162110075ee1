#include <algorithm>

#include "core/extensions.hpp"
#include "core/graph_dp_internal.hpp"

namespace treedl::core {

StatusOr<size_t> MinDominatingSet(const Graph& graph,
                                  const NormalizedTreeDecomposition& ntd,
                                  const DpExec& exec, DpStats* stats) {
  auto table = RunDp(ntd, internal::DominatingProblem(graph), exec, stats,
                     TableRetention::kNone);
  if (exec.budget != nullptr && exec.budget->Aborted()) {
    return exec.budget->AbortStatus();
  }
  size_t best = graph.NumVertices() + 1;
  // Complete: no root bag position is still waiting.
  const uint64_t all_positions =
      (uint64_t{1} << ntd.node(ntd.root()).bag.size()) - 1;
  for (const auto& [state, value] : table.at(ntd.root())) {
    if ((state.in_set | state.dominated) == all_positions) {
      best = std::min(best, value);
    }
  }
  if (best > graph.NumVertices()) {
    // Every graph has a dominating set (all vertices); reaching this means
    // an internal inconsistency.
    return Status::Internal("no dominating-set state survived to the root");
  }
  return best;
}

}  // namespace treedl::core
