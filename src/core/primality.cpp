// The PRIMALITY decision algorithm of §5.2 (Fig. 6): is attribute a prime
// (in some key)? One bottom-up solve() walk (core::RunDp of
// PrimalityProblem) over a prepared decomposition, then the success test at
// the root, in time f(w)·|(R, F)|. Engine::IsPrime prepares the
// decomposition (rhs-closure, re-root at a bag holding a, normalize) and
// calls DecidePrimePrepared.
#include <algorithm>

#include "core/primality_internal.hpp"

namespace treedl::core {

namespace internal {

bool DecidePrimePrepared(const PrimalityContext& context,
                         const NormalizedTreeDecomposition& ntd,
                         ElementId a_elem, RunStats* stats,
                         const DpExec& exec) {
  DpStats dp;
  auto up = RunDp(ntd, PrimalityProblem(context), exec, &dp,
                  TableRetention::kNone);
  if (stats != nullptr) FoldDpStats(dp, stats);
  if (exec.budget != nullptr && exec.budget->Aborted()) return false;
  const auto& bag = ntd.Bag(ntd.root());
  BagLayout layout = context.Layout(bag);
  int query = std::binary_search(bag.begin(), bag.end(), a_elem)
                  ? static_cast<int>(PositionInBag(bag, a_elem))
                  : -1;
  for (const auto& [state, value] : up.at(ntd.root())) {
    (void)value;
    if (Accepts(layout, state, query)) return true;
  }
  return false;
}

}  // namespace internal

}  // namespace treedl::core
