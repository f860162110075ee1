#include "core/primality.hpp"

#include <algorithm>
#include <vector>

#include "core/primality_internal.hpp"
#include "engine/passes.hpp"
#include "engine/pipeline.hpp"

namespace treedl::core {

using internal::PrimalityContext;

namespace internal {

bool DecidePrimePrepared(const PrimalityContext& context,
                         const NormalizedTreeDecomposition& ntd,
                         ElementId a_elem, RunStats* stats,
                         const DpExec& exec) {
  DpStats dp;
  TableMemoryTracker memory;
  std::vector<PrimTable> up =
      SolveBottomUp(context, ntd, exec, /*keep_branch_children=*/false,
                    &memory, &dp);
  memory.FoldInto(&dp);
  dp.traversals = 1;
  if (stats != nullptr) FoldDpStats(dp, stats);
  if (exec.budget != nullptr && exec.budget->Aborted()) return false;
  const auto& bag = ntd.Bag(ntd.root());
  BagLayout layout = context.Layout(bag);
  int query = std::binary_search(bag.begin(), bag.end(), a_elem)
                  ? BagPosition(bag, a_elem)
                  : -1;
  for (const auto& [state, value] : up[static_cast<size_t>(ntd.root())]) {
    (void)value;
    if (Accepts(layout, state, query)) return true;
  }
  return false;
}

}  // namespace internal

StatusOr<bool> IsPrimeViaTd(const Schema& schema, const SchemaEncoding& encoding,
                            const TreeDecomposition& td, AttributeId a,
                            RunStats* stats) {
  if (stats != nullptr) *stats = RunStats{};
  if (a < 0 || a >= schema.NumAttributes()) {
    return Status::InvalidArgument("attribute id out of range");
  }
  PrimalityContext context(schema, encoding);
  ElementId a_elem = encoding.AttrElement(a);

  engine::PipelineState state;
  state.structure = &encoding.structure;
  state.td = td;
  state.normalize_options =
      internal::PrimalityNormalizeOptions(encoding, /*for_enumeration=*/false);
  engine::PassPipeline pipeline;
  pipeline.Emplace<engine::ValidateStructurePass>()
      .Emplace<engine::RhsClosurePass>(&encoding, &context)
      .Emplace<engine::ReRootAtElementPass>(a_elem)
      .Emplace<engine::NormalizePass>();
  TREEDL_RETURN_IF_ERROR(pipeline.Run(state, stats));
  if (stats != nullptr) ++stats->normalize_builds;
  TREEDL_RETURN_IF_ERROR(
      context.CheckBags(*state.normalized, /*for_enumeration=*/false));

  return internal::DecidePrimePrepared(context, *state.normalized, a_elem,
                                       stats);
}

}  // namespace treedl::core
