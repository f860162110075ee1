#include "core/primality.hpp"

#include <variant>

#include "common/logging.hpp"
#include "core/primality_internal.hpp"
#include "engine/passes.hpp"
#include "engine/pipeline.hpp"

namespace treedl::core {

namespace {

using internal::PrimalityContext;
using internal::PrimJoinKey;
using internal::PrimState;

// Adapter plugging PrimalityContext into the generic tree DP (RunDp).
struct PrimalityProblem {
  using State = PrimState;
  using Value = std::monostate;
  using Emit = std::function<void(State, Value)>;

  const PrimalityContext* context;

  void Leaf(const std::vector<ElementId>& bag, const Emit& emit) const {
    context->LeafStates(bag, [&](PrimState s) { emit(std::move(s), {}); });
  }
  void Introduce(const std::vector<ElementId>& bag, ElementId e,
                 const State& s, const Value&, const Emit& emit) const {
    auto forward = [&](PrimState next) { emit(std::move(next), {}); };
    if (context->IsAttr(e)) {
      context->IntroduceAttr(bag, e, s, forward);
    } else {
      context->IntroduceFd(bag, e, s, forward);
    }
  }
  void Forget(const std::vector<ElementId>& bag, ElementId e, const State& s,
              const Value&, const Emit& emit) const {
    auto forward = [&](PrimState next) { emit(std::move(next), {}); };
    if (context->IsAttr(e)) {
      context->ForgetAttr(bag, e, s, forward);
    } else {
      context->ForgetFd(bag, e, s, forward);
    }
  }
  PrimJoinKey KeyOf(const State& s) const { return context->KeyOf(s); }
  void Join(const std::vector<ElementId>& /*bag*/, const State& a,
            const Value&, const State& b, const Value&,
            const Emit& emit) const {
    context->Join(a, b, [&](PrimState next) { emit(std::move(next), {}); });
  }
  Value Merge(const Value& a, const Value&) const { return a; }
};

}  // namespace

namespace internal {

bool DecidePrimePrepared(const PrimalityContext& context,
                         const NormalizedTreeDecomposition& ntd,
                         ElementId a_elem, RunStats* stats,
                         const DpExec& exec) {
  DpStats dp;
  auto table = RunDp(ntd, PrimalityProblem{&context}, exec, &dp,
                     /*retain_tables=*/false);
  if (stats != nullptr) FoldDpStats(dp, stats);
  if (exec.budget != nullptr && exec.budget->Aborted()) return false;
  const auto& bag = ntd.Bag(ntd.root());
  for (const auto& [state, value] : table.at(ntd.root())) {
    if (context.Accepts(bag, state, a_elem)) return true;
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

  return internal::DecidePrimePrepared(context, *state.normalized, a_elem,
                                       stats);
}

}  // namespace treedl::core
