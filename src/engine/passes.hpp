// Concrete pipeline passes for the §5 preparation flows.
//
//   ValidateStructurePass  — §2.2 conditions against a τ-structure
//   RhsClosurePass         — §5.2 bag closure: add rhs(f) to every bag with f
//   ReRootAtElementPass    — re-root at a bag containing the query element
//   NormalizePass          — modified normal form (Fig. 4) per state options
//
// Inline so that core/ can assemble pipelines without linking the engine
// library; the heavy lifting stays in the td/ and core/ functions each pass
// delegates to.
#ifndef TREEDL_ENGINE_PASSES_HPP_
#define TREEDL_ENGINE_PASSES_HPP_

#include <string>
#include <utility>

#include "core/primality_internal.hpp"
#include "engine/pipeline.hpp"
#include "td/normalize.hpp"
#include "td/shard.hpp"
#include "td/validate.hpp"

namespace treedl::engine {

/// Checks the three tree-decomposition conditions against state.structure.
class ValidateStructurePass final : public Pass {
 public:
  std::string name() const override { return "validate-structure"; }
  Status apply(PipelineState& state) const override {
    if (state.structure == nullptr) {
      return Status::InvalidArgument("no structure to validate against");
    }
    return ValidateForStructure(*state.structure, state.td);
  }
};

/// §5.2 preprocessing: extends every bag containing an FD element with that
/// FD's rhs attribute, establishing the "f in bag ⇒ rhs(f) in bag" invariant
/// the Fig. 6 transitions rely on.
class RhsClosurePass final : public Pass {
 public:
  RhsClosurePass(const SchemaEncoding* encoding,
                 const core::internal::PrimalityContext* context)
      : encoding_(encoding), context_(context) {}
  std::string name() const override { return "rhs-closure"; }
  Status apply(PipelineState& state) const override {
    state.td = core::internal::CloseBagsForRhs(state.td, *encoding_, *context_);
    return Status::OK();
  }

 private:
  const SchemaEncoding* encoding_;
  const core::internal::PrimalityContext* context_;
};

/// Re-roots the working decomposition at a bag containing `element` (the §5.2
/// decision algorithm reads off success at such a root).
class ReRootAtElementPass final : public Pass {
 public:
  explicit ReRootAtElementPass(ElementId element) : element_(element) {}
  std::string name() const override { return "re-root"; }
  Status apply(PipelineState& state) const override {
    TdNodeId target = state.td.FindNodeContaining(element_);
    if (target == kNoTdNode) {
      return Status::InvalidArgument(
          "query element not covered by the decomposition");
    }
    return state.td.ReRoot(target);
  }

 private:
  ElementId element_;
};

/// Transforms the working decomposition into modified normal form (Fig. 4),
/// honoring state.normalize_options (leaf coverage, branch copies, forget
/// priority).
class NormalizePass final : public Pass {
 public:
  std::string name() const override { return "normalize"; }
  Status apply(PipelineState& state) const override {
    auto normalized = Normalize(state.td, state.normalize_options);
    if (!normalized.ok()) return normalized.status();
    state.normalized = std::move(normalized).value();
    return Status::OK();
  }
};

/// Partitions the normalized decomposition into independent subtree shards
/// for the parallel tree-DP walk (core::RunDp). Cost-aware: shards
/// are balanced by the EstimateNodeCost state-count model, not node count,
/// so wide-bag regions near the root no longer dominate the critical path.
/// Runs after NormalizePass; deposits the sharding in state.sharding.
class ShardBagsPass final : public Pass {
 public:
  explicit ShardBagsPass(size_t target_shards) : target_(target_shards) {}
  std::string name() const override { return "shard-bags"; }
  Status apply(PipelineState& state) const override {
    if (!state.normalized.has_value()) {
      return Status::InvalidArgument(
          "shard-bags requires a normalized decomposition");
    }
    state.sharding = ComputeBagShardingByCost(*state.normalized, target_);
    return Status::OK();
  }

 private:
  size_t target_;
};

}  // namespace treedl::engine

#endif  // TREEDL_ENGINE_PASSES_HPP_
