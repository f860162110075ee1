// Shared machinery of the §5.2 decision and §5.3 enumeration algorithms
// (internal header).
//
// The DP state is the solve(s, Y, FY, Co, ΔC, FC) tuple of Fig. 6:
//   Y  — bag attributes inside the candidate closed set Y (sorted),
//   Co — bag attributes outside Y, *ordered* by the derivation sequence,
//   FY — bag FDs already witnessed not to contradict closedness of Y,
//   ΔC — bag attributes whose deriving FD has been found (sorted),
//   FC — bag FDs used in the derivation sequence (sorted).
// All members hold element ids of the encoded τ-structure.
//
// Transition preconditions (checked with DCHECKs) rely on two invariants
// established by the preprocessing pipeline in primality.cpp:
//   * every bag containing an FD element also contains its rhs attribute
//     (rhs-closure pass + FD-first forget priority during normalization);
//   * bags shrink/grow by one element per normalized-TD edge.
#ifndef TREEDL_CORE_PRIMALITY_INTERNAL_HPP_
#define TREEDL_CORE_PRIMALITY_INTERNAL_HPP_

#include <functional>
#include <vector>

#include "common/hash.hpp"
#include "common/status.hpp"
#include "core/tree_dp.hpp"
#include "engine/run_stats.hpp"
#include "schema/encode.hpp"
#include "td/normalize.hpp"

namespace treedl::core::internal {

struct PrimState {
  std::vector<ElementId> y;   // sorted
  std::vector<ElementId> co;  // derivation order
  std::vector<ElementId> fy;  // sorted
  std::vector<ElementId> dc;  // sorted
  std::vector<ElementId> fc;  // sorted

  bool operator==(const PrimState&) const = default;
  size_t hash() const {
    size_t seed = HashRange(y);
    HashCombine(&seed, HashRange(co));
    HashCombine(&seed, HashRange(fy));
    HashCombine(&seed, HashRange(dc));
    HashCombine(&seed, HashRange(fc));
    return seed;
  }
};

/// Branch-compatibility key: states join iff (Y, Co, FC) coincide.
struct PrimJoinKey {
  std::vector<ElementId> y;
  std::vector<ElementId> co;
  std::vector<ElementId> fc;

  bool operator==(const PrimJoinKey&) const = default;
  size_t hash() const {
    size_t seed = HashRange(y);
    HashCombine(&seed, HashRange(co));
    HashCombine(&seed, HashRange(fc));
    return seed;
  }
};

class PrimalityContext {
 public:
  PrimalityContext(const Schema& schema, const SchemaEncoding& encoding);

  using EmitState = std::function<void(PrimState)>;

  bool IsAttr(ElementId e) const { return encoding_.IsAttrElement(e); }
  bool IsFd(ElementId e) const { return encoding_.IsFdElement(e); }
  ElementId RhsElem(ElementId fd_elem) const {
    return rhs_elem_[static_cast<size_t>(encoding_.FdOf(fd_elem))];
  }
  const std::vector<ElementId>& LhsElems(ElementId fd_elem) const {
    return lhs_elems_[static_cast<size_t>(encoding_.FdOf(fd_elem))];
  }

  /// Leaf rule of Fig. 6: all partitions (Y, ordered Co) of the bag's
  /// attributes, all consistent used-FD subsets FC with pairwise distinct
  /// rhs, ΔC = rhs(FC), FY = outside(Y, bag).
  void LeafStates(const std::vector<ElementId>& bag,
                  const EmitState& emit) const;

  /// Attribute introduction rules (b joins Y, or is inserted anywhere into
  /// Co subject to consistent(FC, Co ⊎ {b})).
  void IntroduceAttr(const std::vector<ElementId>& bag, ElementId b,
                     const PrimState& s, const EmitState& emit) const;

  /// FD introduction rules (rhs ∈ Y: no-op; rhs ∈ Co: used / not used).
  void IntroduceFd(const std::vector<ElementId>& bag, ElementId f,
                   const PrimState& s, const EmitState& emit) const;

  /// Attribute removal rules; `bag` is the bag *without* b.
  void ForgetAttr(const std::vector<ElementId>& bag, ElementId b,
                  const PrimState& s, const EmitState& emit) const;

  /// FD removal rules; `bag` is the bag *without* f.
  void ForgetFd(const std::vector<ElementId>& bag, ElementId f,
                const PrimState& s, const EmitState& emit) const;

  PrimJoinKey KeyOf(const PrimState& s) const {
    return PrimJoinKey{s.y, s.co, s.fc};
  }

  /// Branch rule: requires equal keys; checks unique(ΔC1, ΔC2, FC) and emits
  /// the union state.
  void Join(const PrimState& a, const PrimState& b, const EmitState& emit) const;

  /// Success condition at a node whose (subtree/envelope) covers everything:
  /// a ∉ Y, FY = {f ∈ bag | rhs(f) ∉ Y}, ΔC = Co \ {a}.
  bool Accepts(const std::vector<ElementId>& bag, const PrimState& s,
               ElementId query_attr) const;

  /// FDs of the bag with rhs outside y and some bag lhs-attribute outside y —
  /// the outside(FY, Y, At, Fd) predicate.
  std::vector<ElementId> Outside(const std::vector<ElementId>& bag,
                                 const std::vector<ElementId>& y) const;

 private:
  const SchemaEncoding& encoding_;
  std::vector<ElementId> rhs_elem_;               // per FdId
  std::vector<std::vector<ElementId>> lhs_elems_; // per FdId, sorted
};

/// Extends every bag containing an FD element with that FD's rhs attribute
/// (connectedness is preserved; width may grow — §5.2's "may double the
/// width" remark).
TreeDecomposition CloseBagsForRhs(const TreeDecomposition& td,
                                  const SchemaEncoding& encoding,
                                  const PrimalityContext& context);

/// Normalization options for primality: FD elements are forgotten before
/// attributes and introduced after them, preserving the rhs-closure invariant
/// along every chain.
NormalizeOptions PrimalityNormalizeOptions(const SchemaEncoding& encoding,
                                           bool for_enumeration);

/// Fig. 6 bottom-up DP over a *prepared* decomposition — already validated,
/// rhs-closed, re-rooted at a bag containing `a_elem`, and normalized with
/// PrimalityNormalizeOptions(·, false). Used by IsPrimeViaTd after its pass
/// pipeline, and by the Engine with its cached artifacts. One pass, one
/// RunDp walk; its DpStats fold into `stats`. After an `exec.budget` abort
/// the verdict is meaningless: the caller surfaces budget->AbortStatus().
bool DecidePrimePrepared(const PrimalityContext& context,
                         const NormalizedTreeDecomposition& ntd,
                         ElementId a_elem, RunStats* stats,
                         const DpExec& exec = {});

/// §5.3 two-pass enumeration over a prepared decomposition — validated,
/// rhs-closed, normalized with PrimalityNormalizeOptions(·, true). When
/// `exec` carries a sharding and pool, both passes run shard-parallel on it
/// (bottom-up solve, then the inverted top-down solve↓ schedule); with
/// exec.table_memory_budget > 0 dead state tables are evicted as the passes
/// consume them. Results are bit-identical at any thread count.
std::vector<bool> EnumeratePrimesPrepared(const PrimalityContext& context,
                                          const SchemaEncoding& encoding,
                                          int num_attributes,
                                          const NormalizedTreeDecomposition& ntd,
                                          RunStats* stats,
                                          const DpExec& exec = {});

}  // namespace treedl::core::internal

#endif  // TREEDL_CORE_PRIMALITY_INTERNAL_HPP_
