// Shared machinery of the §5.2 decision and §5.3 enumeration algorithms
// (internal header).
//
// The DP state is the solve(s, Y, FY, Co, ΔC, FC) tuple of Fig. 6:
//   Y  — bag attributes inside the candidate closed set Y,
//   Co — bag attributes outside Y, *ordered* by the derivation sequence,
//   FY — bag FDs already witnessed not to contradict closedness of Y,
//   ΔC — bag attributes whose deriving FD has been found,
//   FC — bag FDs used in the derivation sequence.
//
// Record layout (PrimState, 56 bytes, no heap): members name *positions* in
// the node's sorted bag, not element ids. Y, FY, ΔC and FC are uint64_t
// masks (bit p = bag element p); Co is a byte sequence of positions in
// derivation order plus its length, unused bytes zero, so hash and == work
// on whole words. A state is meaningful only together with the bag of the
// table it lives in.
//
// Position-order invariant: bags are sorted by element id, so "sorted by id"
// is position order, and every transition emits exactly the states — in
// exactly the order — of the element-id formulation of Fig. 6. Introduce
// opens a zero bit at the new element's position (OpenBit, PrimState::Open);
// forget drops the element's bit (DropBit, PrimState::Drop); both renumber
// the Co positions to match. The FD facts a transition needs (each FD
// position's rhs position and lhs mask) are computed once per node step into
// a BagLayout; nothing is cached across steps.
//
// Limits (CheckBags turns violations into Status::ResourceExhausted before a
// walk starts): a bag has at most kMaxPrimBagSize = 63 elements (mask
// positions), at most kCoCapacity = 23 attributes (Co bytes), and a bag the
// leaf rule enumerates — every leaf, plus the root in the enumeration's
// top-down base — at most kMaxLeafAttributes = 10 attributes.
//
// Transition preconditions (checked with DCHECKs) rely on two invariants
// established by the preparation the Engine runs before every walk
// (CloseBagsForRhs, then Normalize with PrimalityNormalizeOptions):
//   * every bag containing an FD element also contains its rhs attribute
//     (rhs-closure + FD-first forget priority during normalization);
//   * bags shrink/grow by one element per normalized-TD edge.
#ifndef TREEDL_CORE_PRIMALITY_INTERNAL_HPP_
#define TREEDL_CORE_PRIMALITY_INTERNAL_HPP_

#include <cstdint>
#include <cstring>
#include <variant>
#include <vector>

#include "common/flat_table.hpp"
#include "common/status.hpp"
#include "core/tree_dp.hpp"
#include "engine/run_stats.hpp"
#include "schema/encode.hpp"
#include "td/normalize.hpp"

namespace treedl::core::internal {

inline constexpr int kMaxPrimBagSize = 63;
inline constexpr int kCoCapacity = 23;
inline constexpr int kMaxLeafAttributes = 10;

struct PrimState {
  uint64_t y = 0;
  uint64_t fy = 0;
  uint64_t dc = 0;
  uint64_t fc = 0;
  uint8_t co[kCoCapacity] = {};  // derivation order; bytes >= co_size are 0
  uint8_t co_size = 0;

  /// Index of position p in Co, or -1.
  int CoIndex(int p) const {
    for (int i = 0; i < co_size; ++i) {
      if (co[i] == p) return i;
    }
    return -1;
  }
  uint64_t CoMask() const {
    uint64_t mask = 0;
    for (int i = 0; i < co_size; ++i) mask |= uint64_t{1} << co[i];
    return mask;
  }
  /// Requires co_size < kCoCapacity (CheckBags bounds attributes per bag).
  void CoInsert(int index, int p) {
    std::memmove(co + index + 1, co + index,
                 static_cast<size_t>(co_size - index));
    co[index] = static_cast<uint8_t>(p);
    ++co_size;
  }
  void CoErase(int index) {
    std::memmove(co + index, co + index + 1,
                 static_cast<size_t>(co_size - index - 1));
    co[--co_size] = 0;
  }
  /// The bag gained an element at position p (introduce).
  void Open(int p) {
    y = OpenBit(y, p);
    fy = OpenBit(fy, p);
    dc = OpenBit(dc, p);
    fc = OpenBit(fc, p);
    for (int i = 0; i < co_size; ++i) co[i] += co[i] >= p;
  }
  /// The bag lost its element at position p (forget); p leaves Co too.
  void Drop(int p) {
    y = DropBit(y, p);
    fy = DropBit(fy, p);
    dc = DropBit(dc, p);
    fc = DropBit(fc, p);
    int erased = -1;
    for (int i = 0; i < co_size; ++i) {
      if (co[i] == p) erased = i;
      co[i] -= co[i] > p;
    }
    if (erased >= 0) CoErase(erased);
  }

  bool operator==(const PrimState& o) const {
    return std::memcmp(this, &o, sizeof(PrimState)) == 0;
  }
  size_t hash() const {
    uint64_t words[7];
    std::memcpy(words, this, sizeof(words));
    return HashWords(words, 7);
  }
};
static_assert(sizeof(PrimState) == 56, "PrimState must stay 7 words");

/// One node's state table: insertion order is emit order.
using PrimTable = FlatTable<PrimState, std::monostate>;

/// Per-node FD context: which bag positions hold attributes and FDs, and for
/// each FD position its rhs position and the mask of its lhs attributes that
/// lie in the bag.
struct BagLayout {
  uint64_t attrs = 0;
  uint64_t fds = 0;
  uint8_t rhs[kMaxPrimBagSize] = {};
  uint64_t lhs[kMaxPrimBagSize] = {};

  /// Positions of the rhs attributes of the FDs in `fd_mask`.
  uint64_t RhsOf(uint64_t fd_mask) const;
  /// The outside(FY, Y, At, Fd) predicate: bag FDs with rhs ∉ Y and some bag
  /// lhs-attribute ∉ Y.
  uint64_t Outside(uint64_t y) const;
};

class PrimalityContext {
 public:
  PrimalityContext(const Schema& schema, const SchemaEncoding& encoding);

  bool IsAttr(ElementId e) const { return encoding_.IsAttrElement(e); }
  ElementId RhsElem(ElementId fd_elem) const {
    return rhs_elem_[static_cast<size_t>(encoding_.FdOf(fd_elem))];
  }
  const std::vector<ElementId>& LhsElems(ElementId fd_elem) const {
    return lhs_elems_[static_cast<size_t>(encoding_.FdOf(fd_elem))];
  }

  /// The node-step context of a sorted bag of at most kMaxPrimBagSize
  /// elements that satisfies the rhs-closure invariant.
  BagLayout Layout(const std::vector<ElementId>& bag) const;

  /// The limits of the header comment, checked over every bag of `ntd`;
  /// `for_enumeration` adds the root to the bags the leaf rule enumerates.
  Status CheckBags(const NormalizedTreeDecomposition& ntd,
                   bool for_enumeration) const;

 private:
  const SchemaEncoding& encoding_;
  std::vector<ElementId> rhs_elem_;               // per FdId
  std::vector<std::vector<ElementId>> lhs_elems_; // per FdId, sorted
};

// Fig. 6 node steps, shared by the bottom-up and top-down passes. `bag` is
// the sorted bag of the node whose table `out` receives the states; each step
// inserts straight into `out`, in the emit order of the element-id
// formulation.

/// Leaf rule: all partitions (Y, ordered Co) of the bag's attributes, all
/// consistent used-FD subsets FC with pairwise distinct rhs, ΔC = rhs(FC),
/// FY = outside(Y, bag).
void LeafStates(const PrimalityContext& context,
                const std::vector<ElementId>& bag, PrimTable* out);

/// Introduction of `e` into every state of `in`. An attribute joins Y, or is
/// inserted anywhere into Co subject to consistent(FC, Co ⊎ {e}); an FD with
/// rhs ∈ Y changes nothing, one with rhs ∈ Co is used or not used.
void IntroduceStates(const PrimalityContext& context,
                     const std::vector<ElementId>& bag, ElementId e,
                     const PrimTable& in, PrimTable* out);

/// Removal of `e` (not in `bag`) from every state of `in`: an attribute in Co
/// must be derived (∈ ΔC), an FD with rhs ∈ Co must be witnessed (∈ FY).
void ForgetStates(const PrimalityContext& context,
                  const std::vector<ElementId>& bag, ElementId e,
                  const PrimTable& in, PrimTable* out);

/// Branch rule: every pair of `left` x `right` with equal (Y, FC, Co) that
/// passes unique(ΔC1, ΔC2, FC) yields the union state — left-major, and in
/// the right table's insertion order within a key.
void JoinStates(const PrimalityContext& context,
                const std::vector<ElementId>& bag, const PrimTable& left,
                const PrimTable& right, PrimTable* out);

void CopyStates(const PrimTable& in, PrimTable* out);

/// Success condition at a node whose (subtree/envelope) covers everything:
/// the query attribute (position `query`, -1 if not in the bag) ∉ Y,
/// FY = {f ∈ bag | rhs(f) ∉ Y}, ΔC = Co \ {query}.
bool Accepts(const BagLayout& bag, const PrimState& s, int query);

/// The bottom-up solve() pass: one table per node, children before parents
/// (shard-parallel when exec.Parallel()). A node's child tables are released
/// once it is built, except the children of branch nodes when
/// `keep_branch_children` (the enumeration's top-down pass re-reads them). A
/// tripped exec.budget leaves the tables partial.
std::vector<PrimTable> SolveBottomUp(const PrimalityContext& context,
                                     const NormalizedTreeDecomposition& ntd,
                                     const DpExec& exec,
                                     bool keep_branch_children,
                                     TableMemoryTracker* memory,
                                     DpStats* stats);

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
/// rhs-closed, re-rooted at a bag containing `a_elem`, normalized with
/// PrimalityNormalizeOptions(·, false), and within CheckBags(·, false). Used
/// by Engine::IsPrime on its cached artifacts. One pass, one walk; its
/// DpStats fold into `stats`. After an `exec.budget` abort the verdict is
/// meaningless: the caller surfaces budget->AbortStatus().
bool DecidePrimePrepared(const PrimalityContext& context,
                         const NormalizedTreeDecomposition& ntd,
                         ElementId a_elem, RunStats* stats,
                         const DpExec& exec = {});

/// §5.3 two-pass enumeration over a prepared decomposition — validated,
/// rhs-closed, normalized with PrimalityNormalizeOptions(·, true), and within
/// CheckBags(·, true). When `exec` carries a sharding and pool, both passes
/// run shard-parallel on it (bottom-up solve, then the inverted top-down
/// solve↓ schedule); dead state tables are evicted as the passes consume
/// them. Results are bit-identical at any thread count.
std::vector<bool> EnumeratePrimesPrepared(const PrimalityContext& context,
                                          const SchemaEncoding& encoding,
                                          int num_attributes,
                                          const NormalizedTreeDecomposition& ntd,
                                          RunStats* stats,
                                          const DpExec& exec = {});

}  // namespace treedl::core::internal

#endif  // TREEDL_CORE_PRIMALITY_INTERNAL_HPP_
