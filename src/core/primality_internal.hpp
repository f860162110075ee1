// Shared machinery of the §5.2 decision and §5.3 enumeration algorithms
// (internal header): Fig. 6 as a core::RunDp problem (PrimalityProblem).
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
// position's rhs position and lhs mask) are computed once per step into the
// step's PrimStep record (PrimalityProblem::Context), only at the leaf,
// introduce and branch steps that read them; nothing is cached across steps.
//
// Both passes run the same hooks: the bottom-up solve() pass is one RunDp
// walk (DecidePrimePrepared, and the enumeration's first pass), and the
// enumeration's top-down solve↓() pass steps each node through
// internal::ApplyStep on the inverted kind, with the context built by
// PrimalityProblem::Context(kind, bag, element).
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

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <variant>
#include <vector>

#include "common/flat_table.hpp"
#include "common/logging.hpp"
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

/// Calls fn(p) for every set bit p of `mask`, lowest first.
template <typename Fn>
void ForEachBit(uint64_t mask, Fn&& fn) {
  for (; mask != 0; mask &= mask - 1) fn(std::countr_zero(mask));
}

/// Success condition at a node whose (subtree/envelope) covers everything:
/// the query attribute (position `query`, -1 if not in the bag) ∉ Y,
/// FY = {f ∈ bag | rhs(f) ∉ Y}, ΔC = Co \ {query}.
bool Accepts(const BagLayout& bag, const PrimState& s, int query);

/// Branch-compatibility key: states join iff (Y, FC, Co) coincide.
struct PrimJoinKey {
  uint64_t y = 0;
  uint64_t fc = 0;
  uint8_t co[kCoCapacity + 1] = {};  // PrimState::co followed by co_size

  explicit PrimJoinKey(const PrimState& s) : y(s.y), fc(s.fc) {
    std::memcpy(co, s.co, kCoCapacity);
    co[kCoCapacity] = s.co_size;
  }
  bool operator==(const PrimJoinKey& o) const {
    return std::memcmp(this, &o, sizeof(PrimJoinKey)) == 0;
  }
  size_t hash() const {
    uint64_t words[5];
    std::memcpy(words, this, sizeof(words));
    return HashWords(words, 5);
  }
};
static_assert(sizeof(PrimJoinKey) == 40, "PrimJoinKey must stay 5 words");

/// What the Fig. 6 transitions of one step read (PrimalityProblem::Context).
struct PrimStep {
  /// The FD layout of the step's bag; built at leaf, introduce and branch
  /// steps only (forget and copy read none of it).
  BagLayout layout;
  /// Position of the introduced element in the bag, or of the forgotten one
  /// in the input bag (its insertion point in the bag); -1 elsewhere.
  int pos = -1;
  /// Whether that element is an attribute (otherwise an FD).
  bool attr = false;
  /// Forget of an FD: the position of its rhs in the bag.
  int rhs = -1;
};

/// Fig. 6 as a core::RunDp problem (tree_dp.hpp): State = PrimState, no
/// value, join key (Y, FC, Co). Every hook emits in the order of the
/// element-id formulation (header comment).
class PrimalityProblem {
 public:
  using State = PrimState;
  using Value = std::monostate;

  explicit PrimalityProblem(const PrimalityContext& context)
      : context_(context) {}

  PrimStep Context(const NormNode& node) const {
    return Context(node.kind, node.bag, node.element);
  }
  /// The record of a `kind` step whose output bag is `bag` (sorted, within
  /// the limits of the header comment) and whose introduced or forgotten
  /// element is `element` (ignored at other kinds).
  PrimStep Context(NormNodeKind kind, const std::vector<ElementId>& bag,
                   ElementId element) const;

  /// Leaf rule: all partitions (Y, ordered Co) of the bag's attributes, all
  /// consistent used-FD subsets FC with pairwise distinct rhs,
  /// ΔC = rhs(FC), FY = outside(Y, bag).
  template <typename Emit>
  void Leaf(const PrimStep& step, Emit&& emit) const {
    const BagLayout& layout = step.layout;
    int na = std::popcount(layout.attrs);
    TREEDL_CHECK(na <= kMaxLeafAttributes)
        << "bag too large for leaf enumeration";
    uint8_t attrs[kMaxLeafAttributes];
    int k = 0;
    ForEachBit(layout.attrs,
               [&](int p) { attrs[k++] = static_cast<uint8_t>(p); });
    for (uint64_t ymask = 0; ymask < (uint64_t{1} << na); ++ymask) {
      PrimState s;
      for (int i = 0; i < na; ++i) {
        if ((ymask >> i) & 1) {
          s.y |= uint64_t{1} << attrs[i];
        } else {
          s.co[s.co_size++] = attrs[i];
        }
      }
      s.fy = layout.Outside(s.y);
      // Candidate used-FDs: bag FDs whose rhs lies in Co.
      int candidates[kMaxPrimBagSize];
      int nc = 0;
      ForEachBit(layout.fds, [&](int f) {
        if (!((s.y >> layout.rhs[f]) & 1)) candidates[nc++] = f;
      });
      // All derivation orders of the non-Y attributes, lexicographically.
      do {
        for (uint64_t fcmask = 0; fcmask < (uint64_t{1} << nc); ++fcmask) {
          uint64_t fc = 0;
          uint64_t dc = 0;
          bool ok = true;
          for (int j = 0; j < nc && ok; ++j) {
            if (!((fcmask >> j) & 1)) continue;
            int f = candidates[j];
            uint64_t rhs_bit = uint64_t{1} << layout.rhs[f];
            // Pairwise distinct rhs (ΔC is a disjoint union of rhs's), and
            // consistent(FC, Co).
            ok = !(dc & rhs_bit) &&
                 ConsistentAt(layout, f, s, s.CoIndex(layout.rhs[f]));
            fc |= uint64_t{1} << f;
            dc |= rhs_bit;
          }
          if (!ok) continue;
          PrimState next = s;
          next.dc = dc;
          next.fc = fc;
          emit(next, std::monostate{});
        }
      } while (std::next_permutation(s.co, s.co + s.co_size));
    }
  }

  /// The FD subsets the leaf keeps depend on each derivation order.
  size_t LeafStates(const PrimStep& /*step*/) const { return 0; }

  /// Introduction of the step's element. An attribute joins Y, or is
  /// inserted anywhere into Co subject to consistent(FC, Co ⊎ {e}); an FD
  /// with rhs ∈ Y changes nothing, one with rhs ∈ Co is used or not used.
  template <typename Emit>
  void Introduce(const PrimStep& step, const PrimState& s, std::monostate,
                 Emit&& emit) const {
    if (step.attr) {
      IntroduceAttr(step.layout, step.pos, s, emit);
    } else {
      IntroduceFd(step.layout, step.pos, s, emit);
    }
  }

  /// An attribute joins Y or takes one of at most |bag attributes| Co
  /// slots; an FD is used or not.
  size_t IntroduceFanOut(const PrimStep& step) const {
    return step.attr ? static_cast<size_t>(std::popcount(step.layout.attrs)) + 1
                     : 2;
  }

  /// Removal of the step's element: an attribute in Co must be derived
  /// (∈ ΔC), an FD with rhs ∈ Co must be witnessed (∈ FY).
  template <typename Emit>
  void Forget(const PrimStep& step, const PrimState& s, std::monostate,
              Emit&& emit) const {
    if (step.attr) {
      ForgetAttr(step.pos, s, emit);
    } else {
      ForgetFd(step.pos, step.rhs, s, emit);
    }
  }

  PrimJoinKey KeyOf(const PrimState& s) const { return PrimJoinKey(s); }

  /// Branch rule, per pair of equal (Y, FC, Co): the union state, if it
  /// passes unique(ΔC1, ΔC2, FC) — an attribute derived in both subtrees
  /// must owe its derivation to a shared (bag) FD.
  template <typename Emit>
  void Join(const PrimStep& step, const PrimState& a, std::monostate,
            const PrimState& b, std::monostate, Emit&& emit) const {
    TREEDL_DCHECK(PrimJoinKey(a) == PrimJoinKey(b));
    if ((a.dc & b.dc) != step.layout.RhsOf(a.fc)) return;
    PrimState next = a;
    next.fy |= b.fy;
    next.dc |= b.dc;
    emit(next, std::monostate{});
  }

  std::monostate Merge(std::monostate, std::monostate) const { return {}; }

 private:
  /// Whether FD position f may derive the Co entry at index `rhs_index`:
  /// consistent(FC, Co) — none of f's bag lhs attributes sits at or after
  /// its rhs in the derivation order.
  static bool ConsistentAt(const BagLayout& bag, int f, const PrimState& s,
                           int rhs_index) {
    for (int i = rhs_index; i < s.co_size; ++i) {
      if ((bag.lhs[f] >> s.co[i]) & 1) return false;
    }
    return true;
  }

  // The per-state transitions. `bag` is the layout of the output bag;
  // positions are in that bag for introduce and in the input bag (which
  // still holds the element) for forget.

  template <typename Emit>
  static void IntroduceAttr(const BagLayout& bag, int b, const PrimState& s,
                            Emit&& emit) {
    PrimState base = s;
    base.Open(b);
    // Rule 1: b joins Y.
    {
      PrimState next = base;
      next.y |= uint64_t{1} << b;
      emit(next, std::monostate{});
    }
    // Rule 2: b is inserted at every Co index up to the first rhs of a used
    // FD with b in its lhs (consistent(FC, Co ⊎ {b})), and the
    // outside-witnesses are refreshed (b ∉ Y may witness additional FDs).
    TREEDL_DCHECK(base.co_size < kCoCapacity);
    int last = base.co_size;
    ForEachBit(base.fc, [&](int f) {
      if ((bag.lhs[f] >> b) & 1) {
        int rhs_index = base.CoIndex(bag.rhs[f]);
        TREEDL_DCHECK(rhs_index >= 0);
        last = std::min(last, rhs_index);
      }
    });
    base.fy |= bag.Outside(base.y);
    for (int index = 0; index <= last; ++index) {
      PrimState next = base;
      next.CoInsert(index, b);
      emit(next, std::monostate{});
    }
  }

  template <typename Emit>
  static void IntroduceFd(const BagLayout& bag, int f, const PrimState& s,
                          Emit&& emit) {
    PrimState base = s;
    base.Open(f);
    int rhs = bag.rhs[f];
    uint64_t rhs_bit = uint64_t{1} << rhs;
    if (base.y & rhs_bit) {
      // Rule 1: rhs ∈ Y — nothing to track.
      emit(base, std::monostate{});
      return;
    }
    int rhs_index = base.CoIndex(rhs);
    TREEDL_DCHECK(rhs_index >= 0);
    // f is locally witnessed not to contradict closedness when some bag
    // lhs-attribute lies outside Y.
    if ((bag.lhs[f] & ~base.y) != 0) base.fy |= uint64_t{1} << f;
    // Rule 3: f is not used in the derivation.
    emit(base, std::monostate{});
    // Rule 2: f derives rhs — requires a fresh ΔC slot and order
    // consistency.
    if (!(base.dc & rhs_bit) && ConsistentAt(bag, f, base, rhs_index)) {
      base.fc |= uint64_t{1} << f;
      base.dc |= rhs_bit;
      emit(base, std::monostate{});
    }
  }

  template <typename Emit>
  static void ForgetAttr(int b, const PrimState& s, Emit&& emit) {
    uint64_t bit = uint64_t{1} << b;
    // b ∈ Co must have had its derivation established (b ∈ ΔC).
    if (!(s.y & bit) && !(s.dc & bit)) return;
    PrimState next = s;
    next.Drop(b);
    emit(next, std::monostate{});
  }

  template <typename Emit>
  static void ForgetFd(int f, int rhs, const PrimState& s, Emit&& emit) {
    uint64_t bit = uint64_t{1} << f;
    int rhs_in = rhs + (rhs >= f ? 1 : 0);
    if ((s.y >> rhs_in) & 1) {
      TREEDL_DCHECK(!(s.fy & bit) && !(s.fc & bit));
    } else if (!(s.fy & bit)) {
      // rhs ∈ Co: f must have been witnessed (f ∈ FY) — otherwise it would
      // contradict the closedness of Y.
      return;
    }
    PrimState next = s;
    next.Drop(f);  // f leaves FY and FC with its bit
    emit(next, std::monostate{});
  }

  const PrimalityContext& context_;
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
/// rhs-closed, re-rooted at a bag containing `a_elem`, normalized with
/// PrimalityNormalizeOptions(·, false), and within CheckBags(·, false). Used
/// by Engine::IsPrime on its cached artifacts. One RunDp walk of
/// PrimalityProblem, retaining no table; its DpStats fold into `stats`. After an `exec.budget` abort the verdict is
/// meaningless: the caller surfaces budget->AbortStatus().
bool DecidePrimePrepared(const PrimalityContext& context,
                         const NormalizedTreeDecomposition& ntd,
                         ElementId a_elem, RunStats* stats,
                         const DpExec& exec = {});

/// One node of the top-down solve↓() pass (§5.3): the state set of a node
/// characterizes the *envelope* T̄_s. Formulated per node — "compute my own
/// table from my parent's" — so a parents-first chunk of nodes is a valid
/// schedule for both the sequential walk and the inverted shard schedule.
/// The step is the parent's kind inverted, run through the same ApplyStep
/// and PrimalityProblem hooks as the bottom-up pass; at a branch the
/// sibling's bottom-up table (in `up`) joins in. Fills (*down)[x]; `scratch`
/// is the chunk's join buffer.
void TopDownStep(const PrimalityProblem& problem,
                 const NormalizedTreeDecomposition& ntd, TdNodeId x,
                 const std::vector<PrimTable>& up, std::vector<PrimTable>* down,
                 JoinScratch* scratch);

/// §5.3 two-pass enumeration over a prepared decomposition — validated,
/// rhs-closed, normalized with PrimalityNormalizeOptions(·, true), and within
/// CheckBags(·, true). When `exec` carries a sharding and pool, both passes
/// run shard-parallel on it (the bottom-up solve RunDp walk, retaining
/// branch children, then the inverted top-down solve↓ schedule); dead state
/// tables are evicted as the passes consume them. Results are bit-identical
/// at any thread count.
std::vector<bool> EnumeratePrimesPrepared(const PrimalityContext& context,
                                          const SchemaEncoding& encoding,
                                          int num_attributes,
                                          const NormalizedTreeDecomposition& ntd,
                                          RunStats* stats,
                                          const DpExec& exec = {});

}  // namespace treedl::core::internal

#endif  // TREEDL_CORE_PRIMALITY_INTERNAL_HPP_
