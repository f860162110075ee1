#include "core/primality_internal.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <unordered_map>

#include "common/logging.hpp"

namespace treedl::core::internal {

namespace {

void Insert(PrimTable* out, const PrimState& s) {
  out->Emplace(s, std::monostate{},
               [](const std::monostate& existing, const std::monostate&) {
                 return existing;
               });
}

/// Calls fn(p) for every set bit p of `mask`, lowest first.
template <typename Fn>
void ForEachBit(uint64_t mask, Fn&& fn) {
  for (; mask != 0; mask &= mask - 1) fn(std::countr_zero(mask));
}

/// Whether FD position f may derive the Co entry at index `rhs_index`:
/// consistent(FC, Co) — none of f's bag lhs attributes sits at or after its
/// rhs in the derivation order.
bool ConsistentAt(const BagLayout& bag, int f, const PrimState& s,
                  int rhs_index) {
  for (int i = rhs_index; i < s.co_size; ++i) {
    if ((bag.lhs[f] >> s.co[i]) & 1) return false;
  }
  return true;
}

}  // namespace

PrimalityContext::PrimalityContext(const Schema& schema,
                                   const SchemaEncoding& encoding)
    : encoding_(encoding) {
  rhs_elem_.reserve(static_cast<size_t>(schema.NumFds()));
  lhs_elems_.reserve(static_cast<size_t>(schema.NumFds()));
  for (FdId f = 0; f < schema.NumFds(); ++f) {
    rhs_elem_.push_back(encoding.AttrElement(schema.Fd(f).rhs));
    std::vector<ElementId> lhs;
    for (AttributeId b : schema.Fd(f).lhs) {
      lhs.push_back(encoding.AttrElement(b));
    }
    std::sort(lhs.begin(), lhs.end());
    lhs_elems_.push_back(std::move(lhs));
  }
}

BagLayout PrimalityContext::Layout(const std::vector<ElementId>& bag) const {
  TREEDL_CHECK(bag.size() <= static_cast<size_t>(kMaxPrimBagSize))
      << "primality bag exceeds " << kMaxPrimBagSize << " positions";
  auto contains = [&](int p, ElementId e) {
    return static_cast<size_t>(p) < bag.size() &&
           bag[static_cast<size_t>(p)] == e;
  };
  BagLayout layout;
  for (size_t p = 0; p < bag.size(); ++p) {
    if (IsAttr(bag[p])) {
      layout.attrs |= uint64_t{1} << p;
      continue;
    }
    layout.fds |= uint64_t{1} << p;
    int rhs = static_cast<int>(PositionInBag(bag, RhsElem(bag[p])));
    TREEDL_CHECK(contains(rhs, RhsElem(bag[p])))
        << "rhs-closure invariant violated";
    layout.rhs[p] = static_cast<uint8_t>(rhs);
    for (ElementId b : LhsElems(bag[p])) {
      int q = static_cast<int>(PositionInBag(bag, b));
      if (contains(q, b)) layout.lhs[p] |= uint64_t{1} << q;
    }
  }
  TREEDL_CHECK(std::popcount(layout.attrs) <= kCoCapacity)
      << "primality bag exceeds " << kCoCapacity << " attributes";
  return layout;
}

Status PrimalityContext::CheckBags(const NormalizedTreeDecomposition& ntd,
                                   bool for_enumeration) const {
  for (size_t id = 0; id < ntd.NumNodes(); ++id) {
    const NormNode& node = ntd.node(static_cast<TdNodeId>(id));
    size_t size = node.bag.size();
    size_t attrs = static_cast<size_t>(
        std::count_if(node.bag.begin(), node.bag.end(),
                      [&](ElementId e) { return IsAttr(e); }));
    bool leaf_rule = node.kind == NormNodeKind::kLeaf ||
                     (for_enumeration &&
                      static_cast<TdNodeId>(id) == ntd.root());
    std::string limit;
    if (size > static_cast<size_t>(kMaxPrimBagSize)) {
      limit = std::to_string(kMaxPrimBagSize) + " bag positions";
    } else if (attrs > static_cast<size_t>(kCoCapacity)) {
      limit = "the Co capacity of " + std::to_string(kCoCapacity) +
              " attributes";
    } else if (leaf_rule && attrs > static_cast<size_t>(kMaxLeafAttributes)) {
      limit = "the leaf-rule limit of " + std::to_string(kMaxLeafAttributes) +
              " attributes";
    } else {
      continue;
    }
    return Status::ResourceExhausted(
        "primality bag of " + std::to_string(size) + " elements (" +
        std::to_string(attrs) + " attributes) exceeds " + limit);
  }
  return Status::OK();
}

uint64_t BagLayout::RhsOf(uint64_t fd_mask) const {
  uint64_t out = 0;
  ForEachBit(fd_mask, [&](int f) { out |= uint64_t{1} << rhs[f]; });
  return out;
}

uint64_t BagLayout::Outside(uint64_t y) const {
  uint64_t out = 0;
  ForEachBit(fds, [&](int f) {
    if (!((y >> rhs[f]) & 1) && (lhs[f] & ~y) != 0) out |= uint64_t{1} << f;
  });
  return out;
}

namespace {

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

// Fig. 6 transitions on one state. `bag` is the layout of the node the
// output states belong to; positions are in that bag for introduce and in the
// input bag (which still holds the element) for forget.

void IntroduceAttr(const BagLayout& bag, int b, const PrimState& s,
                   PrimTable* out) {
  PrimState base = s;
  base.Open(b);
  // Rule 1: b joins Y.
  {
    PrimState next = base;
    next.y |= uint64_t{1} << b;
    Insert(out, next);
  }
  // Rule 2: b is inserted at every Co index up to the first rhs of a used FD
  // with b in its lhs (consistent(FC, Co ⊎ {b})), and the outside-witnesses
  // are refreshed (b ∉ Y may witness additional FDs).
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
    Insert(out, next);
  }
}

void IntroduceFd(const BagLayout& bag, int f, const PrimState& s,
                 PrimTable* out) {
  PrimState base = s;
  base.Open(f);
  int rhs = bag.rhs[f];
  uint64_t rhs_bit = uint64_t{1} << rhs;
  if (base.y & rhs_bit) {
    // Rule 1: rhs ∈ Y — nothing to track.
    Insert(out, base);
    return;
  }
  int rhs_index = base.CoIndex(rhs);
  TREEDL_DCHECK(rhs_index >= 0);
  // f is locally witnessed not to contradict closedness when some bag
  // lhs-attribute lies outside Y.
  if ((bag.lhs[f] & ~base.y) != 0) base.fy |= uint64_t{1} << f;
  // Rule 3: f is not used in the derivation.
  Insert(out, base);
  // Rule 2: f derives rhs — requires a fresh ΔC slot and order consistency.
  if (!(base.dc & rhs_bit) && ConsistentAt(bag, f, base, rhs_index)) {
    base.fc |= uint64_t{1} << f;
    base.dc |= rhs_bit;
    Insert(out, base);
  }
}

void ForgetAttr(int b, const PrimState& s, PrimTable* out) {
  uint64_t bit = uint64_t{1} << b;
  // b ∈ Co must have had its derivation established (b ∈ ΔC).
  if (!(s.y & bit) && !(s.dc & bit)) return;
  PrimState next = s;
  next.Drop(b);
  Insert(out, next);
}

void ForgetFd(int f, int rhs, const PrimState& s, PrimTable* out) {
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
  Insert(out, next);
}

void Join(const BagLayout& bag, const PrimState& a, const PrimState& b,
          PrimTable* out) {
  TREEDL_DCHECK(PrimJoinKey(a) == PrimJoinKey(b));
  // unique(ΔC1, ΔC2, FC): an attribute derived in both subtrees must owe its
  // derivation to a shared (bag) FD.
  if ((a.dc & b.dc) != bag.RhsOf(a.fc)) return;
  PrimState next = a;
  next.fy |= b.fy;
  next.dc |= b.dc;
  Insert(out, next);
}

}  // namespace

void LeafStates(const PrimalityContext& context,
                const std::vector<ElementId>& bag, PrimTable* out) {
  BagLayout layout = context.Layout(bag);
  int na = std::popcount(layout.attrs);
  TREEDL_CHECK(na <= kMaxLeafAttributes) << "bag too large for leaf enumeration";
  uint8_t attrs[kMaxLeafAttributes];
  int k = 0;
  ForEachBit(layout.attrs, [&](int p) { attrs[k++] = static_cast<uint8_t>(p); });
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
        Insert(out, next);
      }
    } while (std::next_permutation(s.co, s.co + s.co_size));
  }
}

bool Accepts(const BagLayout& bag, const PrimState& s, int query) {
  if (query < 0 || s.CoIndex(query) < 0) return false;  // in Y or not in bag
  // FY must contain *every* bag FD with rhs outside Y.
  uint64_t required = 0;
  ForEachBit(bag.fds, [&](int f) {
    if (!((s.y >> bag.rhs[f]) & 1)) required |= uint64_t{1} << f;
  });
  if (s.fy != required) return false;
  // ΔC = Co \ {query}.
  return s.dc == (s.CoMask() & ~(uint64_t{1} << query));
}

void IntroduceStates(const PrimalityContext& context,
                     const std::vector<ElementId>& bag, ElementId e,
                     const PrimTable& in, PrimTable* out) {
  BagLayout layout = context.Layout(bag);
  int p = static_cast<int>(PositionInBag(bag, e));
  bool attr = context.IsAttr(e);
  for (const auto& [s, value] : in) {
    (void)value;
    if (attr) {
      IntroduceAttr(layout, p, s, out);
    } else {
      IntroduceFd(layout, p, s, out);
    }
  }
}

void ForgetStates(const PrimalityContext& context,
                  const std::vector<ElementId>& bag, ElementId e,
                  const PrimTable& in, PrimTable* out) {
  int p = static_cast<int>(PositionInBag(bag, e));
  bool attr = context.IsAttr(e);
  int rhs =
      attr ? 0 : static_cast<int>(PositionInBag(bag, context.RhsElem(e)));
  for (const auto& [s, value] : in) {
    (void)value;
    if (attr) {
      ForgetAttr(p, s, out);
    } else {
      ForgetFd(p, rhs, s, out);
    }
  }
}

void JoinStates(const PrimalityContext& context,
                const std::vector<ElementId>& bag, const PrimTable& left,
                const PrimTable& right, PrimTable* out) {
  if (left.empty() || right.empty()) return;
  BagLayout layout = context.Layout(bag);
  ForEachJoinPair(
      left, right, [](const PrimState& s) { return PrimJoinKey(s); },
      [&](const PrimState& a, std::monostate, const PrimState& b,
          std::monostate) { Join(layout, a, b, out); });
}

void CopyStates(const PrimTable& in, PrimTable* out) {
  for (const auto& [s, value] : in) {
    (void)value;
    Insert(out, s);
  }
}

namespace {

/// One node of the bottom-up solve() pass.
void BottomUpStep(const PrimalityContext& context,
                  const NormalizedTreeDecomposition& ntd, TdNodeId id,
                  std::vector<PrimTable>* up) {
  const NormNode& node = ntd.node(id);
  PrimTable* out = &(*up)[static_cast<size_t>(id)];
  auto child = [&](size_t i) -> const PrimTable& {
    return (*up)[static_cast<size_t>(node.children[i])];
  };
  switch (node.kind) {
    case NormNodeKind::kLeaf:
      LeafStates(context, node.bag, out);
      break;
    case NormNodeKind::kIntroduce:
      IntroduceStates(context, node.bag, node.element, child(0), out);
      break;
    case NormNodeKind::kForget:
      ForgetStates(context, node.bag, node.element, child(0), out);
      break;
    case NormNodeKind::kCopy:
      CopyStates(child(0), out);
      break;
    case NormNodeKind::kBranch:
      JoinStates(context, node.bag, child(0), child(1), out);
      break;
  }
}

}  // namespace

std::vector<PrimTable> SolveBottomUp(const PrimalityContext& context,
                                     const NormalizedTreeDecomposition& ntd,
                                     const DpExec& exec,
                                     bool keep_branch_children,
                                     TableMemoryTracker* memory,
                                     DpStats* stats) {
  std::vector<PrimTable> up(ntd.NumNodes());
  WorkBudget* budget = exec.budget;
  // A tripped budget skips the per-node work but keeps walking the chunk, so
  // the shard scheduling epilogue (and the caller's abort check) still run.
  WalkChunks(
      ntd, exec,
      [&](const std::vector<TdNodeId>& nodes, DpStats* local) {
        for (TdNodeId id : nodes) {
          if (budget != nullptr && !budget->ConsumeUnit()) continue;
          BottomUpStep(context, ntd, id, &up);
          RecordTable(up[static_cast<size_t>(id)], memory, budget, local);
          const NormNode& node = ntd.node(id);
          if (keep_branch_children && node.kind == NormNodeKind::kBranch) {
            continue;
          }
          for (TdNodeId child : node.children) {
            ReleaseTable(&up[static_cast<size_t>(child)], memory);
          }
        }
      },
      stats);
  return up;
}

TreeDecomposition CloseBagsForRhs(const TreeDecomposition& td,
                                  const SchemaEncoding& encoding,
                                  const PrimalityContext& context) {
  TreeDecomposition out;
  std::unordered_map<TdNodeId, TdNodeId> translate;
  for (TdNodeId id : td.PreOrder()) {
    std::vector<ElementId> bag = td.Bag(id);
    std::vector<ElementId> extra;
    for (ElementId e : bag) {
      if (encoding.IsFdElement(e)) extra.push_back(context.RhsElem(e));
    }
    bag.insert(bag.end(), extra.begin(), extra.end());
    TdNodeId parent = td.node(id).parent;
    TdNodeId new_parent = parent == kNoTdNode ? kNoTdNode : translate.at(parent);
    translate[id] = out.AddNode(std::move(bag), new_parent);
  }
  return out;
}

NormalizeOptions PrimalityNormalizeOptions(const SchemaEncoding& encoding,
                                           bool for_enumeration) {
  NormalizeOptions options;
  options.ensure_leaf_coverage = for_enumeration;
  options.copy_above_branches = for_enumeration;
  int num_attributes = encoding.num_attributes;
  options.forget_priority = [num_attributes](ElementId e) {
    // FDs (ids >= num_attributes) are forgotten first / introduced last.
    return e >= static_cast<ElementId>(num_attributes) ? 1 : 0;
  };
  return options;
}

}  // namespace treedl::core::internal
