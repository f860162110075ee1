#include "core/primality_internal.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <unordered_map>

namespace treedl::core::internal {

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

PrimStep PrimalityProblem::Context(NormNodeKind kind,
                                   const std::vector<ElementId>& bag,
                                   ElementId element) const {
  PrimStep step;
  if (kind != NormNodeKind::kForget && kind != NormNodeKind::kCopy) {
    step.layout = context_.Layout(bag);
  }
  if (kind == NormNodeKind::kIntroduce || kind == NormNodeKind::kForget) {
    step.pos = static_cast<int>(PositionInBag(bag, element));
    step.attr = context_.IsAttr(element);
  }
  if (kind == NormNodeKind::kForget && !step.attr) {
    step.rhs =
        static_cast<int>(PositionInBag(bag, context_.RhsElem(element)));
  }
  return step;
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
