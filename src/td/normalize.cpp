#include "td/normalize.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.hpp"

namespace treedl {

const char* NormNodeKindName(NormNodeKind kind) {
  switch (kind) {
    case NormNodeKind::kLeaf:
      return "leaf";
    case NormNodeKind::kIntroduce:
      return "introduce";
    case NormNodeKind::kForget:
      return "forget";
    case NormNodeKind::kBranch:
      return "branch";
    case NormNodeKind::kCopy:
      return "copy";
  }
  return "?";
}

const char* TupleNodeKindName(TupleNodeKind kind) {
  switch (kind) {
    case TupleNodeKind::kLeaf:
      return "leaf";
    case TupleNodeKind::kPermutation:
      return "permutation";
    case TupleNodeKind::kElementReplacement:
      return "replacement";
    case TupleNodeKind::kBranch:
      return "branch";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// NormalizedTreeDecomposition
// ---------------------------------------------------------------------------

TdNodeId NormalizedTreeDecomposition::AddNode(NormNode node) {
  TdNodeId id = static_cast<TdNodeId>(nodes_.size());
  for (TdNodeId c : node.children) {
    nodes_[static_cast<size_t>(c)].parent = id;
  }
  nodes_.push_back(std::move(node));
  return id;
}

int NormalizedTreeDecomposition::Width() const {
  int width = -1;
  for (const NormNode& n : nodes_) {
    width = std::max(width, static_cast<int>(n.bag.size()) - 1);
  }
  return width;
}

std::vector<TdNodeId> NormalizedTreeDecomposition::PreOrder() const {
  std::vector<TdNodeId> order;
  if (root_ == kNoTdNode) return order;
  order.reserve(nodes_.size());
  std::vector<TdNodeId> stack{root_};
  while (!stack.empty()) {
    TdNodeId id = stack.back();
    stack.pop_back();
    order.push_back(id);
    for (TdNodeId c : node(id).children) stack.push_back(c);
  }
  TREEDL_CHECK(order.size() == nodes_.size()) << "normalized TD not connected";
  return order;
}

std::vector<TdNodeId> NormalizedTreeDecomposition::PostOrder() const {
  std::vector<TdNodeId> order = PreOrder();
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<size_t> NormalizedTreeDecomposition::KindCounts() const {
  std::vector<size_t> counts(5, 0);
  for (const NormNode& n : nodes_) {
    counts[static_cast<size_t>(n.kind)] += 1;
  }
  return counts;
}

TreeDecomposition NormalizedTreeDecomposition::ToRaw() const {
  TreeDecomposition raw;
  std::unordered_map<TdNodeId, TdNodeId> translate;
  for (TdNodeId id : PreOrder()) {
    TdNodeId parent = node(id).parent;
    TdNodeId raw_parent =
        parent == kNoTdNode ? kNoTdNode : translate.at(parent);
    translate[id] = raw.AddNode(node(id).bag, raw_parent);
  }
  return raw;
}

namespace {

std::vector<ElementId> SetMinus(const std::vector<ElementId>& a,
                                const std::vector<ElementId>& b) {
  std::vector<ElementId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

std::vector<ElementId> SetRemove(const std::vector<ElementId>& a, ElementId e) {
  std::vector<ElementId> out;
  out.reserve(a.size());
  for (ElementId x : a) {
    if (x != e) out.push_back(x);
  }
  return out;
}

std::vector<ElementId> SetInsert(const std::vector<ElementId>& a, ElementId e) {
  std::vector<ElementId> out = a;
  out.insert(std::lower_bound(out.begin(), out.end(), e), e);
  return out;
}

// Ensures every element occurs in at least one *leaf* bag by attaching, to
// each node that is the sole carrier of some element, a fresh child with the
// same bag.
TreeDecomposition EnsureLeafCoverage(const TreeDecomposition& td) {
  std::unordered_set<ElementId> in_leaf;
  for (size_t i = 0; i < td.NumNodes(); ++i) {
    TdNodeId id = static_cast<TdNodeId>(i);
    if (td.node(id).children.empty()) {
      for (ElementId e : td.Bag(id)) in_leaf.insert(e);
    }
  }
  // Pick one carrier node per uncovered element; group by node.
  std::unordered_set<TdNodeId> need_child;
  std::unordered_set<ElementId> handled = in_leaf;
  for (size_t i = 0; i < td.NumNodes(); ++i) {
    TdNodeId id = static_cast<TdNodeId>(i);
    for (ElementId e : td.Bag(id)) {
      if (!handled.count(e)) {
        need_child.insert(id);
        // The whole bag of `id` will appear in the new leaf.
        for (ElementId x : td.Bag(id)) handled.insert(x);
      }
    }
  }
  TreeDecomposition out;
  std::unordered_map<TdNodeId, TdNodeId> translate;
  for (TdNodeId id : td.PreOrder()) {
    TdNodeId parent = td.node(id).parent;
    TdNodeId new_parent = parent == kNoTdNode ? kNoTdNode : translate.at(parent);
    translate[id] = out.AddNode(td.Bag(id), new_parent);
    if (need_child.count(id)) {
      out.AddNode(td.Bag(id), translate[id]);
    }
  }
  return out;
}

}  // namespace

StatusOr<NormalizedTreeDecomposition> Normalize(const TreeDecomposition& td,
                                                const NormalizeOptions& options) {
  if (td.Empty()) {
    return Status::InvalidArgument("cannot normalize empty tree decomposition");
  }
  // Only leaf coverage rewrites the input; otherwise normalize it in place.
  std::optional<TreeDecomposition> covered;
  if (options.ensure_leaf_coverage) covered = EnsureLeafCoverage(td);
  const TreeDecomposition& source = covered.has_value() ? *covered : td;

  NormalizedTreeDecomposition out;
  // tops[raw node] = normalized node whose bag equals the raw bag and which
  // roots the normalized subtree representing the raw subtree.
  std::vector<TdNodeId> tops(source.NumNodes(), kNoTdNode);

  // Orders a forget list: higher priority first (introduce lists use the
  // reverse, so higher-priority elements are introduced last).
  auto by_priority = [&options](std::vector<ElementId> elems, bool forget) {
    if (options.forget_priority) {
      std::stable_sort(elems.begin(), elems.end(),
                       [&](ElementId a, ElementId b) {
                         int pa = options.forget_priority(a);
                         int pb = options.forget_priority(b);
                         return forget ? pa > pb : pa < pb;
                       });
    }
    return elems;
  };

  // Lifts the normalized subtree topped by `top` (bag `from`) to bag `to` by
  // a chain of single-element forgets then introduces; returns the new top.
  auto lift = [&out, &by_priority](TdNodeId top, std::vector<ElementId> from,
                                   const std::vector<ElementId>& to) -> TdNodeId {
    for (ElementId e : by_priority(SetMinus(from, to), /*forget=*/true)) {
      from = SetRemove(from, e);
      top = out.AddNode(
          NormNode{NormNodeKind::kForget, e, from, kNoTdNode, {top}});
    }
    for (ElementId e : by_priority(SetMinus(to, from), /*forget=*/false)) {
      from = SetInsert(from, e);
      top = out.AddNode(
          NormNode{NormNodeKind::kIntroduce, e, from, kNoTdNode, {top}});
    }
    return top;
  };

  for (TdNodeId raw : source.PostOrder()) {
    const std::vector<ElementId>& bag = source.Bag(raw);
    const auto& children = source.node(raw).children;
    if (children.empty()) {
      tops[static_cast<size_t>(raw)] =
          out.AddNode(NormNode{NormNodeKind::kLeaf, 0, bag, kNoTdNode, {}});
      continue;
    }
    TdNodeId acc = kNoTdNode;
    for (TdNodeId child : children) {
      TdNodeId lifted =
          lift(tops[static_cast<size_t>(child)], source.Bag(child), bag);
      if (acc == kNoTdNode) {
        acc = lifted;
      } else {
        acc = out.AddNode(
            NormNode{NormNodeKind::kBranch, 0, bag, kNoTdNode, {acc, lifted}});
      }
    }
    tops[static_cast<size_t>(raw)] = acc;
  }
  out.SetRoot(tops[static_cast<size_t>(source.root())]);

  if (options.copy_above_branches) {
    // Collect first: we append nodes while iterating.
    std::vector<TdNodeId> branches;
    for (size_t i = 0; i < out.NumNodes(); ++i) {
      if (out.node(static_cast<TdNodeId>(i)).kind == NormNodeKind::kBranch) {
        branches.push_back(static_cast<TdNodeId>(i));
      }
    }
    for (TdNodeId b : branches) {
      TdNodeId parent = out.node(b).parent;
      if (parent != kNoTdNode &&
          out.node(parent).bag == out.node(b).bag &&
          out.node(parent).children.size() == 1) {
        continue;  // already has an equal-bag unary parent
      }
      TdNodeId copy = out.AddNode(NormNode{
          NormNodeKind::kCopy, 0, out.node(b).bag, kNoTdNode, {b}});
      // AddNode rewired b's parent pointer to `copy`; splice `copy` into the
      // old parent's child list (or make it the new root).
      if (parent == kNoTdNode) {
        out.SetRoot(copy);
      } else {
        out.MutableNode(copy)->parent = parent;
        for (TdNodeId& c : out.MutableNode(parent)->children) {
          if (c == b) c = copy;
        }
      }
    }
  }

  TREEDL_RETURN_IF_ERROR(ValidateNormalized(out));
  return out;
}

Status ValidateNormalized(const NormalizedTreeDecomposition& ntd) {
  if (ntd.NumNodes() == 0 || ntd.root() == kNoTdNode) {
    return Status::InvalidArgument("normalized TD is empty or rootless");
  }
  for (TdNodeId id : ntd.PreOrder()) {
    const NormNode& n = ntd.node(id);
    auto child_bag = [&](size_t i) -> const std::vector<ElementId>& {
      return ntd.Bag(n.children[i]);
    };
    switch (n.kind) {
      case NormNodeKind::kLeaf:
        if (!n.children.empty()) {
          return Status::InvalidArgument("leaf node with children");
        }
        break;
      case NormNodeKind::kIntroduce: {
        if (n.children.size() != 1) {
          return Status::InvalidArgument("introduce node without single child");
        }
        std::vector<ElementId> expect = SetInsert(child_bag(0), n.element);
        if (std::binary_search(child_bag(0).begin(), child_bag(0).end(),
                               n.element) ||
            expect != n.bag) {
          return Status::InvalidArgument(
              "introduce node bag is not child bag + element");
        }
        break;
      }
      case NormNodeKind::kForget: {
        if (n.children.size() != 1) {
          return Status::InvalidArgument("forget node without single child");
        }
        if (!std::binary_search(child_bag(0).begin(), child_bag(0).end(),
                                n.element) ||
            SetRemove(child_bag(0), n.element) != n.bag) {
          return Status::InvalidArgument(
              "forget node bag is not child bag - element");
        }
        break;
      }
      case NormNodeKind::kBranch:
        if (n.children.size() != 2 || child_bag(0) != n.bag ||
            child_bag(1) != n.bag) {
          return Status::InvalidArgument(
              "branch node must have two children with identical bags");
        }
        break;
      case NormNodeKind::kCopy:
        if (n.children.size() != 1 || child_bag(0) != n.bag) {
          return Status::InvalidArgument(
              "copy node must have one child with an identical bag");
        }
        break;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// TupleNormalizedTd
// ---------------------------------------------------------------------------

TdNodeId TupleNormalizedTd::AddNode(TupleNode node) {
  TdNodeId id = static_cast<TdNodeId>(nodes_.size());
  for (TdNodeId c : node.children) {
    nodes_[static_cast<size_t>(c)].parent = id;
  }
  nodes_.push_back(std::move(node));
  return id;
}

std::vector<TdNodeId> TupleNormalizedTd::PreOrder() const {
  std::vector<TdNodeId> order;
  if (root_ == kNoTdNode) return order;
  std::vector<TdNodeId> stack{root_};
  while (!stack.empty()) {
    TdNodeId id = stack.back();
    stack.pop_back();
    order.push_back(id);
    for (TdNodeId c : node(id).children) stack.push_back(c);
  }
  TREEDL_CHECK(order.size() == nodes_.size()) << "tuple TD not connected";
  return order;
}

std::vector<TdNodeId> TupleNormalizedTd::PostOrder() const {
  std::vector<TdNodeId> order = PreOrder();
  std::reverse(order.begin(), order.end());
  return order;
}

TreeDecomposition TupleNormalizedTd::ToRaw() const {
  TreeDecomposition raw;
  std::unordered_map<TdNodeId, TdNodeId> translate;
  for (TdNodeId id : PreOrder()) {
    TdNodeId parent = node(id).parent;
    TdNodeId raw_parent = parent == kNoTdNode ? kNoTdNode : translate.at(parent);
    translate[id] = raw.AddNode(node(id).bag, raw_parent);
  }
  return raw;
}

StatusOr<TupleNormalizedTd> NormalizeTuple(const TreeDecomposition& td) {
  if (td.Empty()) {
    return Status::InvalidArgument("cannot normalize empty tree decomposition");
  }
  int width = td.Width();
  if (width < 0) return Status::InvalidArgument("decomposition has no bags");
  size_t full = static_cast<size_t>(width) + 1;

  // Step 1 (Prop 2.4 (1)): re-root at a node with a full bag and pad all bags
  // to w+1 elements using elements of the (already padded) parent.
  TreeDecomposition padded = td;
  TdNodeId full_node = kNoTdNode;
  for (size_t i = 0; i < padded.NumNodes(); ++i) {
    if (padded.Bag(static_cast<TdNodeId>(i)).size() == full) {
      full_node = static_cast<TdNodeId>(i);
      break;
    }
  }
  TREEDL_CHECK(full_node != kNoTdNode);
  TREEDL_RETURN_IF_ERROR(padded.ReRoot(full_node));
  for (TdNodeId id : padded.PreOrder()) {
    TdNodeId parent = padded.node(id).parent;
    if (parent == kNoTdNode) continue;
    std::vector<ElementId> bag = padded.Bag(id);
    if (bag.size() >= full) continue;
    for (ElementId e : SetMinus(padded.Bag(parent), bag)) {
      if (bag.size() >= full) break;
      bag = SetInsert(bag, e);
    }
    TREEDL_CHECK(bag.size() == full)
        << "padding failed: parent lacks enough extra elements";
    padded.SetBag(id, bag);
  }

  // Step 2: build the tuple tree bottom-up. Each raw node is represented by a
  // top tuple node carrying *some* ordering of its bag.
  TupleNormalizedTd out(width);
  std::vector<TdNodeId> tops(padded.NumNodes(), kNoTdNode);
  std::vector<std::vector<ElementId>> top_tuple(padded.NumNodes());

  // Moves `e` to position 0 of `tuple` (returns new tuple, order of the rest
  // preserved).
  auto to_front = [](const std::vector<ElementId>& tuple, ElementId e) {
    std::vector<ElementId> out_tuple{e};
    for (ElementId x : tuple) {
      if (x != e) out_tuple.push_back(x);
    }
    return out_tuple;
  };

  for (TdNodeId raw : padded.PostOrder()) {
    const std::vector<ElementId>& bag = padded.Bag(raw);
    const auto& children = padded.node(raw).children;
    if (children.empty()) {
      TdNodeId leaf = out.AddNode(
          TupleNode{TupleNodeKind::kLeaf, bag, kNoTdNode, {}});
      tops[static_cast<size_t>(raw)] = leaf;
      top_tuple[static_cast<size_t>(raw)] = bag;  // sorted order
      continue;
    }
    // Lift every child to this node's bag via permutation+replacement chains.
    std::vector<TdNodeId> lifted;
    std::vector<std::vector<ElementId>> lifted_tuples;
    for (TdNodeId child : children) {
      TdNodeId cur = tops[static_cast<size_t>(child)];
      std::vector<ElementId> cur_tuple = top_tuple[static_cast<size_t>(child)];
      std::vector<ElementId> remove = SetMinus(padded.Bag(child), bag);
      std::vector<ElementId> add = SetMinus(bag, padded.Bag(child));
      TREEDL_CHECK(remove.size() == add.size())
          << "padded bags must have equal size";
      for (size_t j = 0; j < remove.size(); ++j) {
        if (cur_tuple.empty() || cur_tuple[0] != remove[j]) {
          cur_tuple = to_front(cur_tuple, remove[j]);
          cur = out.AddNode(TupleNode{TupleNodeKind::kPermutation, cur_tuple,
                                      kNoTdNode, {cur}});
        }
        cur_tuple[0] = add[j];
        cur = out.AddNode(TupleNode{TupleNodeKind::kElementReplacement,
                                    cur_tuple, kNoTdNode, {cur}});
      }
      lifted.push_back(cur);
      lifted_tuples.push_back(cur_tuple);
    }
    if (lifted.size() == 1) {
      tops[static_cast<size_t>(raw)] = lifted[0];
      top_tuple[static_cast<size_t>(raw)] = lifted_tuples[0];
      continue;
    }
    // Branch: children must carry the branch node's own tuple. Normalize all
    // lifted tops to the sorted order with one permutation node each.
    std::vector<ElementId> canonical = bag;  // sorted already
    TdNodeId acc = kNoTdNode;
    for (size_t i = 0; i < lifted.size(); ++i) {
      TdNodeId topi = lifted[i];
      if (lifted_tuples[i] != canonical) {
        topi = out.AddNode(TupleNode{TupleNodeKind::kPermutation, canonical,
                                     kNoTdNode, {topi}});
      }
      if (acc == kNoTdNode) {
        acc = topi;
      } else {
        // Both children of a branch must have the same tuple as the branch
        // itself; `acc` may be a permutation/replacement node with tuple
        // `canonical` already.
        if (out.node(acc).bag != canonical) {
          acc = out.AddNode(TupleNode{TupleNodeKind::kPermutation, canonical,
                                      kNoTdNode, {acc}});
        }
        acc = out.AddNode(TupleNode{TupleNodeKind::kBranch, canonical,
                                    kNoTdNode, {acc, topi}});
      }
    }
    tops[static_cast<size_t>(raw)] = acc;
    top_tuple[static_cast<size_t>(raw)] = canonical;
  }
  out.SetRoot(tops[static_cast<size_t>(padded.root())]);
  TREEDL_RETURN_IF_ERROR(ValidateTupleNormalized(out));
  return out;
}

Status ValidateTupleNormalized(const TupleNormalizedTd& ntd) {
  if (ntd.NumNodes() == 0 || ntd.root() == kNoTdNode) {
    return Status::InvalidArgument("tuple TD is empty or rootless");
  }
  size_t full = static_cast<size_t>(ntd.width()) + 1;
  for (TdNodeId id : ntd.PreOrder()) {
    const TupleNode& n = ntd.node(id);
    if (n.bag.size() != full) {
      return Status::InvalidArgument("tuple bag has wrong size");
    }
    std::vector<ElementId> sorted = n.bag;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return Status::InvalidArgument("tuple bag has repeated elements");
    }
    switch (n.kind) {
      case TupleNodeKind::kLeaf:
        if (!n.children.empty()) {
          return Status::InvalidArgument("tuple leaf with children");
        }
        break;
      case TupleNodeKind::kPermutation: {
        if (n.children.size() != 1) {
          return Status::InvalidArgument("permutation node needs one child");
        }
        std::vector<ElementId> child_sorted = ntd.node(n.children[0]).bag;
        std::sort(child_sorted.begin(), child_sorted.end());
        if (child_sorted != sorted) {
          return Status::InvalidArgument(
              "permutation node bag is not a permutation of child bag");
        }
        break;
      }
      case TupleNodeKind::kElementReplacement: {
        if (n.children.size() != 1) {
          return Status::InvalidArgument("replacement node needs one child");
        }
        const auto& child_bag = ntd.node(n.children[0]).bag;
        if (child_bag.size() != n.bag.size()) {
          return Status::InvalidArgument("replacement bag size mismatch");
        }
        for (size_t i = 1; i < n.bag.size(); ++i) {
          if (n.bag[i] != child_bag[i]) {
            return Status::InvalidArgument(
                "replacement node must only change position 0");
          }
        }
        if (n.bag[0] == child_bag[0]) {
          return Status::InvalidArgument(
              "replacement node must change position 0");
        }
        break;
      }
      case TupleNodeKind::kBranch:
        if (n.children.size() != 2 || ntd.node(n.children[0]).bag != n.bag ||
            ntd.node(n.children[1]).bag != n.bag) {
          return Status::InvalidArgument(
              "branch node children must carry identical tuples");
        }
        break;
    }
  }
  return Status::OK();
}

}  // namespace treedl
