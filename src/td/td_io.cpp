#include "td/td_io.hpp"

#include <sstream>

namespace treedl {

ElementNamer DefaultNamer() {
  return [](ElementId e) { return "e" + std::to_string(e); };
}

ElementNamer NamerFor(const Structure& structure) {
  // Capture names by value so the namer outlives the structure.
  std::vector<std::string> names;
  names.reserve(structure.NumElements());
  for (ElementId e = 0; e < structure.NumElements(); ++e) {
    names.push_back(structure.ElementName(e));
  }
  return [names = std::move(names)](ElementId e) {
    return e < names.size() ? names[e] : ("e" + std::to_string(e));
  };
}

namespace {

std::string BagToString(const std::vector<ElementId>& bag,
                        const ElementNamer& namer) {
  std::string out = "{";
  for (size_t i = 0; i < bag.size(); ++i) {
    if (i > 0) out += ", ";
    out += namer(bag[i]);
  }
  out += "}";
  return out;
}

std::string TupleToString(const std::vector<ElementId>& bag,
                          const ElementNamer& namer) {
  std::string out = "(";
  for (size_t i = 0; i < bag.size(); ++i) {
    if (i > 0) out += ", ";
    out += namer(bag[i]);
  }
  out += ")";
  return out;
}

// Generic indented tree renderer over (root, children(id), label(id)).
template <typename Children, typename Label>
std::string RenderGeneric(TdNodeId root, Children children, Label label) {
  std::ostringstream out;
  // Stack of (node, depth); children pushed in reverse for natural order.
  std::vector<std::pair<TdNodeId, int>> stack{{root, 0}};
  while (!stack.empty()) {
    auto [id, depth] = stack.back();
    stack.pop_back();
    for (int i = 0; i < depth; ++i) out << "  ";
    out << label(id) << "\n";
    const auto& kids = children(id);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.emplace_back(*it, depth + 1);
    }
  }
  return out.str();
}

}  // namespace

std::string RenderTree(const TreeDecomposition& td, const ElementNamer& namer) {
  if (td.Empty()) return "(empty)\n";
  return RenderGeneric(
      td.root(),
      [&](TdNodeId id) -> const std::vector<TdNodeId>& {
        return td.node(id).children;
      },
      [&](TdNodeId id) {
        return "n" + std::to_string(id) + " " + BagToString(td.Bag(id), namer);
      });
}

std::string RenderTree(const NormalizedTreeDecomposition& ntd,
                       const ElementNamer& namer) {
  if (ntd.NumNodes() == 0) return "(empty)\n";
  return RenderGeneric(
      ntd.root(),
      [&](TdNodeId id) -> const std::vector<TdNodeId>& {
        return ntd.node(id).children;
      },
      [&](TdNodeId id) {
        const NormNode& n = ntd.node(id);
        std::string label = "n" + std::to_string(id) + " [" +
                            NormNodeKindName(n.kind);
        if (n.kind == NormNodeKind::kIntroduce ||
            n.kind == NormNodeKind::kForget) {
          label += " " + namer(n.element);
        }
        label += "] " + BagToString(n.bag, namer);
        return label;
      });
}

std::string RenderTree(const TupleNormalizedTd& ntd, const ElementNamer& namer) {
  if (ntd.NumNodes() == 0) return "(empty)\n";
  return RenderGeneric(
      ntd.root(),
      [&](TdNodeId id) -> const std::vector<TdNodeId>& {
        return ntd.node(id).children;
      },
      [&](TdNodeId id) {
        const TupleNode& n = ntd.node(id);
        return "n" + std::to_string(id) + " [" +
               std::string(TupleNodeKindName(n.kind)) + "] " +
               TupleToString(n.bag, namer);
      });
}

std::string ToDot(const TreeDecomposition& td, const ElementNamer& namer) {
  std::ostringstream out;
  out << "graph td {\n  node [shape=box];\n";
  for (size_t i = 0; i < td.NumNodes(); ++i) {
    TdNodeId id = static_cast<TdNodeId>(i);
    out << "  n" << id << " [label=\"" << BagToString(td.Bag(id), namer)
        << "\"];\n";
  }
  for (size_t i = 0; i < td.NumNodes(); ++i) {
    TdNodeId id = static_cast<TdNodeId>(i);
    for (TdNodeId c : td.node(id).children) {
      out << "  n" << id << " -- n" << c << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

// --- Binary serialization ---------------------------------------------------

void SerializeTreeDecomposition(const TreeDecomposition& td,
                                BinaryWriter* writer) {
  std::vector<TdNodeId> order = td.PreOrder();
  std::vector<int32_t> new_id(td.NumNodes(), -1);
  for (size_t i = 0; i < order.size(); ++i) {
    new_id[static_cast<size_t>(order[i])] = static_cast<int32_t>(i);
  }
  writer->U64(order.size());
  for (TdNodeId id : order) {
    const TdNode& node = td.node(id);
    writer->I32(node.parent == kNoTdNode
                    ? -1
                    : new_id[static_cast<size_t>(node.parent)]);
    writer->Vec32(node.bag);
  }
}

StatusOr<TreeDecomposition> DeserializeTreeDecomposition(BinaryReader* reader) {
  size_t num_nodes = 0;
  TREEDL_RETURN_IF_ERROR(reader->Length(&num_nodes, 4 + 8));
  TreeDecomposition td;
  for (size_t i = 0; i < num_nodes; ++i) {
    int32_t parent = 0;
    std::vector<ElementId> bag;
    TREEDL_RETURN_IF_ERROR(reader->I32(&parent));
    TREEDL_RETURN_IF_ERROR(reader->Vec32(&bag));
    // Pre-order: the root comes first, every other parent earlier in the
    // stream. Anything else is corruption (and would trip AddNode's CHECKs).
    if (i == 0 ? parent != -1
               : (parent < 0 || static_cast<size_t>(parent) >= i)) {
      return Status::ParseError("tree decomposition: invalid parent id " +
                                std::to_string(parent) + " at node " +
                                std::to_string(i));
    }
    td.AddNode(std::move(bag), i == 0 ? kNoTdNode : parent);
  }
  return td;
}

}  // namespace treedl
