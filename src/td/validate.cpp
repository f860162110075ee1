#include "td/validate.hpp"

#include <algorithm>
#include <string>

namespace treedl {

namespace {

// For each element of [0, universe), the nodes whose bag contains it, in
// ascending order.
using Occurrences = std::vector<std::vector<TdNodeId>>;

// Condition (3): for every element, its occurrence set induces a subtree.
// Equivalent check: for each element e, the number of occurrence nodes whose
// parent also contains e must be exactly (#occurrences - 1) — i.e. the
// occurrence nodes form one connected component in the tree.
Status CheckConnectedness(const TreeDecomposition& td,
                          const Occurrences& occurrences) {
  for (ElementId e = 0; e < occurrences.size(); ++e) {
    const auto& nodes = occurrences[e];
    size_t linked = std::count_if(nodes.begin(), nodes.end(), [&](TdNodeId id) {
      TdNodeId p = td.node(id).parent;
      return p != kNoTdNode && td.BagContains(p, e);
    });
    if (!nodes.empty() && linked != nodes.size() - 1) {
      return Status::InvalidArgument(
          "connectedness violated for element id " + std::to_string(e) + ": " +
          std::to_string(nodes.size()) + " occurrences, " +
          std::to_string(linked) + " parent links");
    }
  }
  return Status::OK();
}

Status CheckTreeShape(const TreeDecomposition& td) {
  if (td.Empty()) return Status::InvalidArgument("empty tree decomposition");
  if (td.root() == kNoTdNode) {
    return Status::InvalidArgument("tree decomposition has no root");
  }
  // PreOrder checks reachability of all nodes from the root.
  size_t seen = 0;
  std::vector<TdNodeId> stack{td.root()};
  std::vector<bool> visited(td.NumNodes(), false);
  while (!stack.empty()) {
    TdNodeId id = stack.back();
    stack.pop_back();
    if (visited[static_cast<size_t>(id)]) {
      return Status::InvalidArgument("cycle in tree decomposition");
    }
    visited[static_cast<size_t>(id)] = true;
    ++seen;
    for (TdNodeId c : td.node(id).children) {
      if (td.node(c).parent != id) {
        return Status::InvalidArgument("parent/child pointers inconsistent");
      }
      stack.push_back(c);
    }
  }
  if (seen != td.NumNodes()) {
    return Status::InvalidArgument("tree decomposition is not connected");
  }
  return Status::OK();
}

// Tree shape, bag elements inside the universe [0, universe), connectedness
// (3) and element coverage (1), in that order; returns the occurrence lists
// for the fact/edge coverage check (2).
template <typename UncoveredMessage>
StatusOr<Occurrences> CheckAllButCoverage(const TreeDecomposition& td,
                                          size_t universe, const char* outside,
                                          UncoveredMessage uncovered) {
  TREEDL_RETURN_IF_ERROR(CheckTreeShape(td));
  Occurrences occurrences(universe);
  for (size_t i = 0; i < td.NumNodes(); ++i) {
    TdNodeId id = static_cast<TdNodeId>(i);
    for (ElementId e : td.Bag(id)) {
      if (e >= universe) return Status::InvalidArgument(outside);
      occurrences[e].push_back(id);
    }
  }
  TREEDL_RETURN_IF_ERROR(CheckConnectedness(td, occurrences));
  for (ElementId e = 0; e < universe; ++e) {
    if (occurrences[e].empty()) return Status::InvalidArgument(uncovered(e));
  }
  return occurrences;
}

// The element of `elements` (nonempty) occurring in the fewest bags: any bag
// covering all of `elements` is among its occurrences.
ElementId Rarest(const Occurrences& occurrences,
                 const std::vector<ElementId>& elements) {
  ElementId rarest = elements.front();
  for (ElementId e : elements) {
    if (occurrences[e].size() < occurrences[rarest].size()) rarest = e;
  }
  return rarest;
}

}  // namespace

Status ValidateForStructure(const Structure& structure,
                            const TreeDecomposition& td) {
  TREEDL_ASSIGN_OR_RETURN(
      Occurrences occurrences,
      CheckAllButCoverage(td, structure.NumElements(),
                          "bag element not in structure domain",
                          [&](ElementId e) {
                            return "element not covered by any bag: " +
                                   structure.ElementName(e);
                          }));
  // (2) fact coverage: only the bags of the rarest argument can cover a fact;
  // a fact without arguments is covered by any bag.
  const Signature& signature = structure.signature();
  std::vector<ElementId> args;
  for (PredicateId p = 0; p < signature.size(); ++p) {
    for (const Tuple& fact : structure.Relation(p)) {
      args.assign(fact.begin(), fact.end());
      std::sort(args.begin(), args.end());
      args.erase(std::unique(args.begin(), args.end()), args.end());
      if (args.empty()) continue;
      const auto& candidates = occurrences[Rarest(occurrences, args)];
      bool covered = std::any_of(
          candidates.begin(), candidates.end(), [&](TdNodeId id) {
            const auto& bag = td.Bag(id);
            return std::includes(bag.begin(), bag.end(), args.begin(),
                                 args.end());
          });
      if (!covered) {
        return Status::InvalidArgument(
            "fact not covered by any bag: predicate " + signature.name(p));
      }
    }
  }
  return Status::OK();
}

Status ValidateForGraph(const Graph& graph, const TreeDecomposition& td) {
  TREEDL_ASSIGN_OR_RETURN(
      Occurrences occurrences,
      CheckAllButCoverage(td, graph.NumVertices(),
                          "bag element not a graph vertex", [](ElementId v) {
                            return "vertex not covered by any bag: v" +
                                   std::to_string(v);
                          }));
  // (2) edge coverage, each edge once from its smaller end: only the bags of
  // the rarer end can cover it.
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    for (VertexId v : graph.Neighbors(u)) {
      if (v < u) continue;
      ElementId rare = occurrences[u].size() <= occurrences[v].size() ? u : v;
      ElementId other = rare == u ? v : u;
      const auto& candidates = occurrences[rare];
      if (std::none_of(candidates.begin(), candidates.end(), [&](TdNodeId id) {
            return td.BagContains(id, other);
          })) {
        return Status::InvalidArgument("edge not covered by any bag: {v" +
                                       std::to_string(u) + ", v" +
                                       std::to_string(v) + "}");
      }
    }
  }
  return Status::OK();
}

}  // namespace treedl
