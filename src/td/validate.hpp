// Validation of the three tree-decomposition conditions of §2.2.
#ifndef TREEDL_TD_VALIDATE_HPP_
#define TREEDL_TD_VALIDATE_HPP_

#include "common/status.hpp"
#include "graph/graph.hpp"
#include "structure/structure.hpp"
#include "td/tree_decomposition.hpp"

namespace treedl {

/// Checks, for a τ-structure A:
///   (1) every element of dom(A) occurs in some bag,
///   (2) for every fact R(a1..ak) some bag contains {a1..ak},
///   (3) for every element, the nodes whose bags contain it induce a subtree.
/// Returns InvalidArgument with a description of the first violation.
/// Linear in the total bag size plus, per fact, the bags of its rarest
/// argument.
Status ValidateForStructure(const Structure& structure,
                            const TreeDecomposition& td);

/// Graph version: condition (2) ranges over edges.
Status ValidateForGraph(const Graph& graph, const TreeDecomposition& td);

}  // namespace treedl

#endif  // TREEDL_TD_VALIDATE_HPP_
