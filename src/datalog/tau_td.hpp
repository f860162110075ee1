// The τ_td structure A_td (§4): the input structure A extended by its
// normalized tree decomposition.
//
//   τ_td = τ ∪ {root/1, leaf/1, child1/2, child2/2, bag/(w+2)}
//
// The domain of A_td is dom(A) plus one fresh element per tree node.
// child1(s1, s) holds iff s1 is the first or only child of s; child2(s2, s)
// iff s2 is the second child; bag(t, a0, …, aw) lists node t's tuple.
// Monadic datalog programs over τ-structures of treewidth w (Def 4.1) are
// evaluated against this structure.
#ifndef TREEDL_DATALOG_TAU_TD_HPP_
#define TREEDL_DATALOG_TAU_TD_HPP_

#include <vector>

#include "common/status.hpp"
#include "structure/structure.hpp"
#include "td/normalize.hpp"

namespace treedl::datalog {

struct TauTdEncoding {
  Structure structure;
  /// Tuple-normalized node id -> element id of that node in `structure`.
  std::vector<ElementId> node_element;
};

/// Builds A_td from A and a tuple-normalized decomposition of A. Fails if the
/// base signature already uses one of the τ_td predicate names.
StatusOr<TauTdEncoding> BuildTauTd(const Structure& a,
                                   const TupleNormalizedTd& td);

}  // namespace treedl::datalog

#endif  // TREEDL_DATALOG_TAU_TD_HPP_
