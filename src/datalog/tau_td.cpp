#include "datalog/tau_td.hpp"

#include "common/logging.hpp"

namespace treedl::datalog {

StatusOr<TauTdEncoding> BuildTauTd(const Structure& a,
                                   const TupleNormalizedTd& td) {
  Signature sig = a.signature();
  for (const char* name : {"root", "leaf", "child1", "child2", "bag"}) {
    if (sig.HasPredicate(name)) {
      return Status::InvalidArgument(
          std::string("base signature already declares τ_td predicate ") +
          name);
    }
  }
  TREEDL_ASSIGN_OR_RETURN(PredicateId root_p, sig.AddPredicate("root", 1));
  TREEDL_ASSIGN_OR_RETURN(PredicateId leaf_p, sig.AddPredicate("leaf", 1));
  TREEDL_ASSIGN_OR_RETURN(PredicateId child1_p, sig.AddPredicate("child1", 2));
  TREEDL_ASSIGN_OR_RETURN(PredicateId child2_p, sig.AddPredicate("child2", 2));
  TREEDL_ASSIGN_OR_RETURN(PredicateId bag_p,
                          sig.AddPredicate("bag", td.width() + 2));

  Structure out(sig);
  // Copy the domain (ids preserved) and the τ-facts.
  for (ElementId e = 0; e < a.NumElements(); ++e) {
    ElementId copied = out.AddElement(a.ElementName(e));
    TREEDL_CHECK(copied == e);
  }
  for (PredicateId p = 0; p < a.signature().size(); ++p) {
    for (const Tuple& fact : a.Relation(p)) {
      Status st = out.AddFact(p, fact);
      TREEDL_CHECK(st.ok()) << st.ToString();
    }
  }

  // One fresh element per tree node.
  std::vector<ElementId> node_element(td.NumNodes());
  for (size_t i = 0; i < td.NumNodes(); ++i) {
    std::string name = "s" + std::to_string(i + 1);
    if (out.HasElementNamed(name)) name = "node_" + std::to_string(i + 1);
    node_element[i] = out.AddElement(name);
  }

  auto add = [&out](PredicateId p, Tuple t) {
    Status st = out.AddFact(p, std::move(t));
    TREEDL_CHECK(st.ok()) << st.ToString();
  };

  add(root_p, {node_element[static_cast<size_t>(td.root())]});
  for (TdNodeId id : td.PreOrder()) {
    const TupleNode& n = td.node(id);
    ElementId self = node_element[static_cast<size_t>(id)];
    if (n.children.empty()) add(leaf_p, {self});
    if (n.children.size() >= 1) {
      add(child1_p, {node_element[static_cast<size_t>(n.children[0])], self});
    }
    if (n.children.size() == 2) {
      add(child2_p, {node_element[static_cast<size_t>(n.children[1])], self});
    }
    Tuple bag{self};
    for (ElementId e : n.bag) bag.push_back(e);
    add(bag_p, std::move(bag));
  }
  return TauTdEncoding{std::move(out), std::move(node_element)};
}

}  // namespace treedl::datalog
