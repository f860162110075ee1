#include "graph/gaifman.hpp"

#include "common/logging.hpp"

namespace treedl {

Graph GaifmanGraph(const Structure& structure) {
  Graph g(structure.NumElements());
  for (PredicateId p = 0; p < structure.signature().size(); ++p) {
    for (const Tuple& fact : structure.Relation(p)) {
      for (size_t i = 0; i < fact.size(); ++i) {
        for (size_t j = i + 1; j < fact.size(); ++j) {
          g.AddEdge(fact[i], fact[j]);
        }
      }
    }
  }
  return g;
}

Structure GraphToStructure(const Graph& graph) {
  Structure s(Signature::GraphSignature());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    s.AddElement("v" + std::to_string(v));
  }
  PredicateId e = s.signature().PredicateIdOf("e").value();
  for (auto [u, v] : graph.Edges()) {
    Status st = s.AddFact(e, {u, v});
    TREEDL_CHECK(st.ok()) << st.ToString();
    st = s.AddFact(e, {v, u});
    TREEDL_CHECK(st.ok()) << st.ToString();
  }
  return s;
}

StatusOr<Graph> StructureToGraph(const Structure& structure) {
  TREEDL_ASSIGN_OR_RETURN(PredicateId e,
                          structure.signature().PredicateIdOf("e"));
  if (structure.signature().arity(e) != 2) {
    return Status::InvalidArgument("predicate e must be binary");
  }
  Graph g(structure.NumElements());
  for (const Tuple& t : structure.Relation(e)) {
    g.AddEdge(t[0], t[1]);
  }
  return g;
}

}  // namespace treedl
