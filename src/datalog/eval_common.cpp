#include "datalog/eval_internal.hpp"

#include "common/logging.hpp"

namespace treedl::datalog::internal {

StatusOr<PreparedProgram> Prepare(const Program& program,
                                  const Structure& edb) {
  TREEDL_ASSIGN_OR_RETURN(ProgramInfo info, AnalyzeProgram(program));

  // Union signature: EDB predicates keep their ids; new program predicates
  // are appended.
  Signature combined = edb.signature();
  std::vector<PredicateId> predicate_map(
      static_cast<size_t>(program.signature().size()));
  for (PredicateId p = 0; p < program.signature().size(); ++p) {
    const PredicateInfo& pi = program.signature().predicate(p);
    if (combined.HasPredicate(pi.name)) {
      PredicateId existing = combined.PredicateIdOf(pi.name).value();
      if (combined.arity(existing) != pi.arity) {
        return Status::InvalidArgument(
            "predicate " + pi.name + " has arity " +
            std::to_string(combined.arity(existing)) + " in the EDB but " +
            std::to_string(pi.arity) + " in the program");
      }
      predicate_map[static_cast<size_t>(p)] = existing;
    } else {
      TREEDL_ASSIGN_OR_RETURN(predicate_map[static_cast<size_t>(p)],
                              combined.AddPredicate(pi.name, pi.arity));
    }
  }

  // The fact store's probe masks bound every relation's arity, EDB and
  // program alike: reject a wider one here, before a store is built.
  for (PredicateId p = 0; p < combined.size(); ++p) {
    if (combined.arity(p) > FactStore::kMaxArity) {
      return Status::InvalidArgument(
          "predicate " + combined.predicate(p).name + " has arity " +
          std::to_string(combined.arity(p)) + "; at most " +
          std::to_string(FactStore::kMaxArity) + " is supported");
    }
  }

  PreparedProgram prep;
  prep.result = Structure(combined);
  prep.predicate_map = predicate_map;
  prep.num_variables = program.NumVariables();

  // Copy the EDB domain and facts.
  for (ElementId e = 0; e < edb.NumElements(); ++e) {
    ElementId copied = prep.result.AddElement(edb.ElementName(e));
    TREEDL_CHECK(copied == e);
  }
  prep.store = FactStore(combined);
  for (const Fact& fact : edb.AllFacts()) {
    // EDB predicate ids coincide with combined ids by construction.
    prep.store.Add(fact.predicate, fact.args);
    Status st = prep.result.AddFact(fact.predicate, fact.args);
    TREEDL_CHECK(st.ok()) << st.ToString();
  }

  // Resolve rules (translating predicate ids and interning constants); ground
  // program facts seed the store directly.
  for (size_t r = 0; r < program.rules().size(); ++r) {
    const Rule& rule = program.rules()[r];
    Atom head_translated = rule.head;
    head_translated.predicate =
        predicate_map[static_cast<size_t>(rule.head.predicate)];
    ResolvedAtom head = ResolveAtom(head_translated, &prep.result);
    if (rule.body.empty()) {
      Tuple ground = head.const_args;  // fully constant by analysis
      prep.store.Add(head.predicate, ground);
      Status st = prep.result.AddFact(head.predicate, ground);
      TREEDL_CHECK(st.ok()) << st.ToString();
      continue;
    }
    PreparedRule prepared;
    prepared.head = std::move(head);
    prepared.body.resize(rule.body.size());
    prepared.positive.resize(rule.body.size());
    prepared.order = info.plans[r];
    // Resolve in plan order: that is the order new constants are interned.
    for (size_t i : prepared.order) {
      const Literal& lit = rule.body[i];
      Atom translated = lit.atom;
      translated.predicate =
          predicate_map[static_cast<size_t>(lit.atom.predicate)];
      prepared.body[i] = ResolveAtom(translated, &prep.result);
      prepared.positive[i] = lit.positive;
    }
    // Compile the rule's join plans once, here: the full plan plus one
    // delta-first variant per positive intensional body literal.
    prep.compiled.push_back(CompileRule(
        prepared.head, prepared.body, prepared.positive, prepared.order,
        info.delta_plans[r], prep.num_variables));
    prep.plan_compiles += 1 + prep.compiled.back().delta_variants.size();
    prep.rules.push_back(std::move(prepared));
  }
  return prep;
}

namespace {

size_t ApplyFrom(const PreparedRule& rule, FactStore* store, size_t position,
                 Binding* binding,
                 const std::function<void(const Tuple&)>& derive) {
  if (position == rule.order.size()) {
    derive(GroundArgs(rule.head, *binding));
    return 0;
  }
  const size_t literal = rule.order[position];
  const ResolvedAtom& atom = rule.body[literal];
  size_t work = 1;
  if (!rule.positive[literal]) {
    // Negative literals are fully bound at this point (plan ordering).
    TREEDL_DCHECK(FullyBound(atom, *binding));
    if (!store->Contains(atom.predicate, GroundArgs(atom, *binding))) {
      work += ApplyFrom(rule, store, position + 1, binding, derive);
    }
    return work;
  }
  MatchAtom(store, atom, binding, [&]() {
    work += ApplyFrom(rule, store, position + 1, binding, derive);
    return true;
  });
  return work;
}

}  // namespace

size_t ApplyRule(const PreparedRule& rule, FactStore* store,
                 size_t num_variables,
                 const std::function<void(const Tuple&)>& derive) {
  Binding binding(num_variables, kUnbound);
  return ApplyFrom(rule, store, 0, &binding, derive);
}

}  // namespace treedl::datalog::internal
