#include "datalog/grounder.hpp"

#include <map>
#include <set>

#include "common/logging.hpp"
#include "datalog/analysis.hpp"
#include "datalog/eval_internal.hpp"

namespace treedl::datalog {

namespace {

// Interns ground intensional atoms (pred, args) to dense propositional ids.
class AtomInterner {
 public:
  int Intern(PredicateId pred, const Tuple& args) {
    auto key = std::make_pair(pred, args);
    auto it = ids_.find(key);
    if (it != ids_.end()) return it->second;
    int id = static_cast<int>(atoms_.size());
    atoms_.push_back(key);
    ids_.emplace(std::move(key), id);
    return id;
  }
  int Lookup(PredicateId pred, const Tuple& args) const {
    auto it = ids_.find(std::make_pair(pred, args));
    return it == ids_.end() ? -1 : it->second;
  }
  size_t size() const { return atoms_.size(); }
  const std::pair<PredicateId, Tuple>& atom(int id) const {
    return atoms_[static_cast<size_t>(id)];
  }

 private:
  std::vector<std::pair<PredicateId, Tuple>> atoms_;
  std::map<std::pair<PredicateId, Tuple>, int> ids_;
};

}  // namespace

StatusOr<Structure> GroundedEvaluate(const Program& program,
                                     const Structure& edb,
                                     RunStats* stats, WorkBudget* budget) {
  if (stats != nullptr) *stats = RunStats{};
  TREEDL_ASSIGN_OR_RETURN(std::vector<size_t> guards,
                          FindQuasiGuards(program));
  TREEDL_ASSIGN_OR_RETURN(ProgramInfo info, AnalyzeProgram(program));

  // Reuse Prepare for signature union, EDB copy and constant resolution —
  // but we re-resolve rule bodies in *grounding* order, not plan order.
  TREEDL_ASSIGN_OR_RETURN(internal::PreparedProgram prep,
                          internal::Prepare(program, edb));

  AtomInterner interner;
  std::vector<HornClause> clauses;
  size_t guard_instantiations = 0;

  // Ground program facts were already inserted into prep.store/prep.result by
  // Prepare; they must also seed the Horn program if their predicate is
  // intensional.
  for (size_t r = 0; r < program.rules().size(); ++r) {
    const Rule& rule = program.rules()[r];
    if (!rule.body.empty()) continue;
    Atom head = rule.head;
    head.predicate = prep.predicate_map[static_cast<size_t>(head.predicate)];
    ResolvedAtom resolved = ResolveAtom(head, &prep.result);
    clauses.push_back(HornClause{
        interner.Intern(resolved.predicate, resolved.const_args), {}});
  }

  for (size_t r = 0; r < program.rules().size(); ++r) {
    const Rule& rule = program.rules()[r];
    if (rule.body.empty()) continue;
    if (budget != nullptr && !budget->ConsumeUnit()) {
      return budget->AbortStatus();
    }

    // Partition and order the body for grounding.
    std::vector<ResolvedAtom> positives;  // extensional, enumeration order
    std::vector<ResolvedAtom> negatives;  // extensional filters
    std::vector<ResolvedAtom> idb_atoms;  // intensional (clause body)
    {
      std::vector<size_t> positive_indices;
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const Literal& lit = rule.body[i];
        bool intensional =
            info.intensional[static_cast<size_t>(lit.atom.predicate)];
        Atom translated = lit.atom;
        translated.predicate =
            prep.predicate_map[static_cast<size_t>(lit.atom.predicate)];
        if (intensional) {
          if (!lit.positive) {
            return Status::InvalidArgument("negated intensional literal");
          }
          idb_atoms.push_back(ResolveAtom(translated, &prep.result));
        } else if (lit.positive) {
          positive_indices.push_back(i);
          positives.push_back(ResolveAtom(translated, &prep.result));
        } else {
          negatives.push_back(ResolveAtom(translated, &prep.result));
        }
      }
      // Move the guard to the front, then order the rest greedily by how many
      // of their variables are already determined (one-pass approximation —
      // exactness is not needed for correctness, only for instance counts).
      size_t guard_body_index = guards[r];
      for (size_t i = 0; i < positive_indices.size(); ++i) {
        if (positive_indices[i] == guard_body_index) {
          std::swap(positives[0], positives[i]);
          break;
        }
      }
      std::set<VariableId> bound;
      for (VariableId v : positives[0].vars) {
        if (v >= 0) bound.insert(v);
      }
      for (size_t i = 1; i < positives.size(); ++i) {
        size_t best = i;
        size_t best_score = 0;
        for (size_t j = i; j < positives.size(); ++j) {
          size_t score = 0;
          for (VariableId v : positives[j].vars) {
            if (v < 0 || bound.count(v)) ++score;
          }
          if (j == i || score > best_score) {
            best = j;
            best_score = score;
          }
        }
        std::swap(positives[i], positives[best]);
        for (VariableId v : positives[i].vars) {
          if (v >= 0) bound.insert(v);
        }
      }
    }

    ResolvedAtom head = [&] {
      Atom translated = rule.head;
      translated.predicate =
          prep.predicate_map[static_cast<size_t>(rule.head.predicate)];
      return ResolveAtom(translated, &prep.result);
    }();

    // Enumerate all ground instances.
    Binding binding(prep.num_variables, kUnbound);
    std::function<void(size_t)> enumerate = [&](size_t pos) {
      if (pos < positives.size()) {
        MatchAtom(&prep.store, positives[pos], &binding, [&]() {
          if (pos == 0) ++guard_instantiations;
          enumerate(pos + 1);
          return true;
        });
        return;
      }
      // All positive extensional literals matched: every rule variable must
      // now be bound (guaranteed by quasi-guardedness for τ_td programs).
      for (const ResolvedAtom& neg : negatives) {
        if (!FullyBound(neg, binding)) {
          return;  // cannot decide the negative literal: drop this instance
        }
        if (prep.store.Contains(neg.predicate, GroundArgs(neg, binding))) {
          return;  // negative literal violated
        }
      }
      HornClause clause;
      for (const ResolvedAtom& idb : idb_atoms) {
        TREEDL_CHECK(FullyBound(idb, binding))
            << "intensional atom not bound after grounding";
        clause.body.push_back(
            interner.Intern(idb.predicate, GroundArgs(idb, binding)));
      }
      TREEDL_CHECK(FullyBound(head, binding)) << "head not bound";
      clause.head = interner.Intern(head.predicate, GroundArgs(head, binding));
      clauses.push_back(std::move(clause));
    };
    enumerate(0);
  }

  std::vector<bool> truth =
      LturSolve(static_cast<int>(interner.size()), clauses);
  for (size_t id = 0; id < truth.size(); ++id) {
    if (!truth[id]) continue;
    const auto& [pred, args] = interner.atom(static_cast<int>(id));
    Status st = prep.result.AddFact(pred, args);
    TREEDL_CHECK(st.ok()) << st.ToString();
  }
  if (stats != nullptr) {
    stats->ground_clauses += clauses.size();
    stats->ground_atoms += interner.size();
    stats->guard_instantiations += guard_instantiations;
  }
  return std::move(prep.result);
}

}  // namespace treedl::datalog
