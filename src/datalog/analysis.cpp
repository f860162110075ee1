#include "datalog/analysis.hpp"

#include <algorithm>
#include <numeric>
#include <set>

#include "common/logging.hpp"

namespace treedl::datalog {

namespace {

std::set<VariableId> AtomVars(const Atom& atom) {
  std::set<VariableId> vars;
  for (const Term& t : atom.args) {
    if (t.IsVar()) vars.insert(t.variable);
  }
  return vars;
}

std::set<VariableId> RuleVars(const Rule& rule) {
  std::set<VariableId> vars = AtomVars(rule.head);
  for (const Literal& lit : rule.body) {
    for (VariableId v : AtomVars(lit.atom)) vars.insert(v);
  }
  return vars;
}

/// Greedy safe order of `rule`'s body into `plan`: fully bound negatives
/// first (cheap filters), then the positive literal with the most bound
/// arguments, ties to the earliest in `scan`. The full plan (`delta` < 0)
/// ranks positive intensional literals between the two tiers; a delta
/// variant's plan starts from its `delta` literal instead. Returns false
/// when some negative literal never becomes fully bound.
bool GreedyOrder(const Rule& rule, const std::vector<bool>& intensional,
                 int delta, const std::vector<size_t>& scan,
                 std::vector<size_t>* plan) {
  std::vector<bool> used(rule.body.size(), false);
  std::set<VariableId> bound;
  auto take = [&](size_t i) {
    used[i] = true;
    plan->push_back(i);
    for (VariableId v : AtomVars(rule.body[i].atom)) bound.insert(v);
  };
  if (delta >= 0) take(static_cast<size_t>(delta));
  while (plan->size() < rule.body.size()) {
    int best = -1;
    size_t best_score = 0;
    for (size_t i : scan) {
      if (used[i]) continue;
      const Literal& lit = rule.body[i];
      size_t bound_args = 0;
      bool all_bound = true;
      for (const Term& t : lit.atom.args) {
        if (!t.IsVar() || bound.count(t.variable)) {
          ++bound_args;
        } else {
          all_bound = false;
        }
      }
      if (!lit.positive && !all_bound) continue;  // negatives wait
      // Arity is capped well below the tier gaps, so the tiers never mix.
      size_t score = bound_args + (lit.positive ? 0 : 1000);
      if (delta < 0 && lit.positive &&
          intensional[static_cast<size_t>(lit.atom.predicate)]) {
        score += 500;
      }
      if (best == -1 || score > best_score) {
        best = static_cast<int>(i);
        best_score = score;
      }
    }
    if (best == -1) return false;
    take(static_cast<size_t>(best));
  }
  return true;
}

}  // namespace

StatusOr<ProgramInfo> AnalyzeProgram(const Program& program) {
  ProgramInfo info;
  info.intensional.assign(static_cast<size_t>(program.signature().size()),
                          false);
  for (const Rule& rule : program.rules()) {
    info.intensional[static_cast<size_t>(rule.head.predicate)] = true;
  }
  info.is_monadic = true;
  for (PredicateId p = 0; p < program.signature().size(); ++p) {
    if (info.intensional[static_cast<size_t>(p)] &&
        program.signature().arity(p) > 1) {
      info.is_monadic = false;
    }
  }

  for (size_t r = 0; r < program.rules().size(); ++r) {
    const Rule& rule = program.rules()[r];
    std::string where = "rule " + std::to_string(r) + " (" +
                        program.RuleToString(rule) + ")";
    // Facts must be ground (checked at parse time too, but programs can be
    // built programmatically).
    if (rule.body.empty()) {
      for (const Term& t : rule.head.args) {
        if (t.IsVar()) {
          return Status::InvalidArgument(where + ": fact with variable");
        }
      }
      info.plans.emplace_back();
      info.delta_plans.emplace_back();
      continue;
    }
    // Negation only on extensional predicates (semipositive datalog).
    for (const Literal& lit : rule.body) {
      if (!lit.positive &&
          info.intensional[static_cast<size_t>(lit.atom.predicate)]) {
        return Status::InvalidArgument(
            where + ": negation of intensional predicate " +
            program.signature().name(lit.atom.predicate));
      }
    }
    // Range restriction: head variables occur in some positive body literal.
    std::set<VariableId> positive_vars;
    for (const Literal& lit : rule.body) {
      if (!lit.positive) continue;
      for (VariableId v : AtomVars(lit.atom)) positive_vars.insert(v);
    }
    for (VariableId v : AtomVars(rule.head)) {
      if (!positive_vars.count(v)) {
        return Status::InvalidArgument(
            where + ": head variable " + program.VariableName(v) +
            " not bound by a positive body literal");
      }
    }
    std::vector<size_t> source_order(rule.body.size());
    std::iota(source_order.begin(), source_order.end(), size_t{0});
    std::vector<size_t> plan;
    if (!GreedyOrder(rule, info.intensional, -1, source_order, &plan)) {
      return Status::InvalidArgument(
          where + ": no safe evaluation order (negative literal over "
                  "variables never bound positively)");
    }
    // One delta variant per positive intensional literal, in plan order;
    // a delta-first order is safe whenever the full plan is.
    std::vector<std::vector<size_t>> delta_plans;
    for (size_t i : plan) {
      const Literal& lit = rule.body[i];
      if (!lit.positive ||
          !info.intensional[static_cast<size_t>(lit.atom.predicate)]) {
        continue;
      }
      delta_plans.emplace_back();
      bool safe = GreedyOrder(rule, info.intensional, static_cast<int>(i),
                              plan, &delta_plans.back());
      TREEDL_CHECK(safe);
    }
    info.plans.push_back(std::move(plan));
    info.delta_plans.push_back(std::move(delta_plans));
  }
  return info;
}

StatusOr<std::vector<size_t>> FindQuasiGuards(const Program& program) {
  TREEDL_ASSIGN_OR_RETURN(ProgramInfo info, AnalyzeProgram(program));
  const Signature& sig = program.signature();
  auto pred_named = [&](const Atom& atom, const char* name) {
    return sig.name(atom.predicate) == name;
  };

  std::vector<size_t> guards;
  for (size_t r = 0; r < program.rules().size(); ++r) {
    const Rule& rule = program.rules()[r];
    if (rule.body.empty()) {
      guards.push_back(0);  // facts are trivially guarded
      continue;
    }
    std::set<VariableId> all_vars = RuleVars(rule);
    int found = -1;
    for (size_t g = 0; g < rule.body.size() && found < 0; ++g) {
      const Literal& guard = rule.body[g];
      if (!guard.positive ||
          info.intensional[static_cast<size_t>(guard.atom.predicate)]) {
        continue;
      }
      // Closure of guard variables under the τ_td functional dependencies.
      std::set<VariableId> determined = AtomVars(guard.atom);
      bool changed = true;
      while (changed) {
        changed = false;
        for (const Literal& lit : rule.body) {
          if (!lit.positive) continue;
          const auto& args = lit.atom.args;
          if ((pred_named(lit.atom, "child1") ||
               pred_named(lit.atom, "child2")) &&
              args.size() == 2 && args[0].IsVar() && args[1].IsVar()) {
            bool has0 = determined.count(args[0].variable) > 0;
            bool has1 = determined.count(args[1].variable) > 0;
            if (has0 != has1) {
              determined.insert(has0 ? args[1].variable : args[0].variable);
              changed = true;
            }
          } else if (pred_named(lit.atom, "bag") && !args.empty() &&
                     args[0].IsVar() &&
                     determined.count(args[0].variable) > 0) {
            for (size_t i = 1; i < args.size(); ++i) {
              if (args[i].IsVar() &&
                  determined.insert(args[i].variable).second) {
                changed = true;
              }
            }
          }
        }
      }
      if (std::includes(determined.begin(), determined.end(), all_vars.begin(),
                        all_vars.end())) {
        found = static_cast<int>(g);
      }
    }
    if (found < 0) {
      return Status::InvalidArgument(
          "rule " + std::to_string(r) + " (" + program.RuleToString(rule) +
          ") has no quasi-guard");
    }
    guards.push_back(static_cast<size_t>(found));
  }
  return guards;
}

Status CheckQuasiGuarded(const Program& program) {
  return FindQuasiGuards(program).status();
}

}  // namespace treedl::datalog
