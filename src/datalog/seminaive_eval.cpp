// Semi-naive fixpoint over compiled join plans (datalog/executor.hpp).
//
// Each round runs its rule plans in rule/variant order against the store as
// it was at the round's start, buffering the derived head tuples in one
// PendingSet; the round then merges them into the store in that same order.
// Rounds are therefore Jacobi-style: a fact derived in round k is first read
// by the delta plans of round k + 1.
#include <utility>

#include "common/logging.hpp"
#include "datalog/eval.hpp"
#include "datalog/eval_internal.hpp"

namespace treedl::datalog {

StatusOr<Structure> SemiNaiveEvaluate(const Program& program,
                                      const Structure& edb,
                                      RunStats* stats, WorkBudget* budget) {
  if (stats != nullptr) *stats = RunStats{};
  TREEDL_ASSIGN_OR_RETURN(internal::PreparedProgram prep,
                          internal::Prepare(program, edb));
  size_t rounds = 0;
  size_t derived_facts = 0;
  size_t rule_tasks = 0;
  ExecCounters counters;

  // Deadline accounting: one work unit per rule plan, charged at the round
  // boundary. The plans a round runs are a pure function of the program,
  // so a deadline trips before the same round on every run.
  auto charge_round = [&](size_t num_plans) -> bool {
    ++rounds;
    rule_tasks += num_plans;
    if (budget == nullptr) return true;
    bool ok = true;
    for (size_t i = 0; i < num_plans; ++i) {
      if (!budget->ConsumeUnit()) ok = false;
    }
    return ok;
  };
  // Inserts a round's buffered derivations in plan order; the new ones form
  // the next round's delta.
  auto merge = [&](const PendingSet& pending, FactStore* next_delta) {
    for (size_t i = 0; i < pending.size(); ++i) {
      const ElementId* args = pending.args(i);
      Tuple tuple(args, args + pending.arity(i));
      PredicateId pred = pending.predicate(i);
      if (!prep.store.Add(pred, tuple)) continue;
      ++derived_facts;
      next_delta->Add(pred, tuple);
      Status st = prep.result.AddFact(pred, tuple);
      TREEDL_CHECK(st.ok()) << st.ToString();
    }
  };

  // Round 0: every rule's full plan against the EDB (+ ground facts); all
  // derived facts form the first delta.
  FactStore delta(prep.result.signature());
  {
    if (!charge_round(prep.compiled.size())) {
      return budget->AbortStatus();
    }
    PendingSet pending;
    for (const CompiledRule& compiled : prep.compiled) {
      ExecutePlan(compiled.full, &prep.store, nullptr, &pending, &counters);
    }
    merge(pending, &delta);
  }

  // Delta rounds: for every rule and every delta variant (one per positive
  // intensional body literal, in full-plan order), run the variant's plan:
  // its first step reads the previous delta, the rest the full store.
  // Duplicate derivations are absorbed by the store.
  size_t num_variants = 0;
  for (const CompiledRule& compiled : prep.compiled) {
    num_variants += compiled.delta_variants.size();
  }
  while (delta.TotalFacts() > 0) {
    if (!charge_round(num_variants)) return budget->AbortStatus();
    PendingSet pending;
    for (const CompiledRule& compiled : prep.compiled) {
      for (const JoinPlan& variant : compiled.delta_variants) {
        ExecutePlan(variant, &prep.store, &delta, &pending, &counters);
      }
    }
    FactStore next_delta(prep.result.signature());
    merge(pending, &next_delta);
    delta = std::move(next_delta);
  }

  if (stats != nullptr) {
    stats->derived_facts += derived_facts;
    stats->rule_applications += counters.work;
    stats->fixpoint_rounds += rounds;
    stats->fixpoint_rule_tasks += rule_tasks;
    stats->plan_compiles += prep.plan_compiles;
    stats->executor_dispatches += counters.dispatches;
  }
  return std::move(prep.result);
}

}  // namespace treedl::datalog
