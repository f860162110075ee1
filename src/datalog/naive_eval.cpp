// Naive (jacobi) fixpoint over the *interpreted* ApplyRule kernel.
//
// Deliberately not ported to the compiled executors: this engine is the
// reference oracle the differential harness (tests/datalog_executor_test.cpp)
// pins the compiled semi-naive engine's model against, so the two paths must
// stay independent implementations of the same semantics.
#include "common/logging.hpp"
#include "datalog/eval.hpp"
#include "datalog/eval_internal.hpp"

namespace treedl::datalog {

StatusOr<Structure> NaiveEvaluate(const Program& program, const Structure& edb,
                                  RunStats* stats) {
  if (stats != nullptr) *stats = RunStats{};
  TREEDL_ASSIGN_OR_RETURN(internal::PreparedProgram prep,
                          internal::Prepare(program, edb));
  size_t iterations = 0;
  size_t derived_facts = 0;
  size_t rule_applications = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    ++iterations;
    // Collect derivations per round, then insert (jacobi-style; insertion
    // order does not affect the least fixpoint).
    std::vector<std::pair<PredicateId, Tuple>> pending;
    for (const internal::PreparedRule& rule : prep.rules) {
      rule_applications += internal::ApplyRule(
          rule, &prep.store, prep.num_variables, [&](const Tuple& tuple) {
            pending.emplace_back(rule.head.predicate, tuple);
          });
    }
    for (auto& [pred, tuple] : pending) {
      if (prep.store.Add(pred, tuple)) {
        changed = true;
        ++derived_facts;
        Status st = prep.result.AddFact(pred, tuple);
        TREEDL_CHECK(st.ok()) << st.ToString();
      }
    }
  }
  if (stats != nullptr) {
    stats->fixpoint_rounds += iterations;
    stats->derived_facts += derived_facts;
    stats->rule_applications += rule_applications;
  }
  return std::move(prep.result);
}

}  // namespace treedl::datalog
