// Grounding-based evaluation of quasi-guarded programs (Thm 4.4).
//
// Phase 1 (grounding): for every rule, enumerate the quasi-guard atom over
// the EDB; all remaining variables are functionally determined through the
// other extensional atoms (child1/child2/bag lookups resolve them in O(1)
// via column indexes). Extensional literals — positive and negative — are
// decided at grounding time; what remains is a ground propositional Horn
// clause over intensional atoms. The number of ground instances per rule is
// O(|A|), so the ground program has size O(|P| · |A|).
//
// Phase 2 (solving): LTUR unit propagation over the ground Horn program,
// linear in its size.
#ifndef TREEDL_DATALOG_GROUNDER_HPP_
#define TREEDL_DATALOG_GROUNDER_HPP_

#include "common/status.hpp"
#include "datalog/ast.hpp"
#include "datalog/eval.hpp"
#include "datalog/ltur.hpp"
#include "engine/run_stats.hpp"
#include "structure/structure.hpp"

namespace treedl::datalog {

/// Semantics identical to SemiNaiveEvaluate, restricted to quasi-guarded
/// programs (fails with InvalidArgument otherwise). Under an optional
/// `budget`: one work unit per rule grounded, charged before the rule's
/// grounding; a trip returns the budget's AbortStatus().
StatusOr<Structure> GroundedEvaluate(const Program& program,
                                     const Structure& edb,
                                     RunStats* stats = nullptr,
                                     WorkBudget* budget = nullptr);

}  // namespace treedl::datalog

#endif  // TREEDL_DATALOG_GROUNDER_HPP_
