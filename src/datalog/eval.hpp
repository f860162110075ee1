// Datalog evaluation: least fixpoint of P ∪ E(A) (§2.4).
//
// Three engines with identical semantics on semipositive programs:
//  - NaiveEvaluate:     re-derives everything each round (reference oracle).
//  - SemiNaiveEvaluate: standard delta-driven evaluation (the general engine).
//  - GroundedEvaluate (grounder.hpp): Thm 4.4's two-phase O(|P|·|A|) pipeline
//    for quasi-guarded programs — ground via the guards, then LTUR unit
//    propagation.
#ifndef TREEDL_DATALOG_EVAL_HPP_
#define TREEDL_DATALOG_EVAL_HPP_

#include "common/status.hpp"
#include "common/work_budget.hpp"
#include "datalog/ast.hpp"
#include "engine/run_stats.hpp"
#include "structure/structure.hpp"

namespace treedl::datalog {

/// Execution context for the budgeted engines (semi-naive and grounded).
struct EvalExec {
  /// Optional deadline/memory budget. The semi-naive fixpoint charges one
  /// work unit per rule plan at each round boundary, the grounded pipeline
  /// one per rule grounded; both are pure functions of program and data, so
  /// a deadline trips at the same unit on every run. A trip returns the
  /// budget's AbortStatus().
  WorkBudget* budget = nullptr;
};

/// Evaluates `program` over the extensional database `edb`. The result
/// structure carries the union signature (EDB predicates first, then new
/// program predicates) and contains all EDB facts plus the derived IDB
/// facts. Fails if a program predicate clashes in arity with an EDB
/// predicate, or if the program is unsafe (see AnalyzeProgram).
StatusOr<Structure> NaiveEvaluate(const Program& program, const Structure& edb,
                                  RunStats* stats = nullptr);

StatusOr<Structure> SemiNaiveEvaluate(const Program& program,
                                      const Structure& edb,
                                      RunStats* stats = nullptr);

/// Semi-naive evaluation under exec.budget. RunStats::fixpoint_rounds /
/// fixpoint_rule_tasks report the rounds and the rule plans they ran.
StatusOr<Structure> SemiNaiveEvaluate(const Program& program,
                                      const Structure& edb,
                                      const EvalExec& exec, RunStats* stats);

}  // namespace treedl::datalog

#endif  // TREEDL_DATALOG_EVAL_HPP_
