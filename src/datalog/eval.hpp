// Datalog evaluation: least fixpoint of P ∪ E(A) (§2.4).
//
// Three evaluators with identical semantics on semipositive programs:
//  - SemiNaiveEvaluate: delta-driven evaluation over compiled join plans, one
//    delta-first plan per delta variant — the engine Engine::EvaluateDatalog
//    and the compiled MSO route run, linear on quasi-guarded τ_td programs.
//  - NaiveEvaluate:     re-derives everything each round (reference oracle).
//  - GroundedEvaluate (grounder.hpp): Thm 4.4's two-phase O(|P|·|A|) pipeline
//    for quasi-guarded programs — ground via the guards, then LTUR unit
//    propagation; a library function and test oracle.
#ifndef TREEDL_DATALOG_EVAL_HPP_
#define TREEDL_DATALOG_EVAL_HPP_

#include "common/status.hpp"
#include "common/work_budget.hpp"
#include "datalog/ast.hpp"
#include "engine/run_stats.hpp"
#include "structure/structure.hpp"

namespace treedl::datalog {

/// Evaluates `program` over the extensional database `edb`. The result
/// structure carries the union signature (EDB predicates first, then new
/// program predicates) and contains all EDB facts plus the derived IDB
/// facts. Fails if a program predicate clashes in arity with an EDB
/// predicate, or if the program is unsafe (see AnalyzeProgram).
StatusOr<Structure> NaiveEvaluate(const Program& program, const Structure& edb,
                                  RunStats* stats = nullptr);

/// Semi-naive evaluation. RunStats::fixpoint_rounds / fixpoint_rule_tasks
/// report the rounds and the rule plans they ran. Under an optional
/// `budget` the fixpoint charges one work unit per rule plan at each round
/// boundary — a pure function of program and data, so a deadline trips at
/// the same unit on every run — and a trip returns the budget's
/// AbortStatus().
StatusOr<Structure> SemiNaiveEvaluate(const Program& program,
                                      const Structure& edb,
                                      RunStats* stats = nullptr,
                                      WorkBudget* budget = nullptr);

}  // namespace treedl::datalog

#endif  // TREEDL_DATALOG_EVAL_HPP_
