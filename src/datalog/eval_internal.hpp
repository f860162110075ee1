// Shared preparation for the datalog evaluators (internal header).
#ifndef TREEDL_DATALOG_EVAL_INTERNAL_HPP_
#define TREEDL_DATALOG_EVAL_INTERNAL_HPP_

#include <vector>

#include "datalog/analysis.hpp"
#include "datalog/ast.hpp"
#include "datalog/database.hpp"
#include "datalog/executor.hpp"

namespace treedl::datalog::internal {

struct PreparedRule {
  ResolvedAtom head;
  std::vector<ResolvedAtom> body;  // in source order
  std::vector<bool> positive;      // aligned with body
  std::vector<size_t> order;       // the full plan (ProgramInfo::plans)
};

struct PreparedProgram {
  /// Union signature and domain: EDB predicates/elements first.
  Structure result;
  /// Program predicate id -> result predicate id.
  std::vector<PredicateId> predicate_map;
  std::vector<PreparedRule> rules;
  /// Compiled join plans, aligned with `rules` — the full (round 0) plan
  /// plus one delta-first variant per positive intensional body literal. The
  /// semi-naive engine runs these; the naive evaluator keeps the
  /// interpreted ApplyRule below as the differential oracle.
  std::vector<CompiledRule> compiled;
  /// Total JoinPlans compiled (full + delta variants over all rules).
  size_t plan_compiles = 0;
  size_t num_variables = 0;
  /// EDB facts plus ground program facts, in result-predicate ids.
  FactStore store;

  PreparedProgram() : result(Signature()) {}
};

/// Builds the union signature, copies the EDB, resolves all rules into plan
/// order, compiles their join plans, and seeds the fact store (EDB facts +
/// ground program facts).
StatusOr<PreparedProgram> Prepare(const Program& program, const Structure& edb);

/// Evaluates one rule against `store`; derived head tuples are passed to
/// `derive`. Returns the number of body matches attempted (work measure).
///
/// This is the tuple-at-a-time *interpreted* evaluation the compiled
/// executors replaced in the semi-naive engine. The naive evaluator keeps it
/// as the reference oracle; the differential harness pins the two engines'
/// models and work counters against each other.
size_t ApplyRule(const PreparedRule& rule, FactStore* store,
                 size_t num_variables,
                 const std::function<void(const Tuple&)>& derive);

}  // namespace treedl::datalog::internal

#endif  // TREEDL_DATALOG_EVAL_INTERNAL_HPP_
