// Static analysis of datalog programs: safety, classification (§2.4),
// monadicity (Def 4.1) and quasi-guardedness (Def 4.3).
#ifndef TREEDL_DATALOG_ANALYSIS_HPP_
#define TREEDL_DATALOG_ANALYSIS_HPP_

#include <vector>

#include "common/status.hpp"
#include "datalog/ast.hpp"

namespace treedl::datalog {

struct ProgramInfo {
  /// Per program-predicate: occurs in some rule head.
  std::vector<bool> intensional;
  /// Every intensional predicate is unary (or zero-ary) — Def 4.1 extended by
  /// the 0-ary decision predicates of §4's discussion.
  bool is_monadic = false;
  /// Per rule: body literal indices in the full (round 0) evaluation order.
  /// Fully bound negatives schedule first, then positive intensional
  /// literals, then positives greedily by bound-argument count.
  std::vector<std::vector<size_t>> plans;
  /// Per rule: one order per semi-naive delta variant (positive intensional
  /// literal, in `plans` order). Each starts with its delta literal, and the
  /// greedy orders the rest without the intensional preference (ties in
  /// `plans` order), so a variant joins outward from its delta.
  std::vector<std::vector<std::vector<size_t>>> delta_plans;
};

/// Validates safety: ground facts, range-restricted heads, negation applied
/// only to extensional predicates, and a safe evaluation order for every
/// rule. Returns the analysis on success.
StatusOr<ProgramInfo> AnalyzeProgram(const Program& program);

/// Determines, for each rule, a quasi-guard: a positive extensional body atom
/// B such that every variable of the rule occurs in B or is functionally
/// dependent on B (Def 4.3). Functional dependencies follow the τ_td
/// discussion in the proof of Thm 4.5: child1/child2 atoms link their two
/// arguments one-to-one (first/second child and parent determine each other),
/// and a bag atom's node argument determines its element arguments. Returns
/// the guard's body index per rule, or InvalidArgument naming the first rule
/// that has no quasi-guard.
StatusOr<std::vector<size_t>> FindQuasiGuards(const Program& program);

/// Convenience: OK iff FindQuasiGuards succeeds.
Status CheckQuasiGuarded(const Program& program);

}  // namespace treedl::datalog

#endif  // TREEDL_DATALOG_ANALYSIS_HPP_
