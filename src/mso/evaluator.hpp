// Naive MSO model checking.
//
// Evaluates formulas by direct quantifier expansion: FO quantifiers loop over
// the domain, SO quantifiers over all 2^n subsets (domains are capped at 64
// elements so sets fit a SmallBitset). Data complexity is exponential — this
// evaluator plays the role MONA played in the paper's §6 experiments: correct
// on small inputs, and failing with a resource error once the exponential
// blow-up hits. The `work_budget` knob makes that failure deterministic and
// reportable ("—" rows of Table 1).
#ifndef TREEDL_MSO_EVALUATOR_HPP_
#define TREEDL_MSO_EVALUATOR_HPP_

#include <map>
#include <string>

#include "common/small_bitset.hpp"
#include "common/status.hpp"
#include "common/work_budget.hpp"
#include "mso/ast.hpp"
#include "structure/structure.hpp"

namespace treedl::mso {

struct Assignment {
  std::map<std::string, ElementId> fo;
  std::map<std::string, SmallBitset> so;
};

struct EvalOptions {
  /// Abstract work units (one per formula-node visit). 0 = unlimited.
  uint64_t work_budget = 0;
  /// Optional shared budget: each formula-node visit claims one unit, and a
  /// tripped budget ends the evaluation with its AbortStatus().
  WorkBudget* budget = nullptr;
};

struct EvalUsage {
  uint64_t work = 0;
};

/// Evaluates `f` on `structure` under `assignment` (which must cover all free
/// variables). Fails with InvalidArgument on unbound variables/bad atoms, with
/// OutOfRange if the domain exceeds 64 elements, with ResourceExhausted when
/// the work budget runs out, and with `options.budget`'s AbortStatus() when
/// that budget trips.
StatusOr<bool> Evaluate(const Structure& structure, const Formula& f,
                        const Assignment& assignment,
                        const EvalOptions& options = {},
                        EvalUsage* usage = nullptr);

/// Convenience for sentences (no free variables).
StatusOr<bool> EvaluateSentence(const Structure& structure, const Formula& f,
                                const EvalOptions& options = {},
                                EvalUsage* usage = nullptr);

/// Convenience for unary queries φ(x): binds `free_var` to `element`.
StatusOr<bool> EvaluateUnary(const Structure& structure, const Formula& f,
                             const std::string& free_var, ElementId element,
                             const EvalOptions& options = {},
                             EvalUsage* usage = nullptr);

}  // namespace treedl::mso

#endif  // TREEDL_MSO_EVALUATOR_HPP_
