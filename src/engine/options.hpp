// Configuration of a treedl::Engine session.
#ifndef TREEDL_ENGINE_OPTIONS_HPP_
#define TREEDL_ENGINE_OPTIONS_HPP_

#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "mso2dl/mso_to_datalog.hpp"
#include "td/heuristics.hpp"
#include "td/tree_decomposition.hpp"

namespace treedl {

class ThreadPool;
class WorkBudget;

/// Which datalog fixpoint engine serves EvaluateDatalog / EvaluateMso.
enum class DatalogBackend {
  kNaive,      // reference oracle: re-derives everything each round
  kSemiNaive,  // delta-driven (the general default)
  kGrounded,   // Thm 4.4 two-phase ground + LTUR (quasi-guarded programs only)
};

const char* DatalogBackendName(DatalogBackend backend);

/// How EvaluateMso answers: compile through Thm 4.5 into the datalog backend
/// (linear data complexity, exponential compile in rank/width), or evaluate
/// directly by quantifier expansion (exponential data complexity — the MONA
/// stand-in role).
enum class MsoStrategy {
  kCompileToDatalog,
  kDirect,
};

struct EngineOptions {
  /// Elimination heuristic for the session decomposition.
  TdHeuristic heuristic = TdHeuristic::kMinFill;
  /// Custom elimination order (a permutation of the Gaifman-graph vertices).
  /// When set, overrides `heuristic`.
  std::optional<std::vector<VertexId>> elimination_order;
  /// Caller-supplied decomposition of the session structure. When set,
  /// overrides both `heuristic` and `elimination_order` (validated on first
  /// use unless `validate` is off).
  std::optional<TreeDecomposition> decomposition;
  /// Validate the decomposition once after construction (§2.2 conditions).
  /// Queries then reuse the validated decomposition without re-checking.
  bool validate = true;
  /// Datalog backend for EvaluateDatalog and compiled MSO queries.
  DatalogBackend backend = DatalogBackend::kSemiNaive;
  /// MSO evaluation route.
  MsoStrategy mso_strategy = MsoStrategy::kCompileToDatalog;
  /// Budgets for the Thm 4.5 MSO-to-datalog construction.
  mso2dl::Mso2DlOptions mso_options;
  /// Budget for MsoStrategy::kDirect (0 = unlimited).
  uint64_t mso_direct_work_budget = 0;
  /// Extract a witness (e.g. an actual coloring) from Solve when available.
  bool extract_witness = true;
  /// Worker threads for the session's shared work-stealing pool: the
  /// bag-sharded tree DP behind Solve/SolveAll, the two sharded passes of
  /// the AllPrimes enumeration, and the rule-level parallel semi-naive
  /// datalog fixpoint. 0 = hardware concurrency (the default); 1 = the
  /// sequential behavior (no thread pool, no bag sharding). Answers are
  /// bit-identical at every setting.
  size_t num_threads = 0;
  /// Non-owning work-stealing pool shared with other sessions. When set, the
  /// session runs its parallel work on this pool instead of creating its own
  /// and the resolved thread count is the pool's (`num_threads` is ignored) —
  /// this is how the serving layer keeps N concurrent sessions on one pool.
  /// The pool must outlive the Engine.
  ThreadPool* shared_pool = nullptr;
  /// Non-owning cooperative cancellation/deadline budget applied to every
  /// query this session runs (per-call budget arguments override it). The
  /// budget counts deterministic logical work units — DP nodes processed,
  /// fixpoint rule tasks — so a deadline trips at the same unit on every
  /// thread count; it can also carry a hard live-table byte cap
  /// (kResourceExhausted on overrun). Must outlive the Engine.
  WorkBudget* work_budget = nullptr;
};

}  // namespace treedl

#endif  // TREEDL_ENGINE_OPTIONS_HPP_
