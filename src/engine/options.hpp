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

/// Which datalog fixpoint engine serves EvaluateDatalog / EvaluateMso. The
/// naive engine is a test oracle only: call datalog::NaiveEvaluate directly.
enum class DatalogBackend {
  kSemiNaive,  // delta-driven (the general default)
  kGrounded,   // Thm 4.4 two-phase ground + LTUR (quasi-guarded programs only)
};

const char* DatalogBackendName(DatalogBackend backend);

struct EngineOptions {
  /// Elimination heuristic for the session decomposition.
  TdHeuristic heuristic = TdHeuristic::kMinFill;
  /// Custom elimination order (a permutation of the Gaifman-graph vertices).
  /// When set, overrides `heuristic`.
  std::optional<std::vector<VertexId>> elimination_order;
  /// Caller-supplied decomposition of the session structure. When set,
  /// overrides both `heuristic` and `elimination_order`. Every decomposition
  /// the session adopts (built, supplied, loaded or improved) is validated
  /// once against the §2.2 conditions; queries then reuse it unchecked.
  std::optional<TreeDecomposition> decomposition;
  /// Datalog backend for EvaluateDatalog and compiled MSO queries.
  DatalogBackend backend = DatalogBackend::kSemiNaive;
  /// Budgets for the Thm 4.5 MSO-to-datalog construction.
  mso2dl::Mso2DlOptions mso_options;
  /// Extract a witness (e.g. an actual coloring) from Solve when available.
  bool extract_witness = true;
  /// Worker threads for the session's shared work-stealing pool: the
  /// bag-sharded tree DP behind Solve/SolveAll and the two sharded passes of
  /// the AllPrimes enumeration. Datalog fixpoints always run sequentially.
  /// 0 = hardware concurrency (the default); 1 = the sequential behavior
  /// (no thread pool, no bag sharding). Answers are bit-identical at every
  /// setting.
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
  /// fixpoint rule plans, grounded rules — so a deadline trips at the same
  /// unit on every thread count; it can also carry a hard live-table byte
  /// cap (kResourceExhausted on overrun). Must outlive the Engine.
  WorkBudget* work_budget = nullptr;
};

}  // namespace treedl

#endif  // TREEDL_ENGINE_OPTIONS_HPP_
