// Configuration of a treedl::Engine session.
#ifndef TREEDL_ENGINE_OPTIONS_HPP_
#define TREEDL_ENGINE_OPTIONS_HPP_

#include <cstddef>
#include <optional>

#include "td/heuristics.hpp"
#include "td/tree_decomposition.hpp"

namespace treedl {

struct EngineOptions {
  /// Elimination heuristic for the session decomposition.
  TdHeuristic heuristic = TdHeuristic::kMinFill;
  /// Caller-supplied decomposition of the session structure (for a custom
  /// elimination order, pass DecompositionFromOrder's result). When set,
  /// overrides `heuristic`. Every decomposition the session adopts (built,
  /// supplied, loaded or improved) is validated once against the §2.2
  /// conditions; queries then reuse it unchecked.
  std::optional<TreeDecomposition> decomposition;
  /// Extract a witness (e.g. an actual coloring) from Solve when available.
  bool extract_witness = true;
  /// Worker threads of the session's own work-stealing pool: SolveAll's
  /// five graph-DP walks, run at once (each walk sequential), and the two
  /// sharded passes of the AllPrimes enumeration. A Solve walks on the
  /// calling thread and datalog fixpoints always run sequentially.
  /// 0 = hardware concurrency (the default); 1 = the sequential behavior
  /// (no thread pool, no bag sharding). Answers are bit-identical at every
  /// setting.
  size_t num_threads = 0;
};

}  // namespace treedl

#endif  // TREEDL_ENGINE_OPTIONS_HPP_
