// RunStats: the single per-query statistics record of the Engine API.
//
// One struct carries build/cache counters of the session cache, DP table
// sizes, datalog fixpoint and grounding work, and the query's wall-clock
// total. core::DpStats remains as the tree-DP walk's own record;
// core::FoldDpStats (core/tree_dp.hpp) folds it into a RunStats.
//
// Header-only on purpose: core/ and datalog/ include this file to fill in
// their slices without linking against the engine library.
#ifndef TREEDL_ENGINE_RUN_STATS_HPP_
#define TREEDL_ENGINE_RUN_STATS_HPP_

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

namespace treedl {

struct RunStats {
  // --- Session-cache activity ---------------------------------------------
  /// Schema encodings built by this query (0 on a cache hit).
  size_t encode_builds = 0;
  /// Raw tree decompositions built by this query (0 on a cache hit).
  size_t td_builds = 0;
  /// Normalized decompositions built (modified or tuple normal form).
  size_t normalize_builds = 0;
  /// Thm 4.5 MSO-to-datalog constructions run by this query (0 when the
  /// compiled program came from the engine's per-formula cache).
  size_t mso_compile_builds = 0;
  /// Cached artifacts reused instead of rebuilt.
  size_t cache_hits = 0;
  /// Artifacts restored into the session cache from a session file
  /// (Engine::LoadSession) — the "loads" side of loads vs. builds.
  size_t artifact_loads = 0;
  /// Artifacts written out to a session file (Engine::SaveSession).
  size_t artifact_saves = 0;

  // --- Tree-DP work (core::DpStats slice) ---------------------------------
  size_t dp_states = 0;
  size_t dp_max_states_per_node = 0;
  /// Shard tasks run by the parallel DP walk (0 = sequential traversal).
  size_t dp_shards = 0;
  /// Wall-clock per shard task, in shard order. Per-query only: Accumulate
  /// folds it into dp_slowest_shard_millis instead of concatenating, so a
  /// long-lived session's cumulative record stays bounded.
  std::vector<double> dp_shard_millis;
  /// Slowest shard task seen (aggregated form of dp_shard_millis).
  double dp_slowest_shard_millis = 0;
  /// Decomposition walks this query executed, one per problem: Solve runs
  /// 1, SolveAll 5 (the PRIMALITY enumeration counts its two walks).
  size_t dp_traversals = 0;
  /// High-water mark of live DP state-table bytes (flat-table arena
  /// footprints) of the query's largest walk — the walks run one after
  /// another, so SolveAll peaks at its largest single table, not the sum.
  /// Walks that evict dead tables stay near the traversal frontier; walks
  /// that retain them (the 3COL witness) grow with the whole decomposition.
  /// A sequential walk's peak is deterministic; a sharded walk's depends on
  /// which shards hold live tables at the same time.
  size_t dp_peak_table_bytes = 0;
  /// Dead state tables released mid-run by the eviction protocol: every
  /// table but the root's of each walk that does not retain its tables.
  size_t dp_tables_evicted = 0;

  // --- Datalog fixpoint work ----------------------------------------------
  size_t derived_facts = 0;
  size_t rule_applications = 0;
  /// Fixpoint rounds: round 0 + delta rounds for the semi-naive engine, one
  /// per jacobi iteration for the naive oracle.
  size_t fixpoint_rounds = 0;
  /// Rule plans the semi-naive engine ran: one full plan per rule in round
  /// 0, then one delta variant per rule x positive intensional body
  /// literal in every delta round. A pure function of the program and the
  /// round count; the engine charges its WorkBudget one unit per plan.
  size_t fixpoint_rule_tasks = 0;
  /// Join plans compiled by Prepare: one full plan per rule plus one delta
  /// variant per positive intensional body literal. A pure function of the
  /// program — identical across repeats.
  size_t plan_compiles = 0;
  /// StepExecutor::Execute invocations by the compiled semi-naive engine —
  /// one per join-plan step entered per prefix binding. When evaluation is
  /// fully compiled this equals the engine's rule_applications contribution
  /// (the interpreted oracle's work measure), and like every fixpoint
  /// counter it is a deterministic function of program + data.
  size_t executor_dispatches = 0;

  // --- Anytime decomposition improvement -----------------------------------
  /// Local-search rounds run by Engine::ImproveDecomposition (one WorkBudget
  /// unit each when the call was budgeted — the serving layer's REOPT).
  size_t improve_rounds = 0;

  // --- PRIMALITY enumeration sharding --------------------------------------
  /// Shard tasks run by the two sharded walks (bottom-up solve and top-down
  /// solve↓) of the §5.3 enumeration (0 when the walks ran sequentially).
  size_t primality_shards = 0;

  // --- Grounded-LTUR work -------------------------------------------------
  size_t ground_clauses = 0;
  size_t ground_atoms = 0;
  size_t guard_instantiations = 0;

  // --- Timing --------------------------------------------------------------
  /// Total wall-clock time of the query, milliseconds.
  double total_millis = 0;

  /// Folds `other` into this (used for the engine's cumulative stats).
  void Accumulate(const RunStats& other) {
    encode_builds += other.encode_builds;
    td_builds += other.td_builds;
    normalize_builds += other.normalize_builds;
    mso_compile_builds += other.mso_compile_builds;
    cache_hits += other.cache_hits;
    artifact_loads += other.artifact_loads;
    artifact_saves += other.artifact_saves;
    dp_states += other.dp_states;
    dp_max_states_per_node =
        dp_max_states_per_node > other.dp_max_states_per_node
            ? dp_max_states_per_node
            : other.dp_max_states_per_node;
    dp_shards += other.dp_shards;
    double other_slowest = other.dp_slowest_shard_millis;
    for (double ms : other.dp_shard_millis) {
      other_slowest = other_slowest > ms ? other_slowest : ms;
    }
    dp_slowest_shard_millis = dp_slowest_shard_millis > other_slowest
                                  ? dp_slowest_shard_millis
                                  : other_slowest;
    dp_traversals += other.dp_traversals;
    dp_peak_table_bytes = dp_peak_table_bytes > other.dp_peak_table_bytes
                              ? dp_peak_table_bytes
                              : other.dp_peak_table_bytes;
    dp_tables_evicted += other.dp_tables_evicted;
    derived_facts += other.derived_facts;
    rule_applications += other.rule_applications;
    fixpoint_rounds += other.fixpoint_rounds;
    fixpoint_rule_tasks += other.fixpoint_rule_tasks;
    plan_compiles += other.plan_compiles;
    executor_dispatches += other.executor_dispatches;
    improve_rounds += other.improve_rounds;
    primality_shards += other.primality_shards;
    ground_clauses += other.ground_clauses;
    ground_atoms += other.ground_atoms;
    guard_instantiations += other.guard_instantiations;
    total_millis += other.total_millis;
  }

  /// One-line human-readable rendering (implemented in engine/stats.cpp).
  std::string ToString() const;
};

/// Process-wide build counters, bumped by every Engine. Tests use the deltas
/// to demonstrate the §5.3 amortization argument: N queries on one Engine
/// cost one encoding + one decomposition, N one-shot Engines cost N of each.
struct EngineCounters {
  std::atomic<size_t> encode_builds{0};
  std::atomic<size_t> td_builds{0};
  std::atomic<size_t> normalize_builds{0};
};

EngineCounters& GlobalEngineCounters();

}  // namespace treedl

#endif  // TREEDL_ENGINE_RUN_STATS_HPP_
