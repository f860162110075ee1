// Generic dynamic programming over modified-normalized tree decompositions.
//
// This captures the execution model of the paper's §5 programs: a succinct
// (non-monadic) datalog program whose solve(...) facts are computed by a
// bottom-up traversal, materializing only *reachable* states (the paper's
// optimization (2), "lazy grounding"). Problems plug in transition hooks:
//
//   struct Problem {
//     using State = ...;   // provides hash() and operator==
//     using Value = ...;   // e.g. std::monostate (decision), uint64_t (count)
//     void Leaf(bag, emit);
//     void Introduce(bag, element, state, value, emit);
//     void Forget(bag, element, state, value, emit);
//     JoinKey KeyOf(state);                     // JoinKey provides hash()/==
//     void Join(bag, s1, v1, s2, v2, emit);     // called per key-equal pair
//     Value Merge(v1, v2);                      // same state reached twice
//   };
//
// `emit(state, value)` may be called any number of times per transition.
// Merge must be commutative and associative — the walks rely on this for
// order-independence of the final tables.
//
// State tables are flat, arena-backed open-addressing tables (StateTable =
// FlatTable, common/flat_table.hpp): states live contiguously per bag in the
// node's own bump arena — one allocation per growth step instead of one heap
// node per state — and a whole table can be released at once, which is the
// primitive behind dead-table eviction (below).
//
// RunDp runs every tree DP: one problem, one bottom-up walk, one table per
// node — the paper's §5 evaluation of one program as one linear-time pass.
// The walk is a list of node chunks (internal::WalkChunks): a sequential run
// is one chunk, the post order; a parallel run is the bag-sharded schedule —
// independent subtree shards (td/shard.hpp) execute concurrently on a
// ThreadPool, a shard becoming runnable when all of its child shards have
// completed. Problem hooks must be const and stateless (all in-tree problems
// are); the resulting tables are bit-identical to the sequential ones,
// because every node still sees fully-built child tables and processes them
// in the same order. The primality DPs (§5.2 decision, §5.3 enumeration)
// drive the same walk directly, top-down included.
//
// Dead-table eviction (DpExec::table_memory_budget > 0): a node's table is
// consumed exactly once — by its parent node (in the same shard, or as the
// boundary table of a child shard that the parent shard reads). RunDp
// therefore releases every child table right after its parent node is
// processed, bounding peak table memory by the live frontier of the
// traversal instead of the whole decomposition. The root's table is never
// evicted (the caller reads its answer there), and problems that re-read
// interior tables after the run (witness extraction) opt out with
// retain_tables. DpStats::peak_table_bytes / tables_evicted report the
// effect.
#ifndef TREEDL_CORE_TREE_DP_HPP_
#define TREEDL_CORE_TREE_DP_HPP_

#include <algorithm>
#include <atomic>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_table.hpp"
#include "common/logging.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/work_budget.hpp"
#include "engine/run_stats.hpp"
#include "td/normalize.hpp"
#include "td/shard.hpp"

namespace treedl::core {

/// Position of `e` in the sorted `bag` (the insertion point if absent). Bags
/// of a normalized decomposition are sorted by element id, so this is the
/// slot index every per-bag state record aligns with.
inline size_t PositionInBag(const std::vector<ElementId>& bag, ElementId e) {
  return static_cast<size_t>(std::lower_bound(bag.begin(), bag.end(), e) -
                             bag.begin());
}

template <typename T>
struct MemberHash {
  size_t operator()(const T& t) const { return t.hash(); }
};

/// One bag's state table: flat open addressing over an arena (see header
/// comment). Iteration order is insertion order — deterministic and identical
/// between sequential and sharded walks.
template <typename State, typename Value>
using StateTable = FlatTable<State, Value>;

template <typename State, typename Value>
struct DpTable {
  /// Indexed by normalized-TD node id. Evicted nodes read as empty tables.
  std::vector<StateTable<State, Value>> nodes;

  const StateTable<State, Value>& at(TdNodeId id) const {
    return nodes[static_cast<size_t>(id)];
  }
};

struct DpStats {
  size_t total_states = 0;
  size_t max_states_per_node = 0;
  /// Shard tasks executed (0 when the traversal ran sequentially).
  size_t shards = 0;
  /// Wall-clock per shard task, indexed by shard id (parallel runs only).
  std::vector<double> shard_millis;
  /// Walks of the decomposition executed by this run.
  size_t traversals = 0;
  /// High-water mark of live state-table bytes (arena footprints); across
  /// several runs folded into one record, the largest single run's peak.
  size_t peak_table_bytes = 0;
  /// Dead tables released before the end of the run (0 without a budget).
  size_t tables_evicted = 0;
};

/// Execution context of a walk. Default-constructed (or with either pointer
/// null, or a single shard) the walk is sequential.
struct DpExec {
  const BagSharding* sharding = nullptr;
  ThreadPool* pool = nullptr;
  /// > 0 enables dead-table eviction (header comment): a soft ceiling on
  /// live table bytes. Eviction frees tables as soon as the traversal proves
  /// them dead, so peak memory tracks the traversal frontier; a budget
  /// smaller than the frontier itself is exceeded, never enforced by
  /// aborting. 0 keeps every table alive until the run ends. Problems that
  /// re-read interior tables (witness extraction) opt out via RunDp's
  /// retain_tables.
  size_t table_memory_budget = 0;
  /// Optional cooperative cancellation: each node step claims one work
  /// unit, and live table bytes are checked against the budget's hard cap
  /// after every table lands. Once the budget aborts, remaining steps are
  /// skipped (scheduling epilogues still run) and the CALLER must surface
  /// budget->AbortStatus() instead of reading the tables — they are partial.
  /// Null disables both checks.
  WorkBudget* budget = nullptr;

  bool Parallel() const {
    return sharding != nullptr && pool != nullptr && sharding->NumShards() > 1;
  }
};

namespace internal {

/// Cross-shard accounting of live state-table bytes. Relaxed atomics: the
/// counters are statistics, not synchronization; table lifetime is ordered by
/// the shard schedule itself.
struct TableMemoryTracker {
  std::atomic<size_t> current{0};
  std::atomic<size_t> peak{0};
  std::atomic<size_t> evicted{0};

  void Add(size_t bytes) {
    if (bytes == 0) return;
    size_t now = current.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    size_t seen = peak.load(std::memory_order_relaxed);
    while (now > seen &&
           !peak.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
  }

  void Evict(size_t bytes) {
    current.fetch_sub(bytes, std::memory_order_relaxed);
    evicted.fetch_add(1, std::memory_order_relaxed);
  }

  void FoldInto(DpStats* stats) const {
    if (stats == nullptr) return;
    stats->peak_table_bytes =
        std::max(stats->peak_table_bytes, peak.load(std::memory_order_relaxed));
    stats->tables_evicted += evicted.load(std::memory_order_relaxed);
  }
};

/// Per-node bookkeeping of every walk (RunDp and the primality passes):
/// counts the finished table `states` into `stats`, charges its bytes to
/// `memory`, and checks the live bytes against `budget`'s hard cap (`stats`
/// and `budget` may be null).
template <typename Table>
void RecordTable(const Table& states, TableMemoryTracker* memory,
                 WorkBudget* budget, DpStats* stats) {
  if (stats != nullptr) {
    stats->total_states += states.size();
    stats->max_states_per_node =
        std::max(stats->max_states_per_node, states.size());
  }
  memory->Add(states.MemoryBytes());
  if (budget != nullptr) {
    budget->CheckTableBytes(memory->current.load(std::memory_order_relaxed));
  }
}

/// Eviction: frees a dead table and credits its bytes back to `memory`.
template <typename Table>
void ReleaseTable(Table* table, TableMemoryTracker* memory) {
  size_t bytes = table->MemoryBytes();
  if (bytes == 0) return;
  table->Release();
  memory->Evict(bytes);
}

/// Computes one node's state table from its children's completed tables — the
/// single source of the transition semantics.
template <typename Problem>
void DpProcessNode(const NormalizedTreeDecomposition& ntd, TdNodeId id,
                   const Problem& problem,
                   DpTable<typename Problem::State,
                           typename Problem::Value>* table) {
  using State = typename Problem::State;
  using Value = typename Problem::Value;
  const NormNode& node = ntd.node(id);
  auto& states = table->nodes[static_cast<size_t>(id)];
  auto emit = [&](State state, Value value) {
    states.Emplace(std::move(state), std::move(value),
                   [&](const Value& existing, const Value& incoming) {
                     return problem.Merge(existing, incoming);
                   });
  };
  switch (node.kind) {
    case NormNodeKind::kLeaf:
      problem.Leaf(node.bag, emit);
      break;
    case NormNodeKind::kIntroduce: {
      const auto& child = table->nodes[static_cast<size_t>(node.children[0])];
      for (const auto& [state, value] : child) {
        problem.Introduce(node.bag, node.element, state, value, emit);
      }
      break;
    }
    case NormNodeKind::kForget: {
      const auto& child = table->nodes[static_cast<size_t>(node.children[0])];
      for (const auto& [state, value] : child) {
        problem.Forget(node.bag, node.element, state, value, emit);
      }
      break;
    }
    case NormNodeKind::kCopy: {
      const auto& child = table->nodes[static_cast<size_t>(node.children[0])];
      for (const auto& [state, value] : child) emit(state, value);
      break;
    }
    case NormNodeKind::kBranch: {
      const auto& left = table->nodes[static_cast<size_t>(node.children[0])];
      const auto& right = table->nodes[static_cast<size_t>(node.children[1])];
      // Bucket the right child's entries by join key, then pair. Entry
      // pointers stay valid while the (completed) right table is alive.
      using Entry = typename StateTable<State, Value>::Entry;
      using JoinKey = std::decay_t<decltype(problem.KeyOf(
          std::declval<const State&>()))>;
      std::unordered_map<JoinKey, std::vector<const Entry*>,
                         MemberHash<JoinKey>>
          buckets;
      for (const auto& entry : right) {
        buckets[problem.KeyOf(entry.first)].push_back(&entry);
      }
      for (const auto& [state, value] : left) {
        auto it = buckets.find(problem.KeyOf(state));
        if (it == buckets.end()) continue;
        for (const Entry* rhs : it->second) {
          problem.Join(node.bag, state, value, rhs->first, rhs->second, emit);
        }
      }
      break;
    }
  }
}

/// Eviction step: after node `id` was processed, its children's tables have
/// been consumed for the last time — release them. Exactly-once by
/// construction (every node has one parent); the root is never anyone's
/// child, so the root table always survives the run.
template <typename State, typename Value>
void EvictChildTables(const NormalizedTreeDecomposition& ntd, TdNodeId id,
                      DpTable<State, Value>* table, TableMemoryTracker* memory) {
  for (TdNodeId child : ntd.node(id).children) {
    ReleaseTable(&table->nodes[static_cast<size_t>(child)], memory);
  }
}

/// One node step: transition + stats + memory accounting + optional child
/// eviction — what RunDp runs per node.
///
/// Budgeted runs claim one work unit per step and verify the hard live-byte
/// cap after the node's table lands. An exhausted budget turns remaining
/// steps into no-ops — the walk completes (dependency countdowns intact) but
/// the tables are partial, so callers must check budget->Aborted() before
/// reading them.
template <typename Problem>
void DpStepNode(const NormalizedTreeDecomposition& ntd, TdNodeId id,
                const Problem& problem,
                DpTable<typename Problem::State, typename Problem::Value>*
                    table,
                TableMemoryTracker* memory, bool evict, DpStats* stats,
                WorkBudget* budget) {
  if (budget != nullptr && !budget->ConsumeUnit()) return;
  DpProcessNode(ntd, id, problem, table);
  RecordTable(table->nodes[static_cast<size_t>(id)], memory, budget, stats);
  if (evict) EvictChildTables(ntd, id, table, memory);
}

/// Direction of a walk. kBottomUp is the DP default: children before their
/// parent — nodes in post order, a shard once its child shards are done.
/// kTopDown inverts it for root-to-leaves passes (the §5.3 solve↓ tables):
/// nodes in reverse post order, a shard once its parent shard is done.
enum class WalkDirection { kBottomUp, kTopDown };

/// The one chunk walk under every tree DP: calls `process_chunk(nodes,
/// stats)` on chunks of `ntd` whose concatenation respects `direction`. A
/// sequential run (!exec.Parallel()) is one chunk — the whole post order, or
/// its reverse top-down. A parallel run is the shard schedule: one chunk per
/// shard, submitted to the pool once its dependencies (child shards
/// bottom-up, the parent shard top-down) are done, with the calling thread
/// helping to drain the pool while it waits. `process_chunk` is then invoked
/// concurrently from several threads for distinct shards, each with its own
/// stats slot (merged at the end).
template <typename ProcessChunk>
void WalkChunks(const NormalizedTreeDecomposition& ntd, const DpExec& exec,
                ProcessChunk&& process_chunk, DpStats* stats,
                WalkDirection direction = WalkDirection::kBottomUp) {
  const bool top_down = direction == WalkDirection::kTopDown;
  if (!exec.Parallel()) {
    std::vector<TdNodeId> order = ntd.PostOrder();
    if (top_down) std::reverse(order.begin(), order.end());
    process_chunk(order, stats);
    return;
  }
  const BagSharding& sharding = *exec.sharding;
  size_t num_shards = sharding.NumShards();

  // Per-shard bookkeeping: dependency counters, isolated stats slots (merged
  // at the end — no contention), and the completion group.
  std::vector<std::atomic<size_t>> pending(num_shards);
  std::vector<DpStats> shard_stats(num_shards);
  std::vector<double> shard_millis(num_shards, 0.0);
  WaitGroup done;
  done.Add(num_shards);

  // The task runner; owns no state, everything lives on this frame, which
  // outlives all tasks because Wait() returns only after the last Done().
  std::function<void(size_t)> run_shard = [&](size_t s) {
    Timer timer;
    if (top_down) {
      std::vector<TdNodeId> reversed(sharding.shards[s].nodes.rbegin(),
                                     sharding.shards[s].nodes.rend());
      process_chunk(reversed, &shard_stats[s]);
    } else {
      process_chunk(sharding.shards[s].nodes, &shard_stats[s]);
    }
    shard_millis[s] = timer.ElapsedMillis();
    auto ready = [&](int next) {
      return pending[static_cast<size_t>(next)].fetch_sub(
                 1, std::memory_order_acq_rel) == 1;
    };
    if (top_down) {
      for (int child : sharding.shards[s].children) {
        if (ready(child)) {
          exec.pool->Submit([&run_shard, child] {
            run_shard(static_cast<size_t>(child));
          });
        }
      }
    } else {
      int parent = sharding.shards[s].parent;
      if (parent >= 0 && ready(parent)) {
        exec.pool->Submit([&run_shard, parent] {
          run_shard(static_cast<size_t>(parent));
        });
      }
    }
    done.Done();
  };

  for (size_t s = 0; s < num_shards; ++s) {
    size_t deps = top_down ? (sharding.shards[s].parent >= 0 ? 1 : 0)
                           : sharding.shards[s].children.size();
    pending[s].store(deps, std::memory_order_relaxed);
  }
  for (size_t s = 0; s < num_shards; ++s) {
    bool source = top_down ? sharding.shards[s].parent < 0
                           : sharding.shards[s].children.empty();
    if (source) {
      exec.pool->Submit([&run_shard, s] { run_shard(s); });
    }
  }
  // Help drain the pool instead of idling (also makes progress on a
  // single-worker pool shared by several concurrent queries).
  while (exec.pool->RunOneTask()) {
  }
  done.Wait();

  if (stats != nullptr) {
    for (const DpStats& local : shard_stats) {
      stats->total_states += local.total_states;
      stats->max_states_per_node =
          std::max(stats->max_states_per_node, local.max_states_per_node);
    }
    stats->shards += num_shards;
    stats->shard_millis.insert(stats->shard_millis.end(),
                               shard_millis.begin(), shard_millis.end());
  }
}

}  // namespace internal

/// Runs one tree DP: a bottom-up walk (internal::WalkChunks) of `ntd` that
/// fills and returns `problem`'s table, indexed by node id. Sequential by
/// default; bag-sharded on exec.pool when exec.Parallel(), in which case the
/// problem's hooks run concurrently and must be const and stateless.
/// exec.table_memory_budget evicts dead interior tables unless
/// `retain_tables` is set (callers that re-read interior tables after the
/// run, i.e. witness extraction, keep it); the root table always survives.
/// After an exec.budget abort the table is partial: the caller surfaces
/// budget->AbortStatus() instead of reading it.
template <typename Problem>
DpTable<typename Problem::State, typename Problem::Value> RunDp(
    const NormalizedTreeDecomposition& ntd, const Problem& problem,
    const DpExec& exec = {}, DpStats* stats = nullptr,
    bool retain_tables = true) {
  DpTable<typename Problem::State, typename Problem::Value> table;
  table.nodes.resize(ntd.NumNodes());
  internal::TableMemoryTracker memory;
  const bool evict = exec.table_memory_budget > 0 && !retain_tables;
  internal::WalkChunks(
      ntd, exec,
      [&](const std::vector<TdNodeId>& nodes, DpStats* local) {
        for (TdNodeId id : nodes) {
          internal::DpStepNode(ntd, id, problem, &table, &memory, evict, local,
                               exec.budget);
        }
      },
      stats);
  memory.FoldInto(stats);
  if (stats != nullptr) ++stats->traversals;
  return table;
}

/// Folds one run's DpStats into a query's RunStats.
inline void FoldDpStats(const DpStats& dp, RunStats* stats) {
  stats->dp_states += dp.total_states;
  stats->dp_max_states_per_node =
      std::max(stats->dp_max_states_per_node, dp.max_states_per_node);
  stats->dp_shards += dp.shards;
  stats->dp_shard_millis.insert(stats->dp_shard_millis.end(),
                                dp.shard_millis.begin(),
                                dp.shard_millis.end());
  stats->dp_traversals += dp.traversals;
  stats->dp_peak_table_bytes =
      std::max(stats->dp_peak_table_bytes, dp.peak_table_bytes);
  stats->dp_tables_evicted += dp.tables_evicted;
}

}  // namespace treedl::core

#endif  // TREEDL_CORE_TREE_DP_HPP_
