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
//     Ctx Context(const NormNode& node);       // the step's context record
//     template <typename Emit> void Leaf(ctx, Emit&& emit);
//     size_t LeafStates(ctx);                   // exact leaf size, or 0
//     template <typename Emit> void Introduce(ctx, state, value, Emit&& emit);
//     size_t IntroduceFanOut(ctx);              // states per input state
//     template <typename Emit> void Forget(ctx, state, value, Emit&& emit);
//     JoinKey KeyOf(state);                     // JoinKey provides hash()/==
//     template <typename Emit>
//     void Join(ctx, s1, v1, s2, v2, Emit&& emit);  // per key-equal pair
//     Value Merge(v1, v2);                      // same state reached twice
//   };
//
// Context is called once per node step, before any transition of that node;
// every hook of the step then reads the same record `ctx`. Its type is the
// problem's: the graph DPs read a BagContext (the bag size, the position of
// the introduced/forgotten element and, from MakeBagContext, each bag
// position's bag-neighbour mask), the Fig. 6 PRIMALITY problem a PrimStep
// (core/primality_internal.hpp: the bag's FD layout and the element's
// position). States name bag *positions*, never element ids, so a state is a
// few words and a transition is a handful of word operations. Nothing of the
// context outlives the step. The masks come from O(1) probes of an EdgeIndex
// (graph/edge_index.hpp) that each graph problem builds over its graph, one
// per bag pair a transition may test, so a step's cost depends on its bag
// and never on the degree of a vertex in it: a hub that sits in every bag
// costs no more than any other vertex, and the walk stays linear.
//
// `emit(state, value)` may be called any number of times per transition; it
// is the node's table insert itself (Emit is the walk's lambda, so the
// transition inlines into the node loop). Merge must be commutative and
// associative — the walks rely on this for order-independence of the final
// tables. LeafStates and IntroduceFanOut only size a step's output table
// (below): a low bound costs a regrowth, a high one memory, never a state.
//
// Branch nodes pair each left-child entry with the right-child entries of
// equal join key, left-major, the right entries in insertion order
// (internal::ForEachJoinPair). When KeyOf's type is State itself, KeyOf must
// be the identity: the pair is then found by one probe of the right child's
// table. Any other key indexes the right table by key into insertion-ordered
// chains, whose links live in a buffer (internal::JoinScratch) that each
// chunk of a walk reuses across its joins.
//
// State tables are flat, arena-backed open-addressing tables (StateTable =
// FlatTable, common/flat_table.hpp): states live contiguously per bag in the
// node's own bump arena, and a whole table can be released at once, which is
// the primitive behind dead-table eviction (below). Each step allocates its
// output table once, sized from its inputs (internal::ApplyStep: |input| at
// forget and copy, |input| × IntroduceFanOut at introduce, the smaller input
// at a branch, LeafStates at a leaf); only a step that emits past that
// doubles the table. The blocks come from the library's BlockCache
// (common/block_cache.hpp): a released table's blocks are the next tables'
// blocks, so a walk touches the same few cache-hot blocks and never hands
// memory back to the OS mid-query.
//
// RunDp runs every bottom-up tree DP — the five graph DPs and both §5
// PRIMALITY programs: one problem, one walk, one table per node — the
// paper's §5 evaluation of one program as one linear-time pass. The walk is
// a list of node chunks (internal::WalkChunks): a sequential run is one
// chunk, the post order; a parallel run is the bag-sharded schedule —
// independent subtree shards (td/shard.hpp) execute concurrently on a
// ThreadPool, a shard becoming runnable when all of its child shards have
// completed. The Engine shards only the §5.3 enumeration; its graph-DP
// walks are sequential (SolveAll runs its five walks concurrently instead).
// Problem hooks must be const and stateless (all in-tree problems are); the
// resulting tables are bit-identical to the sequential ones, because every
// node still sees fully-built child tables and processes them in the same
// order. The one pass that is not bottom-up, the §5.3 top-down
// solve↓() walk (core/primality_enum.cpp), runs WalkChunks inverted and
// steps each node through the same internal::ApplyStep on the inverted
// kind.
//
// Dead-table eviction: a node's table is consumed exactly once — by its
// parent node (in the same shard, or as the boundary table of a child shard
// that the parent shard reads). A walk therefore releases each child table
// right after its parent node is processed, except the tables its
// TableRetention keeps: live tables follow the traversal frontier instead of
// the whole decomposition, and nothing is left to tear down when the walk
// ends but the root's table, which is never evicted (the caller reads its
// answer there). DpStats::peak_table_bytes / tables_evicted report the
// effect: the peak counts each live table's allocated capacity (its
// reservation, plus any overflow), and an empty table holds no bytes and
// is not counted as evicted.
#ifndef TREEDL_CORE_TREE_DP_HPP_
#define TREEDL_CORE_TREE_DP_HPP_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/flat_table.hpp"
#include "common/logging.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/work_budget.hpp"
#include "engine/run_stats.hpp"
#include "graph/edge_index.hpp"
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

/// Widest bag the graph DPs accept: a bag position is one bit of a 64-bit
/// word, and the subset problems enumerate 2^|bag| leaf states in one.
inline constexpr int kMaxDpBagSize = 63;

/// What every transition of one node step reads about the node's bag (see
/// the header comment); built by Problem::Context once per step.
struct BagContext {
  int size = 0;
  /// Position of node.element: in the bag for introduce, in the child's bag
  /// for forget (the insertion point in this bag); -1 at other nodes.
  int pos = -1;
  /// adjacent[i] = mask of the bag positions adjacent to position i, over
  /// the bag edges a transition may test (MakeBagContext with an index): all
  /// of them at a leaf, those at `pos` at an introduce node (the child's
  /// states already satisfy the rest), none elsewhere. MakeBagContext sets
  /// only positions i < size and leaves the rest uninitialized (they are
  /// never read); a context built by hand starts as `BagContext ctx{}`.
  uint64_t adjacent[kMaxDpBagSize];

  /// Mask of every bag position.
  uint64_t All() const { return (uint64_t{1} << size) - 1; }
};

/// The BagContext of `node`; with an `edges` index of the graph, also its
/// adjacency masks, probed pair by pair: the |bag|·(|bag|−1)/2 bag pairs at
/// a leaf, the introduced vertex's |bag|−1 at an introduce node, none
/// elsewhere. No adjacency list is read, so a hub costs what any vertex
/// costs. Requires |bag| <= kMaxDpBagSize.
inline BagContext MakeBagContext(const NormNode& node,
                                 const EdgeIndex* edges = nullptr) {
  TREEDL_CHECK(node.bag.size() <= static_cast<size_t>(kMaxDpBagSize))
      << "bag of " << node.bag.size() << " elements exceeds the graph-DP limit";
  BagContext ctx;
  ctx.size = static_cast<int>(node.bag.size());
  std::fill_n(ctx.adjacent, ctx.size, uint64_t{0});
  if (node.kind == NormNodeKind::kIntroduce ||
      node.kind == NormNodeKind::kForget) {
    ctx.pos = static_cast<int>(PositionInBag(node.bag, node.element));
  }
  if (edges == nullptr) return ctx;
  auto link = [&](int i, int j) {
    if (edges->Contains(node.bag[static_cast<size_t>(i)],
                        node.bag[static_cast<size_t>(j)])) {
      ctx.adjacent[i] |= uint64_t{1} << j;
      ctx.adjacent[j] |= uint64_t{1} << i;
    }
  };
  if (node.kind == NormNodeKind::kLeaf) {
    for (int i = 0; i < ctx.size; ++i) {
      for (int j = i + 1; j < ctx.size; ++j) link(i, j);
    }
  } else if (node.kind == NormNodeKind::kIntroduce) {
    for (int i = 0; i < ctx.size; ++i) {
      if (i != ctx.pos) link(ctx.pos, i);
    }
  }
  return ctx;
}

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
  /// Dead tables released before the end of the run: every table but the
  /// root's under TableRetention::kNone, none under kAll.
  size_t tables_evicted = 0;
};

/// Execution context of a walk. Default-constructed (or with either pointer
/// null, or a single shard) the walk is sequential.
struct DpExec {
  const BagSharding* sharding = nullptr;
  ThreadPool* pool = nullptr;
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

/// Which tables a walk keeps after their parent node consumed them (dead-table
/// eviction, header comment); the root's table always survives.
enum class TableRetention {
  /// Every table but the root's is evicted as the walk goes.
  kNone,
  /// The children of branch nodes survive too: the §5.3 top-down pass joins
  /// each branch child's envelope with its sibling's bottom-up table.
  kBranchChildren,
  /// Nothing is evicted: 3-colouring witness extraction re-reads every table.
  kAll,
};

namespace internal {

/// Inserts a zero bit at position p: bits >= p move up by one (a bag gained
/// the element at position p).
inline uint64_t OpenBit(uint64_t mask, int p) {
  uint64_t low = (uint64_t{1} << p) - 1;
  return (mask & low) | ((mask & ~low) << 1);
}

/// Removes bit p: bits > p move down by one (a bag lost position p).
inline uint64_t DropBit(uint64_t mask, int p) {
  uint64_t low = (uint64_t{1} << p) - 1;
  return (mask & low) | ((mask >> 1) & ~low);
}

/// Word hash of the packed records (multiply-xorshift per word).
inline size_t HashWords(const uint64_t* words, size_t n) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ words[i]) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  return h;
}

/// Buffers a walk reuses across its branch joins (ForEachJoinPair). One per
/// chunk of a walk, so concurrent shards never share one.
struct JoinScratch {
  /// next[i]: the right entry after entry i in its key's chain.
  std::vector<uint32_t> next;
};

/// The branch-node pairing (header comment): calls pair(a, va, b, vb) for
/// every entry (a, va) of `left` and (b, vb) of `right` with
/// key_of(a) == key_of(b) — left-major, each left entry's partners in
/// right-insertion order. A key of type State is the state itself, so each
/// left state has at most one partner, found by probing `right`; any other
/// key indexes `right` into one insertion-ordered chain per key, in a chain
/// table sized to |right| and `scratch`'s links.
template <typename State, typename Value, typename KeyOf, typename Pair>
void ForEachJoinPair(const FlatTable<State, Value>& left,
                     const FlatTable<State, Value>& right, KeyOf&& key_of,
                     Pair&& pair, JoinScratch* scratch) {
  if (left.empty() || right.empty()) return;
  using Key = std::decay_t<std::invoke_result_t<KeyOf&, const State&>>;
  if constexpr (std::is_same_v<Key, State>) {
    for (const auto& [state, value] : left) {
      const Value* match = right.Find(state);
      if (match != nullptr) pair(state, value, state, *match);
    }
  } else {
    // Chain per key: first/last entry; next[] links the rest in order.
    struct Chain {
      uint32_t first;
      uint32_t last;
    };
    std::vector<uint32_t>& next = scratch->next;
    next.resize(right.size());
    FlatTable<Key, Chain> chains;
    chains.Reserve(right.size());
    for (uint32_t i = 0; i < right.size(); ++i) {
      chains.Emplace(key_of(right.EntryAt(i).first), Chain{i, i},
                     [&](const Chain& chain, const Chain& added) {
                       next[chain.last] = added.first;
                       return Chain{chain.first, added.last};
                     });
    }
    for (const auto& [state, value] : left) {
      const Chain* chain = chains.Find(key_of(state));
      if (chain == nullptr) continue;
      for (uint32_t i = chain->first;; i = next[i]) {
        const auto& [partner, partner_value] = right.EntryAt(i);
        pair(state, value, partner, partner_value);
        if (i == chain->last) break;
      }
    }
  }
}

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

/// Per-node bookkeeping of every walk (RunDp and the §5.3 top-down pass):
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

template <typename Problem>
using TableOf = StateTable<typename Problem::State, typename Problem::Value>;

/// One step of `kind` from its input tables into `out` — the single source
/// of the transition semantics. `ctx` is the step's Problem::Context record;
/// `first` is the input of an introduce, forget or copy step and the left
/// input of a branch, `second` the right one; a leaf reads neither. RunDp
/// steps each node from its children's tables, the §5.3 top-down pass each
/// inverted node from its parent's.
///
/// `out` is sized once, before the first emit, from what bounds the step:
/// |input| at a forget or copy, |input| × IntroduceFanOut at an introduce,
/// the smaller input at a branch (a state pairs with at most one partner
/// under an identity key), LeafStates at a leaf. A step that emits more
/// grows the table by doubling; one that emits nothing keeps no storage, so
/// only non-empty tables count as evicted.
template <typename Problem, typename Ctx>
void ApplyStep(const Problem& problem, NormNodeKind kind, const Ctx& ctx,
               const TableOf<Problem>* first, const TableOf<Problem>* second,
               TableOf<Problem>* out, JoinScratch* scratch) {
  using State = typename Problem::State;
  using Value = typename Problem::Value;
  auto emit = [&](const State& state, Value value) {
    out->Emplace(state, std::move(value),
                 [&](const Value& existing, const Value& incoming) {
                   return problem.Merge(existing, incoming);
                 });
  };
  switch (kind) {
    case NormNodeKind::kLeaf:
      out->Reserve(problem.LeafStates(ctx));
      problem.Leaf(ctx, emit);
      break;
    case NormNodeKind::kIntroduce:
      out->Reserve(first->size() * problem.IntroduceFanOut(ctx));
      for (const auto& [state, value] : *first) {
        problem.Introduce(ctx, state, value, emit);
      }
      break;
    case NormNodeKind::kForget:
      out->Reserve(first->size());
      for (const auto& [state, value] : *first) {
        problem.Forget(ctx, state, value, emit);
      }
      break;
    case NormNodeKind::kCopy:
      out->Reserve(first->size());
      for (const auto& [state, value] : *first) emit(state, value);
      break;
    case NormNodeKind::kBranch:
      out->Reserve(std::min(first->size(), second->size()));
      ForEachJoinPair(
          *first, *second,
          [&](const State& s) -> decltype(auto) { return problem.KeyOf(s); },
          [&](const State& a, const Value& va, const State& b,
              const Value& vb) { problem.Join(ctx, a, va, b, vb, emit); },
          scratch);
      break;
  }
  if (out->empty()) out->Release();
}

/// Eviction step: after node `id` was processed, its children's tables have
/// been consumed for the last time — release those `retention` does not
/// keep. Exactly-once by construction (every node has one parent); the root
/// is never anyone's child, so the root table always survives the run.
template <typename State, typename Value>
void EvictChildTables(const NormalizedTreeDecomposition& ntd, TdNodeId id,
                      TableRetention retention, DpTable<State, Value>* table,
                      TableMemoryTracker* memory) {
  const NormNode& node = ntd.node(id);
  if (retention == TableRetention::kAll ||
      (retention == TableRetention::kBranchChildren &&
       node.kind == NormNodeKind::kBranch)) {
    return;
  }
  for (TdNodeId child : node.children) {
    ReleaseTable(&table->nodes[static_cast<size_t>(child)], memory);
  }
}

/// One node step: transition + stats + memory accounting + child eviction
/// under `retention` — what RunDp runs per node, from the node's children's
/// completed tables.
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
                TableMemoryTracker* memory, TableRetention retention,
                DpStats* stats, WorkBudget* budget, JoinScratch* scratch) {
  if (budget != nullptr && !budget->ConsumeUnit()) return;
  const NormNode& node = ntd.node(id);
  auto child = [&](size_t i) -> const TableOf<Problem>* {
    if (i >= node.children.size()) return nullptr;
    return &table->nodes[static_cast<size_t>(node.children[i])];
  };
  TableOf<Problem>* out = &table->nodes[static_cast<size_t>(id)];
  ApplyStep(problem, node.kind, problem.Context(node), child(0), child(1), out,
            scratch);
  RecordTable(*out, memory, budget, stats);
  EvictChildTables(ntd, id, retention, table, memory);
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
/// Dead tables are evicted as the walk goes, except those `retention` keeps;
/// the root table always survives.
/// After an exec.budget abort the table is partial: the caller surfaces
/// budget->AbortStatus() instead of reading it.
template <typename Problem>
DpTable<typename Problem::State, typename Problem::Value> RunDp(
    const NormalizedTreeDecomposition& ntd, const Problem& problem,
    const DpExec& exec, DpStats* stats, TableRetention retention) {
  DpTable<typename Problem::State, typename Problem::Value> table;
  table.nodes.resize(ntd.NumNodes());
  internal::TableMemoryTracker memory;
  internal::WalkChunks(
      ntd, exec,
      [&](const std::vector<TdNodeId>& nodes, DpStats* local) {
        internal::JoinScratch scratch;
        for (TdNodeId id : nodes) {
          internal::DpStepNode(ntd, id, problem, &table, &memory, retention,
                               local, exec.budget, &scratch);
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
