#include "core/primality_enum.hpp"

#include <atomic>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/flat_table.hpp"
#include "common/logging.hpp"
#include "core/primality.hpp"
#include "core/primality_internal.hpp"
#include "core/tree_dp.hpp"
#include "engine/passes.hpp"
#include "engine/pipeline.hpp"

namespace treedl::core {

namespace {

using internal::PrimalityContext;
using internal::PrimJoinKey;
using internal::PrimState;
using internal::TableMemoryTracker;

// Deduplicating state set over the flat-table arena: Release()/MemoryBytes()
// back the same eviction protocol as the graph DPs, and insertion-order
// iteration is deterministic — though the enumeration's outputs (prime bits,
// set sizes) are order-independent anyway.
using StateSet = FlatTable<PrimState, std::monostate>;

void Insert(StateSet* set, PrimState s) {
  set->Emplace(std::move(s), std::monostate{},
               [](const std::monostate& existing, const std::monostate&) {
                 return existing;
               });
}

void ReleaseSet(StateSet* set, TableMemoryTracker* memory) {
  size_t bytes = set->MemoryBytes();
  if (bytes == 0) return;
  set->Release();
  memory->Evict(bytes);
}

/// Joins every key-compatible pair of `left` x `right` (bucketing the right
/// side) — the branch rule shared by both passes. Entry pointers stay valid
/// while the completed right table is alive.
void JoinInto(const PrimalityContext& context, const StateSet& left,
              const StateSet& right, const PrimalityContext::EmitState& emit) {
  std::unordered_map<PrimJoinKey, std::vector<const PrimState*>,
                     MemberHash<PrimJoinKey>>
      buckets;
  for (const auto& entry : right) {
    buckets[context.KeyOf(entry.first)].push_back(&entry.first);
  }
  for (const auto& [s, value] : left) {
    (void)value;
    auto it = buckets.find(context.KeyOf(s));
    if (it == buckets.end()) continue;
    for (const PrimState* r : it->second) context.Join(s, *r, emit);
  }
}

/// One node of the bottom-up solve() pass, as in primality.cpp but keeping
/// every node's table for the top-down pass.
void BottomUpStep(const PrimalityContext& context,
                  const NormalizedTreeDecomposition& ntd, TdNodeId id,
                  std::vector<StateSet>* table) {
  const NormNode& node = ntd.node(id);
  StateSet& states = (*table)[static_cast<size_t>(id)];
  auto emit = [&](PrimState s) { Insert(&states, std::move(s)); };
  switch (node.kind) {
    case NormNodeKind::kLeaf:
      context.LeafStates(node.bag, emit);
      break;
    case NormNodeKind::kIntroduce:
      for (const auto& [s, value] :
           (*table)[static_cast<size_t>(node.children[0])]) {
        (void)value;
        if (context.IsAttr(node.element)) {
          context.IntroduceAttr(node.bag, node.element, s, emit);
        } else {
          context.IntroduceFd(node.bag, node.element, s, emit);
        }
      }
      break;
    case NormNodeKind::kForget:
      for (const auto& [s, value] :
           (*table)[static_cast<size_t>(node.children[0])]) {
        (void)value;
        if (context.IsAttr(node.element)) {
          context.ForgetAttr(node.bag, node.element, s, emit);
        } else {
          context.ForgetFd(node.bag, node.element, s, emit);
        }
      }
      break;
    case NormNodeKind::kCopy:
      for (const auto& [s, value] :
           (*table)[static_cast<size_t>(node.children[0])]) {
        (void)value;
        emit(s);
      }
      break;
    case NormNodeKind::kBranch:
      JoinInto(context, (*table)[static_cast<size_t>(node.children[0])],
               (*table)[static_cast<size_t>(node.children[1])], emit);
      break;
  }
}

/// One node of the top-down solve↓() pass (§5.3): the state set of a node
/// characterizes the *envelope* T̄_s. Formulated per node — "compute my own
/// table from my parent's" — so a parents-first chunk of nodes is a valid
/// schedule for both the sequential walk and the inverted shard schedule.
/// Transitions invert the parent's kind; at a branch the sibling's bottom-up
/// table joins in.
void TopDownStep(const PrimalityContext& context,
                 const NormalizedTreeDecomposition& ntd, TdNodeId x,
                 const std::vector<StateSet>& up, std::vector<StateSet>* down) {
  StateSet& states = (*down)[static_cast<size_t>(x)];
  auto emit = [&](PrimState s) { Insert(&states, std::move(s)); };
  if (x == ntd.root()) {
    // Base: the envelope of the root is the root node alone — the leaf rule
    // applied to the root's bag.
    context.LeafStates(ntd.Bag(x), emit);
    return;
  }
  TdNodeId parent_id = ntd.node(x).parent;
  const NormNode& parent = ntd.node(parent_id);
  const StateSet& parent_down = (*down)[static_cast<size_t>(parent_id)];
  switch (parent.kind) {
    case NormNodeKind::kLeaf:
      TREEDL_CHECK(false) << "leaf with children";
      break;
    case NormNodeKind::kCopy:
      for (const auto& [s, value] : parent_down) {
        (void)value;
        emit(s);
      }
      break;
    case NormNodeKind::kIntroduce:
      // Parent introduced e going up; going down the envelope forgets it —
      // e's occurrences all lie inside the envelope of the child.
      for (const auto& [s, value] : parent_down) {
        (void)value;
        if (context.IsAttr(parent.element)) {
          context.ForgetAttr(ntd.Bag(x), parent.element, s, emit);
        } else {
          context.ForgetFd(ntd.Bag(x), parent.element, s, emit);
        }
      }
      break;
    case NormNodeKind::kForget:
      // Parent forgot e going up; going down the envelope introduces it
      // fresh (e occurs only below the child, so only at the child from the
      // envelope's perspective).
      for (const auto& [s, value] : parent_down) {
        (void)value;
        if (context.IsAttr(parent.element)) {
          context.IntroduceAttr(ntd.Bag(x), parent.element, s, emit);
        } else {
          context.IntroduceFd(ntd.Bag(x), parent.element, s, emit);
        }
      }
      break;
    case NormNodeKind::kBranch: {
      // T̄_child = T̄_parent ∪ T_sibling: join the parent's envelope states
      // with the sibling's subtree states.
      TdNodeId sibling = parent.children[parent.children[0] == x ? 1 : 0];
      JoinInto(context, parent_down, up[static_cast<size_t>(sibling)], emit);
      break;
    }
  }
}

void CountStates(const StateSet& states, DpStats* stats) {
  if (stats == nullptr) return;
  stats->total_states += states.size();
  stats->max_states_per_node =
      std::max(stats->max_states_per_node, states.size());
}

/// Bottom-up pass over one parents-last chunk (the full post order, or one
/// shard's node list). Eviction: a non-branch node is its child's only
/// reader — branch children must survive for the top-down sibling joins.
/// A tripped budget skips the per-node work but keeps walking the chunk, so
/// the shard scheduling epilogue (and the caller's abort check) still run.
void BottomUpChunk(const PrimalityContext& context,
                   const NormalizedTreeDecomposition& ntd,
                   const std::vector<TdNodeId>& nodes,
                   std::vector<StateSet>* up, TableMemoryTracker* memory,
                   bool evict, WorkBudget* budget, DpStats* stats) {
  for (TdNodeId id : nodes) {
    if (budget != nullptr && !budget->ConsumeUnit()) continue;
    BottomUpStep(context, ntd, id, up);
    CountStates((*up)[static_cast<size_t>(id)], stats);
    memory->Add((*up)[static_cast<size_t>(id)].MemoryBytes());
    if (budget != nullptr) {
      budget->CheckTableBytes(memory->current.load(std::memory_order_relaxed));
    }
    if (evict) {
      const NormNode& node = ntd.node(id);
      if (node.kind != NormNodeKind::kBranch) {
        for (TdNodeId child : node.children) {
          ReleaseSet(&(*up)[static_cast<size_t>(child)], memory);
        }
      }
    }
  }
}

/// Top-down pass over one parents-first chunk. Eviction: after node x is
/// processed, (a) up[sibling(x)] has seen its last read (x's branch join) —
/// siblings release each other's tables, possibly from concurrent shards,
/// each table by its unique reader; (b) once every child of x's parent is
/// processed (cross-shard atomic countdown), down[parent] is dead — leaves
/// have no children, so the leaf tables the prime read-off needs survive.
void TopDownChunk(const PrimalityContext& context,
                  const NormalizedTreeDecomposition& ntd,
                  const std::vector<TdNodeId>& nodes,
                  std::vector<StateSet>* up, std::vector<StateSet>* down,
                  TableMemoryTracker* memory, bool evict, WorkBudget* budget,
                  std::vector<std::atomic<size_t>>* down_pending,
                  DpStats* stats) {
  for (TdNodeId x : nodes) {
    if (budget != nullptr && !budget->ConsumeUnit()) continue;
    TopDownStep(context, ntd, x, *up, down);
    CountStates((*down)[static_cast<size_t>(x)], stats);
    memory->Add((*down)[static_cast<size_t>(x)].MemoryBytes());
    if (budget != nullptr) {
      budget->CheckTableBytes(memory->current.load(std::memory_order_relaxed));
    }
    if (!evict) continue;
    if (x == ntd.root()) {
      // Nothing reads the root's bottom-up table after its pass completed.
      ReleaseSet(&(*up)[static_cast<size_t>(x)], memory);
      continue;
    }
    TdNodeId parent_id = ntd.node(x).parent;
    const NormNode& parent = ntd.node(parent_id);
    if (parent.kind == NormNodeKind::kBranch) {
      TdNodeId sibling = parent.children[parent.children[0] == x ? 1 : 0];
      ReleaseSet(&(*up)[static_cast<size_t>(sibling)], memory);
    }
    if ((*down_pending)[static_cast<size_t>(parent_id)].fetch_sub(
            1, std::memory_order_acq_rel) == 1) {
      ReleaseSet(&(*down)[static_cast<size_t>(parent_id)], memory);
    }
  }
}

}  // namespace

namespace internal {

std::vector<bool> EnumeratePrimesPrepared(const PrimalityContext& context,
                                          const SchemaEncoding& encoding,
                                          int num_attributes,
                                          const NormalizedTreeDecomposition& ntd,
                                          RunStats* stats, const DpExec& exec) {
  DpStats dp;
  size_t num_nodes = ntd.NumNodes();
  std::vector<StateSet> up(num_nodes);
  std::vector<StateSet> down(num_nodes);
  TableMemoryTracker memory;
  const bool evict = exec.table_memory_budget > 0;

  // Pass 1: bottom-up solve() tables, children before their parent.
  WalkChunks(
      ntd, exec,
      [&](const std::vector<TdNodeId>& nodes, DpStats* local) {
        BottomUpChunk(context, ntd, nodes, &up, &memory, evict, exec.budget,
                      local);
      },
      &dp, WalkDirection::kBottomUp);

  // Pass 2: top-down solve↓() tables on the inverted walk — parents before
  // their children (sharded: the root shard first, each shard's nodes in
  // reverse post order).
  std::vector<std::atomic<size_t>> down_pending(num_nodes);
  if (evict) {
    for (size_t id = 0; id < num_nodes; ++id) {
      down_pending[id].store(ntd.node(static_cast<TdNodeId>(id)).children.size(),
                             std::memory_order_relaxed);
    }
  }
  WalkChunks(
      ntd, exec,
      [&](const std::vector<TdNodeId>& nodes, DpStats* local) {
        TopDownChunk(context, ntd, nodes, &up, &down, &memory, evict,
                     exec.budget, &down_pending, local);
      },
      &dp, WalkDirection::kTopDown);

  memory.FoldInto(&dp);
  if (stats != nullptr) {
    // Both walks' shards count as enumeration shards, not Solve DP shards.
    dp.traversals = 2;
    stats->primality_shards += std::exchange(dp.shards, 0);
    FoldDpStats(dp, stats);
  }

  // prime(a) is read off at the leaves (every attribute occurs in some leaf
  // bag by the ensure_leaf_coverage normalization option). Note that solve↓
  // at a leaf characterizes the envelope of the leaf — the *entire*
  // structure — exactly like solve at the root of a re-rooted decomposition.
  // Leaf-only on purpose: under a table_memory_budget the eviction protocol
  // above released every *interior* down table (leaves have no children, so
  // the countdown never fires for them) — the leaves are exactly the tables
  // guaranteed to survive the walk.
  std::vector<bool> primes(static_cast<size_t>(num_attributes), false);
  for (TdNodeId id : ntd.PreOrder()) {
    if (ntd.node(id).kind != NormNodeKind::kLeaf) continue;
    const auto& bag = ntd.Bag(id);
    for (ElementId e : bag) {
      if (!context.IsAttr(e)) continue;
      AttributeId a = encoding.AttrOf(e);
      if (primes[static_cast<size_t>(a)]) continue;
      for (const auto& [s, value] : down[static_cast<size_t>(id)]) {
        (void)value;
        if (context.Accepts(bag, s, e)) {
          primes[static_cast<size_t>(a)] = true;
          break;
        }
      }
    }
  }
  return primes;
}

}  // namespace internal

StatusOr<std::vector<bool>> EnumeratePrimes(const Schema& schema,
                                            const SchemaEncoding& encoding,
                                            const TreeDecomposition& td,
                                            RunStats* stats) {
  if (stats != nullptr) *stats = RunStats{};
  PrimalityContext context(schema, encoding);
  engine::PipelineState state;
  state.structure = &encoding.structure;
  state.td = td;
  state.normalize_options =
      internal::PrimalityNormalizeOptions(encoding, /*for_enumeration=*/true);
  engine::PassPipeline pipeline;
  pipeline.Emplace<engine::ValidateStructurePass>()
      .Emplace<engine::RhsClosurePass>(&encoding, &context)
      .Emplace<engine::NormalizePass>();
  TREEDL_RETURN_IF_ERROR(pipeline.Run(state, stats));
  if (stats != nullptr) ++stats->normalize_builds;

  return internal::EnumeratePrimesPrepared(
      context, encoding, schema.NumAttributes(), *state.normalized, stats);
}

StatusOr<std::vector<bool>> EnumeratePrimesQuadratic(
    const Schema& schema, const SchemaEncoding& encoding,
    const TreeDecomposition& td) {
  std::vector<bool> primes(static_cast<size_t>(schema.NumAttributes()), false);
  for (AttributeId a = 0; a < schema.NumAttributes(); ++a) {
    TREEDL_ASSIGN_OR_RETURN(bool prime,
                            IsPrimeViaTd(schema, encoding, td, a));
    primes[static_cast<size_t>(a)] = prime;
  }
  return primes;
}

}  // namespace treedl::core
