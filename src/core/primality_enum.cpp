// The PRIMALITY enumeration algorithm of §5.3: *all* prime attributes in
// linear time via one bottom-up pass (solve, a core::RunDp walk of
// PrimalityProblem) and one top-down pass (solve↓, on the inverted walk),
// reading prime(a) off at the leaves. The naive alternative — one §5.2
// decision per attribute with the decomposition re-rooted each time, i.e.
// Engine::IsPrime per attribute on a session that never ran AllPrimes — is
// quadratic, the baseline the section argues against.
#include <atomic>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "core/primality_internal.hpp"
#include "core/tree_dp.hpp"

namespace treedl::core {

namespace {

using internal::PrimalityProblem;
using internal::PrimTable;
using internal::TableMemoryTracker;

/// Top-down pass over one parents-first chunk. Eviction: after node x is
/// processed, (a) up[sibling(x)] has seen its last read (x's branch join) —
/// siblings release each other's tables, possibly from concurrent shards,
/// each table by its unique reader; (b) once every child of x's parent is
/// processed (cross-shard atomic countdown), down[parent] is dead — leaves
/// have no children, so the leaf tables the prime read-off needs survive.
void TopDownChunk(const PrimalityProblem& problem,
                  const NormalizedTreeDecomposition& ntd,
                  const std::vector<TdNodeId>& nodes,
                  std::vector<PrimTable>* up, std::vector<PrimTable>* down,
                  TableMemoryTracker* memory, WorkBudget* budget,
                  std::vector<std::atomic<size_t>>* down_pending,
                  DpStats* stats) {
  internal::JoinScratch scratch;
  for (TdNodeId x : nodes) {
    if (budget != nullptr && !budget->ConsumeUnit()) continue;
    internal::TopDownStep(problem, ntd, x, *up, down, &scratch);
    internal::RecordTable((*down)[static_cast<size_t>(x)], memory, budget,
                          stats);
    if (x == ntd.root()) {
      // Nothing reads the root's bottom-up table after its pass completed.
      internal::ReleaseTable(&(*up)[static_cast<size_t>(x)], memory);
      continue;
    }
    TdNodeId parent_id = ntd.node(x).parent;
    const NormNode& parent = ntd.node(parent_id);
    if (parent.kind == NormNodeKind::kBranch) {
      TdNodeId sibling = parent.children[parent.children[0] == x ? 1 : 0];
      internal::ReleaseTable(&(*up)[static_cast<size_t>(sibling)], memory);
    }
    if ((*down_pending)[static_cast<size_t>(parent_id)].fetch_sub(
            1, std::memory_order_acq_rel) == 1) {
      internal::ReleaseTable(&(*down)[static_cast<size_t>(parent_id)], memory);
    }
  }
}

}  // namespace

namespace internal {

void TopDownStep(const PrimalityProblem& problem,
                 const NormalizedTreeDecomposition& ntd, TdNodeId x,
                 const std::vector<PrimTable>& up, std::vector<PrimTable>* down,
                 JoinScratch* scratch) {
  PrimTable* out = &(*down)[static_cast<size_t>(x)];
  const std::vector<ElementId>& bag = ntd.Bag(x);
  if (x == ntd.root()) {
    // Base: the envelope of the root is the root node alone — the leaf rule
    // applied to the root's bag.
    ApplyStep(problem, NormNodeKind::kLeaf,
              problem.Context(NormNodeKind::kLeaf, bag, 0), nullptr, nullptr,
              out, scratch);
    return;
  }
  TdNodeId parent_id = ntd.node(x).parent;
  const NormNode& parent = ntd.node(parent_id);
  TREEDL_CHECK(parent.kind != NormNodeKind::kLeaf) << "leaf with children";
  // The parent introduced e going up, so going down the envelope forgets it
  // (e's occurrences all lie inside the envelope of the child); it forgot e
  // going up, so going down the envelope introduces it fresh (e occurs only
  // below the child, so only at the child from the envelope's perspective).
  // A copy stays a copy. At a branch, T̄_child = T̄_parent ∪ T_sibling: the
  // parent's envelope states join the sibling's subtree states.
  NormNodeKind kind = parent.kind;
  if (kind == NormNodeKind::kIntroduce) {
    kind = NormNodeKind::kForget;
  } else if (kind == NormNodeKind::kForget) {
    kind = NormNodeKind::kIntroduce;
  }
  const PrimTable* sibling_up = nullptr;
  if (kind == NormNodeKind::kBranch) {
    TdNodeId sibling = parent.children[parent.children[0] == x ? 1 : 0];
    sibling_up = &up[static_cast<size_t>(sibling)];
  }
  ApplyStep(problem, kind, problem.Context(kind, bag, parent.element),
            &(*down)[static_cast<size_t>(parent_id)], sibling_up, out, scratch);
}

std::vector<bool> EnumeratePrimesPrepared(const PrimalityContext& context,
                                          const SchemaEncoding& encoding,
                                          int num_attributes,
                                          const NormalizedTreeDecomposition& ntd,
                                          RunStats* stats, const DpExec& exec) {
  DpStats dp;
  size_t num_nodes = ntd.NumNodes();
  const PrimalityProblem problem(context);

  // Pass 1: bottom-up solve() tables, children before their parent; branch
  // children survive eviction for the top-down sibling joins.
  std::vector<PrimTable> up =
      RunDp(ntd, problem, exec, &dp, TableRetention::kBranchChildren).nodes;
  std::vector<PrimTable> down(num_nodes);

  // Pass 2's accounting continues pass 1's: its tracker starts at the bytes
  // pass 1 left live (the root's and the branch children's tables), so the
  // peak, the eviction count and the table-bytes cap read as for one walk.
  TableMemoryTracker memory;
  for (const PrimTable& table : up) memory.Add(table.MemoryBytes());

  // Pass 2: top-down solve↓() tables on the inverted walk — parents before
  // their children (sharded: the root shard first, each shard's nodes in
  // reverse post order).
  std::vector<std::atomic<size_t>> down_pending(num_nodes);
  for (size_t id = 0; id < num_nodes; ++id) {
    down_pending[id].store(ntd.node(static_cast<TdNodeId>(id)).children.size(),
                           std::memory_order_relaxed);
  }
  WalkChunks(
      ntd, exec,
      [&](const std::vector<TdNodeId>& nodes, DpStats* local) {
        TopDownChunk(problem, ntd, nodes, &up, &down, &memory, exec.budget,
                     &down_pending, local);
      },
      &dp, WalkDirection::kTopDown);

  memory.FoldInto(&dp);
  ++dp.traversals;
  if (stats != nullptr) {
    // Both walks' shards count as enumeration shards, not Solve DP shards.
    stats->primality_shards += std::exchange(dp.shards, 0);
    FoldDpStats(dp, stats);
  }

  // prime(a) is read off at the leaves (every attribute occurs in some leaf
  // bag by the ensure_leaf_coverage normalization option). Note that solve↓
  // at a leaf characterizes the envelope of the leaf — the *entire*
  // structure — exactly like solve at the root of a re-rooted decomposition.
  // Leaf-only on purpose: the eviction protocol above released every
  // *interior* down table (leaves have no children, so the countdown never
  // fires for them) — the leaves are exactly the tables that survive the
  // walk.
  std::vector<bool> primes(static_cast<size_t>(num_attributes), false);
  for (TdNodeId id : ntd.PreOrder()) {
    if (ntd.node(id).kind != NormNodeKind::kLeaf) continue;
    const auto& bag = ntd.Bag(id);
    BagLayout layout = context.Layout(bag);
    for (size_t p = 0; p < bag.size(); ++p) {
      if (!context.IsAttr(bag[p])) continue;
      AttributeId a = encoding.AttrOf(bag[p]);
      if (primes[static_cast<size_t>(a)]) continue;
      for (const auto& [s, value] : down[static_cast<size_t>(id)]) {
        (void)value;
        if (Accepts(layout, s, static_cast<int>(p))) {
          primes[static_cast<size_t>(a)] = true;
          break;
        }
      }
    }
  }
  return primes;
}

}  // namespace internal

}  // namespace treedl::core
