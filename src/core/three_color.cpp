#include "core/three_color.hpp"

#include "core/graph_dp_internal.hpp"

namespace treedl::core {

namespace {

using internal::ColorProblem;
using internal::ColorState;

// Reconstructs one proper coloring by walking the table top-down from an
// accepting root state, re-deriving a consistent predecessor at each node.
std::vector<int> ExtractColoring(const Graph& graph,
                                 const NormalizedTreeDecomposition& ntd,
                                 const DpTable<ColorState, std::monostate>& table,
                                 const ColorState& root_state) {
  std::vector<int> colors(graph.NumVertices(), -1);
  // chosen[node] = the state selected for that node.
  std::vector<ColorState> chosen(ntd.NumNodes());
  std::vector<bool> has_chosen(ntd.NumNodes(), false);
  chosen[static_cast<size_t>(ntd.root())] = root_state;
  has_chosen[static_cast<size_t>(ntd.root())] = true;

  for (TdNodeId id : ntd.PreOrder()) {
    TREEDL_CHECK(has_chosen[static_cast<size_t>(id)]);
    const NormNode& node = ntd.node(id);
    const ColorState& state = chosen[static_cast<size_t>(id)];
    for (size_t i = 0; i < node.bag.size(); ++i) {
      colors[node.bag[i]] = state.Colour(static_cast<int>(i));
    }
    auto set_child = [&](TdNodeId child, ColorState s) {
      chosen[static_cast<size_t>(child)] = std::move(s);
      has_chosen[static_cast<size_t>(child)] = true;
    };
    switch (node.kind) {
      case NormNodeKind::kLeaf:
        break;
      case NormNodeKind::kCopy:
      case NormNodeKind::kBranch:
        for (TdNodeId c : node.children) set_child(c, state);
        break;
      case NormNodeKind::kIntroduce: {
        int pos = static_cast<int>(PositionInBag(node.bag, node.element));
        ColorState child_state = state.Drop(pos);
        TREEDL_CHECK(table.at(node.children[0]).count(child_state) > 0)
            << "introduce predecessor missing";
        set_child(node.children[0], child_state);
        break;
      }
      case NormNodeKind::kForget: {
        int pos = static_cast<int>(PositionInBag(node.bag, node.element));
        bool found = false;
        for (int c = 0; c < 3 && !found; ++c) {
          ColorState child_state = state.Open(pos, c);
          if (table.at(node.children[0]).count(child_state)) {
            set_child(node.children[0], child_state);
            found = true;
          }
        }
        TREEDL_CHECK(found) << "forget predecessor missing";
        break;
      }
    }
  }
  return colors;
}

}  // namespace

StatusOr<ThreeColorResult> DecideThreeColor(
    const Graph& graph, const NormalizedTreeDecomposition& ntd,
    const DpExec& exec, DpStats* stats, bool extract_coloring) {
  // Only the witness walk needs interior tables after the traversal; a pure
  // decision reads the root alone and its tables are evicted.
  auto table = RunDp(
      ntd, ColorProblem<false>(graph), exec, stats,
      extract_coloring ? TableRetention::kAll : TableRetention::kNone);
  // An aborted budget leaves partial tables — the witness walk's predecessor
  // checks would fire on them, so surface the abort before reading them.
  if (exec.budget != nullptr && exec.budget->Aborted()) {
    return exec.budget->AbortStatus();
  }
  ThreeColorResult result;
  const auto& root_states = table.at(ntd.root());
  result.colorable = !root_states.empty();
  if (result.colorable && extract_coloring) {
    result.coloring =
        ExtractColoring(graph, ntd, table, root_states.begin()->first);
  }
  return result;
}

StatusOr<uint64_t> CountThreeColorings(const Graph& graph,
                                       const NormalizedTreeDecomposition& ntd,
                                       const DpExec& exec, DpStats* stats) {
  auto table = RunDp(ntd, ColorProblem<true>(graph), exec, stats,
                     TableRetention::kNone);
  if (exec.budget != nullptr && exec.budget->Aborted()) {
    return exec.budget->AbortStatus();
  }
  // Interior saturation alone is no error: it may sit under states that die
  // before the root (then the answer is exact, possibly 0).
  uint64_t total = 0;
  for (const auto& [state, count] : table.at(ntd.root())) {
    total = internal::SaturatingAdd(total, count);
  }
  if (total == internal::kSaturated) {
    return Status::OutOfRange("3-coloring count does not fit in 64 bits");
  }
  return total;
}

StatusOr<ThreeColorResult> SolveThreeColorNormalized(
    const Graph& graph, const NormalizedTreeDecomposition& ntd,
    bool extract_coloring, const DpExec& exec) {
  DpStats stats;
  TREEDL_ASSIGN_OR_RETURN(
      ThreeColorResult result,
      DecideThreeColor(graph, ntd, exec, &stats, extract_coloring));
  result.stats = std::move(stats);
  return result;
}

}  // namespace treedl::core
