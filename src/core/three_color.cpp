#include "core/three_color.hpp"

#include <limits>

#include "common/byte_vec.hpp"

namespace treedl::core {

namespace {

// Bag coloring aligned with the node's sorted bag. ByteVec keeps the bytes
// inline for ordinary widths and relocates any spill into the state table's
// arena — no per-state heap allocation survives an insert.
struct ColorState {
  ByteVec colors;

  bool operator==(const ColorState&) const = default;
  size_t hash() const { return colors.hash(); }
};

// Saturation point of the counting semiring. Every value is >= 1 (leaves
// seed 1), so a saturated value stays saturated through any later add or
// multiply, and an unsaturated value is exact.
constexpr uint64_t kSaturated = std::numeric_limits<uint64_t>::max();

uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  uint64_t sum;
  return __builtin_add_overflow(a, b, &sum) ? kSaturated : sum;
}

uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  uint64_t product;
  return __builtin_mul_overflow(a, b, &product) ? kSaturated : product;
}

// Shared transition logic, parameterized over the value semiring:
//   decision: Value = monostate, Merge = first;
//   counting: Value = uint64_t, Leaf seeds 1, Merge adds, Join multiplies
//   (both saturating at kSaturated).
template <bool kCounting>
class ColorProblem {
 public:
  using State = ColorState;
  using Value = std::conditional_t<kCounting, uint64_t, std::monostate>;
  using Emit = std::function<void(State, Value)>;

  explicit ColorProblem(const Graph& graph) : graph_(graph) {}

  void Leaf(const std::vector<ElementId>& bag, const Emit& emit) const {
    State state;
    state.colors.assign(bag.size(), 0);
    while (true) {
      if (ProperOnBag(bag, state)) emit(state, One());
      size_t pos = 0;
      while (pos < bag.size() && ++state.colors[pos] == 3) {
        state.colors[pos] = 0;
        ++pos;
      }
      if (pos == bag.size()) break;
    }
  }

  void Introduce(const std::vector<ElementId>& bag, ElementId v,
                 const State& child, const Value& value,
                 const Emit& emit) const {
    size_t pos = PositionInBag(bag, v);
    for (uint8_t c = 0; c < 3; ++c) {
      // allowed(s, ·): the new vertex must not clash with its bag neighbors.
      bool ok = true;
      for (size_t i = 0; i < bag.size() && ok; ++i) {
        if (bag[i] == v) continue;
        uint8_t other = child.colors[i < pos ? i : i - 1];
        if (other == c && graph_.HasEdge(v, bag[i])) ok = false;
      }
      if (!ok) continue;
      State state = child;
      state.colors.insert(state.colors.begin() + static_cast<long>(pos), c);
      emit(std::move(state), value);
    }
  }

  void Forget(const std::vector<ElementId>& bag, ElementId v,
              const State& child, const Value& value, const Emit& emit) const {
    // The child bag is this bag plus v.
    size_t pos = PositionInBag(bag, v);
    State state = child;
    state.colors.erase(state.colors.begin() + static_cast<long>(pos));
    emit(std::move(state), value);
  }

  const State& KeyOf(const State& state) const { return state; }

  void Join(const std::vector<ElementId>& /*bag*/, const State& a,
            const Value& va, const State& b, const Value& vb,
            const Emit& emit) const {
    TREEDL_DCHECK(a == b);
    (void)b;
    if constexpr (kCounting) {
      emit(a, SaturatingMul(va, vb));
    } else {
      (void)vb;
      emit(a, va);
    }
  }

  Value Merge(const Value& a, const Value& b) const {
    if constexpr (kCounting) {
      return SaturatingAdd(a, b);
    } else {
      (void)b;
      return a;
    }
  }

 private:
  static Value One() {
    if constexpr (kCounting) {
      return 1;
    } else {
      return {};
    }
  }

  bool ProperOnBag(const std::vector<ElementId>& bag, const State& s) const {
    for (size_t i = 0; i < bag.size(); ++i) {
      for (size_t j = i + 1; j < bag.size(); ++j) {
        if (s.colors[i] == s.colors[j] && graph_.HasEdge(bag[i], bag[j])) {
          return false;
        }
      }
    }
    return true;
  }

  const Graph& graph_;
};

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
      colors[node.bag[i]] = state.colors[i];
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
        size_t pos = PositionInBag(node.bag, node.element);
        ColorState child_state = state;
        child_state.colors.erase(child_state.colors.begin() +
                                 static_cast<long>(pos));
        TREEDL_CHECK(
            table.at(node.children[0]).count(child_state) > 0)
            << "introduce predecessor missing";
        set_child(node.children[0], std::move(child_state));
        break;
      }
      case NormNodeKind::kForget: {
        size_t pos = PositionInBag(node.bag, node.element);
        bool found = false;
        for (uint8_t c = 0; c < 3 && !found; ++c) {
          ColorState child_state = state;
          child_state.colors.insert(
              child_state.colors.begin() + static_cast<long>(pos), c);
          if (table.at(node.children[0]).count(child_state)) {
            set_child(node.children[0], std::move(child_state));
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
  // decision reads the root alone and its tables may be evicted.
  auto table = RunDp(ntd, ColorProblem<false>(graph), exec, stats,
                     /*retain_tables=*/extract_coloring);
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
                     /*retain_tables=*/false);
  if (exec.budget != nullptr && exec.budget->Aborted()) {
    return exec.budget->AbortStatus();
  }
  // Interior saturation alone is no error: it may sit under states that die
  // before the root (then the answer is exact, possibly 0).
  uint64_t total = 0;
  for (const auto& [state, count] : table.at(ntd.root())) {
    total = SaturatingAdd(total, count);
  }
  if (total == kSaturated) {
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
