#include <algorithm>

#include "common/byte_vec.hpp"
#include "core/extensions.hpp"

namespace treedl::core {

namespace {

// Membership flags aligned with the node's sorted bag; the value is the
// number of cover/independent vertices committed in the subtree. Covers both
// vertex cover (minimize) and independent set (maximize) — the transitions
// differ only in the local feasibility predicate and the optimization sense.
struct SubsetState {
  ByteVec in_set;

  bool operator==(const SubsetState&) const = default;
  size_t hash() const { return in_set.hash(); }
};

template <bool kCover>  // true: vertex cover (min), false: independent (max)
class SubsetProblem {
 public:
  using State = SubsetState;
  using Value = size_t;
  using Emit = std::function<void(State, Value)>;

  explicit SubsetProblem(const Graph& graph) : graph_(graph) {}

  // Vertex cover: every bag-internal edge needs a covered endpoint.
  // Independent set: no bag-internal edge inside the set.
  bool Feasible(const std::vector<ElementId>& bag, const State& s) const {
    for (size_t i = 0; i < bag.size(); ++i) {
      for (size_t j = i + 1; j < bag.size(); ++j) {
        if (!graph_.HasEdge(bag[i], bag[j])) continue;
        if constexpr (kCover) {
          if (!s.in_set[i] && !s.in_set[j]) return false;
        } else {
          if (s.in_set[i] && s.in_set[j]) return false;
        }
      }
    }
    return true;
  }

  void Leaf(const std::vector<ElementId>& bag, const Emit& emit) const {
    size_t n = bag.size();
    TREEDL_DCHECK(n < 64);
    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
      State s;
      s.in_set.resize(n);
      size_t size = 0;
      for (size_t i = 0; i < n; ++i) {
        s.in_set[i] = (mask >> i) & 1;
        size += s.in_set[i];
      }
      if (Feasible(bag, s)) emit(std::move(s), size);
    }
  }

  void Introduce(const std::vector<ElementId>& bag, ElementId v,
                 const State& child, const Value& value,
                 const Emit& emit) const {
    size_t pos = PositionInBag(bag, v);
    for (uint8_t chosen : {uint8_t{0}, uint8_t{1}}) {
      State s = child;
      s.in_set.insert(s.in_set.begin() + static_cast<long>(pos), chosen);
      if (Feasible(bag, s)) emit(std::move(s), value + chosen);
    }
  }

  void Forget(const std::vector<ElementId>& bag, ElementId v,
              const State& child, const Value& value, const Emit& emit) const {
    size_t pos = PositionInBag(bag, v);
    State s = child;
    s.in_set.erase(s.in_set.begin() + static_cast<long>(pos));
    emit(std::move(s), value);
  }

  const State& KeyOf(const State& s) const { return s; }

  void Join(const std::vector<ElementId>& /*bag*/, const State& a,
            const Value& va, const State& b, const Value& vb,
            const Emit& emit) const {
    // Bag members are counted in both children; subtract one copy.
    size_t shared = 0;
    for (uint8_t f : a.in_set) shared += f;
    emit(a, va + vb - shared);
    (void)b;
  }

  Value Merge(const Value& a, const Value& b) const {
    return kCover ? std::min(a, b) : std::max(a, b);
  }

 private:
  const Graph& graph_;
};

}  // namespace

StatusOr<size_t> MinVertexCover(const Graph& graph,
                                const NormalizedTreeDecomposition& ntd,
                                const DpExec& exec, DpStats* stats) {
  auto table = RunDp(ntd, SubsetProblem<true>(graph), exec, stats,
                     /*retain_tables=*/false);
  if (exec.budget != nullptr && exec.budget->Aborted()) {
    return exec.budget->AbortStatus();
  }
  size_t best = graph.NumVertices();
  for (const auto& [state, value] : table.at(ntd.root())) {
    best = std::min(best, value);
  }
  return best;
}

StatusOr<size_t> MaxIndependentSet(const Graph& graph,
                                   const NormalizedTreeDecomposition& ntd,
                                   const DpExec& exec, DpStats* stats) {
  auto table = RunDp(ntd, SubsetProblem<false>(graph), exec, stats,
                     /*retain_tables=*/false);
  if (exec.budget != nullptr && exec.budget->Aborted()) {
    return exec.budget->AbortStatus();
  }
  size_t best = 0;
  for (const auto& [state, value] : table.at(ntd.root())) {
    best = std::max(best, value);
  }
  return best;
}

}  // namespace treedl::core
