#include <algorithm>

#include "common/byte_vec.hpp"
#include "core/extensions.hpp"

namespace treedl::core {

namespace {

// Per bag vertex: in the dominating set, already dominated, or still waiting.
enum : uint8_t { kInSet = 0, kDominated = 1, kWaiting = 2 };

struct DomState {
  ByteVec status;

  bool operator==(const DomState&) const = default;
  size_t hash() const { return status.hash(); }
};

// Join key: the in-set pattern (domination flags may differ between sides).
struct DomKey {
  ByteVec in_set;

  bool operator==(const DomKey&) const = default;
  size_t hash() const { return in_set.hash(); }
};

class DominatingProblem {
 public:
  using State = DomState;
  using Value = size_t;
  using Emit = std::function<void(State, Value)>;

  explicit DominatingProblem(const Graph& graph) : graph_(graph) {}

  void Leaf(const std::vector<ElementId>& bag, const Emit& emit) const {
    size_t n = bag.size();
    TREEDL_DCHECK(n < 64);
    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
      State s;
      s.status.resize(n);
      size_t size = 0;
      for (size_t i = 0; i < n; ++i) {
        if ((mask >> i) & 1) {
          s.status[i] = kInSet;
          ++size;
        } else {
          s.status[i] = kWaiting;
        }
      }
      // Bag-internal domination.
      for (size_t i = 0; i < n; ++i) {
        if (s.status[i] != kWaiting) continue;
        for (size_t j = 0; j < n; ++j) {
          if (s.status[j] == kInSet && graph_.HasEdge(bag[i], bag[j])) {
            s.status[i] = kDominated;
            break;
          }
        }
      }
      emit(std::move(s), size);
    }
  }

  void Introduce(const std::vector<ElementId>& bag, ElementId v,
                 const State& child, const Value& value,
                 const Emit& emit) const {
    size_t pos = PositionInBag(bag, v);
    // Choice 1: v joins the dominating set — it may dominate waiting bag
    // neighbors.
    {
      State s = child;
      s.status.insert(s.status.begin() + static_cast<long>(pos), kInSet);
      for (size_t i = 0; i < bag.size(); ++i) {
        if (s.status[i] == kWaiting && graph_.HasEdge(bag[i], v)) {
          s.status[i] = kDominated;
        }
      }
      emit(std::move(s), value + 1);
    }
    // Choice 2: v stays out; it is dominated iff some bag neighbor is in the
    // set (v cannot have neighbors in the already-forgotten part).
    {
      uint8_t status = kWaiting;
      for (size_t i = 0; i < bag.size(); ++i) {
        if (bag[i] == v) continue;
        size_t child_pos = i < pos ? i : i - 1;
        if (child.status[child_pos] == kInSet && graph_.HasEdge(bag[i], v)) {
          status = kDominated;
          break;
        }
      }
      State s = child;
      s.status.insert(s.status.begin() + static_cast<long>(pos), status);
      emit(std::move(s), value);
    }
  }

  void Forget(const std::vector<ElementId>& bag, ElementId v,
              const State& child, const Value& value, const Emit& emit) const {
    size_t pos = PositionInBag(bag, v);
    // A forgotten vertex can never be dominated later.
    if (child.status[pos] == kWaiting) return;
    State s = child;
    s.status.erase(s.status.begin() + static_cast<long>(pos));
    emit(std::move(s), value);
  }

  DomKey KeyOf(const State& s) const {
    DomKey key;
    key.in_set.reserve(s.status.size());
    for (uint8_t st : s.status) key.in_set.push_back(st == kInSet ? 1 : 0);
    return key;
  }

  void Join(const std::vector<ElementId>& /*bag*/, const State& a,
            const Value& va, const State& b, const Value& vb,
            const Emit& emit) const {
    State s = a;
    size_t shared = 0;
    for (size_t i = 0; i < s.status.size(); ++i) {
      if (s.status[i] == kInSet) {
        ++shared;
      } else if (a.status[i] == kDominated || b.status[i] == kDominated) {
        s.status[i] = kDominated;
      }
    }
    emit(std::move(s), va + vb - shared);
  }

  Value Merge(const Value& a, const Value& b) const { return std::min(a, b); }

 private:
  const Graph& graph_;
};

}  // namespace

StatusOr<size_t> MinDominatingSet(const Graph& graph,
                                  const NormalizedTreeDecomposition& ntd,
                                  const DpExec& exec, DpStats* stats) {
  auto table = RunDp(ntd, DominatingProblem(graph), exec, stats,
                     /*retain_tables=*/false);
  if (exec.budget != nullptr && exec.budget->Aborted()) {
    return exec.budget->AbortStatus();
  }
  size_t best = graph.NumVertices() + 1;
  for (const auto& [state, value] : table.at(ntd.root())) {
    bool complete = true;
    for (uint8_t st : state.status) {
      if (st == kWaiting) complete = false;
    }
    if (complete) best = std::min(best, value);
  }
  if (best > graph.NumVertices()) {
    // Every graph has a dominating set (all vertices); reaching this means
    // an internal inconsistency.
    return Status::Internal("no dominating-set state survived to the root");
  }
  return best;
}

}  // namespace treedl::core
