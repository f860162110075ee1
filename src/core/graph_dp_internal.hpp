// The five graph DPs of core::RunDp (internal header): 3-Colorability and
// #3COL (§5.1, Fig. 5), minimum vertex cover, maximum independent set and
// minimum dominating set (extensions.hpp).
//
// Packed states: a state is one or two uint64_t words over bag *positions*
// (bit i = the i-th element of the node's sorted bag), meaningful only with
// the bag of the table it lives in:
//   ColorState  {p0, p1}            colour(i) = bit i of p0 + 2·bit i of p1;
//                                   p0 & p1 == 0 (colour 3 never occurs)
//   SubsetState {in_set}            bit i = position i is in the cover/set
//   DomState    {in_set, dominated} a position in neither word is waiting;
//                                   in_set & dominated == 0
// Introduce opens a bit at the new position (OpenBit) and forget drops the
// element's bit (DropBit), so every table holds the same states, in the same
// insertion order, as a byte-per-position encoding would. The edge tests read
// the node's BagContext masks, which MakeBagContext probes from the EdgeIndex
// each problem builds over its graph; nothing of a context survives the step.
#ifndef TREEDL_CORE_GRAPH_DP_INTERNAL_HPP_
#define TREEDL_CORE_GRAPH_DP_INTERNAL_HPP_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <variant>

#include "core/tree_dp.hpp"
#include "graph/edge_index.hpp"
#include "graph/graph.hpp"

namespace treedl::core::internal {

// Saturation point of the counting semiring. Every value is >= 1 (leaves
// seed 1), so a saturated value stays saturated through any later add or
// multiply, and an unsaturated value is exact.
inline constexpr uint64_t kSaturated = std::numeric_limits<uint64_t>::max();

inline uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  uint64_t sum;
  return __builtin_add_overflow(a, b, &sum) ? kSaturated : sum;
}

inline uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  uint64_t product;
  return __builtin_mul_overflow(a, b, &product) ? kSaturated : product;
}

inline size_t PopCount(uint64_t mask) {
  return static_cast<size_t>(std::popcount(mask));
}

/// A bag colouring as two bit planes (header comment).
struct ColorState {
  uint64_t p0 = 0;
  uint64_t p1 = 0;

  int Colour(int i) const {
    return static_cast<int>(((p0 >> i) & 1) | (((p1 >> i) & 1) << 1));
  }
  /// The bag gained position p, coloured c.
  ColorState Open(int p, int c) const {
    return {OpenBit(p0, p) | (uint64_t{c == 1} << p),
            OpenBit(p1, p) | (uint64_t{c == 2} << p)};
  }
  /// The bag lost position p.
  ColorState Drop(int p) const { return {DropBit(p0, p), DropBit(p1, p)}; }

  bool operator==(const ColorState&) const = default;
  size_t hash() const {
    const uint64_t words[2] = {p0, p1};
    return HashWords(words, 2);
  }
};

// Shared transition logic, parameterized over the value semiring:
//   decision: Value = monostate, Merge = first;
//   counting: Value = uint64_t, Leaf seeds 1, Merge adds, Join multiplies
//   (both saturating at kSaturated).
template <bool kCounting>
class ColorProblem {
 public:
  using State = ColorState;
  using Value = std::conditional_t<kCounting, uint64_t, std::monostate>;

  explicit ColorProblem(const Graph& graph) : edges_(graph) {}

  BagContext Context(const NormNode& node) const {
    return MakeBagContext(node, &edges_);
  }

  // Every colouring of the bag that is proper on the bag's edges, in base-3
  // odometer order (position 0 fastest): positions are coloured from the
  // highest down, colours 0, 1, 2 at each, and a colour that clashes with an
  // already coloured bag neighbour cuts its whole branch.
  template <typename Emit>
  void Leaf(const BagContext& ctx, Emit&& emit) const {
    ColourDown(ctx, ctx.size - 1, State{}, emit);
  }

  // The leaf size is known only once the bag's edges have pruned it.
  size_t LeafStates(const BagContext& /*ctx*/) const { return 0; }

  // allowed(s, ·): the new vertex takes each colour no bag neighbour has.
  template <typename Emit>
  void Introduce(const BagContext& ctx, const State& child, const Value& value,
                 Emit&& emit) const {
    uint64_t neighbours = ctx.adjacent[ctx.pos];
    State open = child.Open(ctx.pos, 0);
    if ((neighbours & ~(open.p0 | open.p1)) == 0) emit(open, value);
    if ((neighbours & open.p0) == 0) emit(child.Open(ctx.pos, 1), value);
    if ((neighbours & open.p1) == 0) emit(child.Open(ctx.pos, 2), value);
  }

  size_t IntroduceFanOut(const BagContext& /*ctx*/) const { return 3; }

  template <typename Emit>
  void Forget(const BagContext& ctx, const State& child, const Value& value,
              Emit&& emit) const {
    emit(child.Drop(ctx.pos), value);
  }

  const State& KeyOf(const State& state) const { return state; }

  template <typename Emit>
  void Join(const BagContext& /*ctx*/, const State& a, const Value& va,
            const State& b, const Value& vb, Emit&& emit) const {
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

  // Colours positions p, p - 1, ..., 0 of `s`, whose positions above p are
  // coloured, and emits each proper completion.
  template <typename Emit>
  static void ColourDown(const BagContext& ctx, int p, const State& s,
                         Emit& emit) {
    if (p < 0) {
      emit(s, One());
      return;
    }
    uint64_t bit = uint64_t{1} << p;
    uint64_t coloured = ctx.adjacent[p] & ~((bit << 1) - 1);
    if ((coloured & ~(s.p0 | s.p1)) == 0) ColourDown(ctx, p - 1, s, emit);
    if ((coloured & s.p0) == 0) {
      ColourDown(ctx, p - 1, State{s.p0 | bit, s.p1}, emit);
    }
    if ((coloured & s.p1) == 0) {
      ColourDown(ctx, p - 1, State{s.p0, s.p1 | bit}, emit);
    }
  }

  EdgeIndex edges_;
};

/// Membership flags of the bag (header comment).
struct SubsetState {
  uint64_t in_set = 0;

  bool operator==(const SubsetState&) const = default;
  size_t hash() const { return HashWords(&in_set, 1); }
};

// The value is the number of cover/independent vertices committed in the
// subtree. Covers both vertex cover (minimize) and independent set
// (maximize) — the transitions differ only in the local feasibility
// predicate and the optimization sense.
template <bool kCover>  // true: vertex cover (min), false: independent (max)
class SubsetProblem {
 public:
  using State = SubsetState;
  using Value = size_t;

  explicit SubsetProblem(const Graph& graph) : edges_(graph) {}

  BagContext Context(const NormNode& node) const {
    return MakeBagContext(node, &edges_);
  }

  // Every feasible subset of the bag, in increasing mask order: positions
  // are decided from the highest down, out before in, and a choice that
  // breaks an edge to an already decided position cuts its whole branch.
  template <typename Emit>
  void Leaf(const BagContext& ctx, Emit&& emit) const {
    ChooseDown(ctx, ctx.size - 1, 0, emit);
  }

  size_t LeafStates(const BagContext& /*ctx*/) const { return 0; }

  // Child states are feasible on the child's bag, so only the edges at the
  // new position can fail.
  template <typename Emit>
  void Introduce(const BagContext& ctx, const State& child, const Value& value,
                 Emit&& emit) const {
    uint64_t open = OpenBit(child.in_set, ctx.pos);
    for (uint64_t chosen : {uint64_t{0}, uint64_t{1}}) {
      uint64_t s = open | (chosen << ctx.pos);
      if (FeasibleAt(ctx, s, ctx.pos)) emit(State{s}, value + chosen);
    }
  }

  size_t IntroduceFanOut(const BagContext& /*ctx*/) const { return 2; }

  template <typename Emit>
  void Forget(const BagContext& ctx, const State& child, const Value& value,
              Emit&& emit) const {
    emit(State{DropBit(child.in_set, ctx.pos)}, value);
  }

  const State& KeyOf(const State& s) const { return s; }

  template <typename Emit>
  void Join(const BagContext& /*ctx*/, const State& a, const Value& va,
            const State& /*b*/, const Value& vb, Emit&& emit) const {
    // Bag members are counted in both children; subtract one copy.
    emit(a, va + vb - PopCount(a.in_set));
  }

  Value Merge(const Value& a, const Value& b) const {
    return kCover ? std::min(a, b) : std::max(a, b);
  }

 private:
  // Decides positions p, p - 1, ..., 0 given the decided positions above p
  // in `in_set`, and emits each feasible completion. Each bag edge is tested
  // once, at its lower end.
  template <typename Emit>
  static void ChooseDown(const BagContext& ctx, int p, uint64_t in_set,
                         Emit& emit) {
    if (p < 0) {
      emit(State{in_set}, PopCount(in_set));
      return;
    }
    uint64_t bit = uint64_t{1} << p;
    uint64_t decided = ctx.adjacent[p] & ~((bit << 1) - 1);
    if (!kCover || (decided & ~in_set) == 0) {
      ChooseDown(ctx, p - 1, in_set, emit);
    }
    if (kCover || (decided & in_set) == 0) {
      ChooseDown(ctx, p - 1, in_set | bit, emit);
    }
  }

  // The bag edges at position p. Vertex cover: p is in the set or every bag
  // neighbour is. Independent set: p is out of the set or no bag neighbour
  // is in it.
  static bool FeasibleAt(const BagContext& ctx, uint64_t in_set, int p) {
    bool in = (in_set >> p) & 1;
    if constexpr (kCover) {
      return in || (ctx.adjacent[p] & ~in_set) == 0;
    } else {
      return !in || (ctx.adjacent[p] & in_set) == 0;
    }
  }

  EdgeIndex edges_;
};

/// Per bag position: in the dominating set, already dominated, or waiting
/// (header comment).
struct DomState {
  uint64_t in_set = 0;
  uint64_t dominated = 0;

  bool operator==(const DomState&) const = default;
  size_t hash() const {
    const uint64_t words[2] = {in_set, dominated};
    return HashWords(words, 2);
  }
};

/// Join key: the in-set pattern (domination flags may differ between sides).
struct DomKey {
  uint64_t in_set = 0;

  bool operator==(const DomKey&) const = default;
  size_t hash() const { return HashWords(&in_set, 1); }
};

class DominatingProblem {
 public:
  using State = DomState;
  using Value = size_t;

  explicit DominatingProblem(const Graph& graph) : edges_(graph) {}

  BagContext Context(const NormNode& node) const {
    return MakeBagContext(node, &edges_);
  }

  // Every subset of the bag, with bag-internal domination.
  template <typename Emit>
  void Leaf(const BagContext& ctx, Emit&& emit) const {
    for (uint64_t mask = 0; mask <= ctx.All(); ++mask) {
      State s{mask, 0};
      for (int i = 0; i < ctx.size; ++i) {
        if (!((mask >> i) & 1) && (ctx.adjacent[i] & mask) != 0) {
          s.dominated |= uint64_t{1} << i;
        }
      }
      emit(s, PopCount(mask));
    }
  }

  size_t LeafStates(const BagContext& ctx) const {
    return size_t{1} << ctx.size;
  }

  template <typename Emit>
  void Introduce(const BagContext& ctx, const State& child, const Value& value,
                 Emit&& emit) const {
    uint64_t bit = uint64_t{1} << ctx.pos;
    uint64_t neighbours = ctx.adjacent[ctx.pos];
    State open{OpenBit(child.in_set, ctx.pos),
               OpenBit(child.dominated, ctx.pos)};
    // Choice 1: v joins the dominating set — it dominates its waiting bag
    // neighbours.
    {
      State s{open.in_set | bit, open.dominated};
      s.dominated |= neighbours & ~(s.in_set | s.dominated);
      emit(s, value + 1);
    }
    // Choice 2: v stays out; it is dominated iff some bag neighbour is in the
    // set (v cannot have neighbours in the already-forgotten part).
    if (neighbours & open.in_set) open.dominated |= bit;
    emit(open, value);
  }

  size_t IntroduceFanOut(const BagContext& /*ctx*/) const { return 2; }

  template <typename Emit>
  void Forget(const BagContext& ctx, const State& child, const Value& value,
              Emit&& emit) const {
    // A forgotten vertex can never be dominated later.
    if (!(((child.in_set | child.dominated) >> ctx.pos) & 1)) return;
    emit(State{DropBit(child.in_set, ctx.pos),
               DropBit(child.dominated, ctx.pos)},
         value);
  }

  DomKey KeyOf(const State& s) const { return DomKey{s.in_set}; }

  // Equal keys: both sides keep dominated disjoint from the shared in_set,
  // so the union does too.
  template <typename Emit>
  void Join(const BagContext& /*ctx*/, const State& a, const Value& va,
            const State& b, const Value& vb, Emit&& emit) const {
    emit(State{a.in_set, a.dominated | b.dominated},
         va + vb - PopCount(a.in_set));
  }

  Value Merge(const Value& a, const Value& b) const { return std::min(a, b); }

 private:
  EdgeIndex edges_;
};

}  // namespace treedl::core::internal

#endif  // TREEDL_CORE_GRAPH_DP_INTERNAL_HPP_
