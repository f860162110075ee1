// FactStore: the columnar working database of datalog evaluation.
//
// Each relation stores one column vector per argument position (ElementId
// values in row-insertion order), a full-tuple dedup index, and a set of
// pow2 open-addressing hash indexes keyed by *bound pattern* — the bitmask
// of argument positions a join step has bound when it probes the relation.
// Every array lives in the relation's own bump arena (common/arena.hpp via
// common/arena_vec.hpp), following the FlatTable layout of the DP side:
// dense records plus a power-of-two slot array, one arena block per growth
// step, whole-relation release in O(1).
//
// Index buckets chain matching rows in insertion order (head/tail plus a
// per-row `next` link), so every enumeration — indexed or full scan — yields
// rows in exactly the relation's insertion order. That property is what
// keeps the compiled executors bit-identical to the interpreted oracle: a
// stronger index only skips non-matching rows, it never reorders the
// matches. Indexes are built lazily on first probe, and Add maintains every
// built index.
#ifndef TREEDL_DATALOG_DATABASE_HPP_
#define TREEDL_DATALOG_DATABASE_HPP_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/arena.hpp"
#include "common/arena_vec.hpp"
#include "datalog/ast.hpp"
#include "structure/structure.hpp"

namespace treedl::datalog {

inline constexpr ElementId kUnbound = std::numeric_limits<ElementId>::max();

/// A partial assignment of program variables to element ids.
using Binding = std::vector<ElementId>;

class FactStore {
 public:
  /// Row chain terminator / "no match" sentinel.
  static constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();
  /// Widest relation: probe masks are uint32_t bit sets over the argument
  /// positions, and the executor's probe keys hold at most 31 values.
  static constexpr int kMaxArity = 31;

  FactStore() = default;
  /// One columnar relation per predicate of `sig`, with matching arities.
  /// Requires every arity <= kMaxArity (internal::Prepare rejects wider
  /// predicates with a typed error first).
  explicit FactStore(const Signature& sig);

  FactStore(FactStore&&) = default;
  FactStore& operator=(FactStore&&) = default;
  FactStore(const FactStore&) = delete;
  FactStore& operator=(const FactStore&) = delete;

  /// Adds a tuple; returns true iff it was new. Maintains every built index.
  bool Add(PredicateId p, const Tuple& t);

  bool Contains(PredicateId p, const Tuple& t) const;

  size_t NumTuples(PredicateId p) const {
    return relations_[static_cast<size_t>(p)].num_rows;
  }
  int Arity(PredicateId p) const {
    return relations_[static_cast<size_t>(p)].arity;
  }
  size_t TotalFacts() const { return total_; }

  /// The `pos`-th argument of row `row` of relation `p` (columnar access).
  ElementId At(PredicateId p, int pos, uint32_t row) const {
    return relations_[static_cast<size_t>(p)]
        .columns[static_cast<size_t>(pos)][row];
  }

  /// Materializes one row (used when a caller needs an owning Tuple).
  Tuple Row(PredicateId p, uint32_t row) const;

  /// Row id of the (unique) tuple equal to `t`, or kNoRow.
  uint32_t FindRow(PredicateId p, const Tuple& t) const;

  /// Builds the (p, mask) bound-pattern index now if absent. `mask` bit i
  /// set = argument position i is part of the probe key. mask 0 (full scan)
  /// and fully-bound masks need no index and are ignored. Probe calls this
  /// on first use of a pattern.
  void EnsureIndex(PredicateId p, uint32_t mask);

  /// First row whose mask-positions equal `key` (the bound values in
  /// ascending position order), or kNoRow. The (p, mask) index is built on
  /// first use; walk the chain with NextRow. Rows arrive in insertion order.
  uint32_t Probe(PredicateId p, uint32_t mask, const ElementId* key);

  /// Successor of `row` in the probed chain of the (p, mask) index.
  uint32_t NextRow(PredicateId p, uint32_t mask, uint32_t row) const;

  /// Arena bytes backing relation `p` (columns + indexes).
  size_t MemoryBytes(PredicateId p) const {
    return relations_[static_cast<size_t>(p)].arena.TotalBytes();
  }

 private:
  struct Bucket {
    size_t hash = 0;
    uint32_t head = kNoRow;
    uint32_t tail = kNoRow;
  };
  /// One bound-pattern hash index: pow2 slot array over buckets, buckets
  /// chain rows in insertion order through `next`.
  struct PatternIndex {
    uint32_t mask = 0;
    ArenaVec<uint32_t> slots;  // bucket id + 1; 0 = empty
    ArenaVec<Bucket> buckets;
    ArenaVec<uint32_t> next;  // per covered row
  };
  struct Relation {
    int arity = 0;
    uint32_t num_rows = 0;
    uint32_t full_mask = 0;
    Arena arena;
    std::vector<ArenaVec<ElementId>> columns;
    PatternIndex dedup;                 // full-tuple index (mask = full_mask)
    std::vector<PatternIndex> indexes;  // one per built bound pattern
  };

  size_t KeyHashAt(const Relation& rel, uint32_t mask, uint32_t row) const;
  static size_t KeyHash(uint32_t mask, const ElementId* key);
  bool KeyEqualsAt(const Relation& rel, uint32_t mask, uint32_t row,
                   const ElementId* key) const;
  bool RowsKeyEqual(const Relation& rel, uint32_t mask, uint32_t a,
                    uint32_t b) const;
  /// Bucket of `hash`/`key` in `index`, or kNoRow-equivalent (returns bucket
  /// id or UINT32_MAX).
  uint32_t FindBucket(const Relation& rel, const PatternIndex& index,
                      size_t hash, const ElementId* key) const;
  void InsertRow(Relation* rel, PatternIndex* index, uint32_t row,
                 size_t hash);
  void RehashSlots(Relation* rel, PatternIndex* index, size_t slot_count);
  void BuildIndex(Relation* rel, PatternIndex* index, uint32_t mask);

  std::vector<Relation> relations_;
  size_t total_ = 0;
};

/// An atom with constants pre-resolved to element ids (kUnbound marks
/// variable positions; `vars` holds the variable id per position, -1 for
/// constants).
struct ResolvedAtom {
  PredicateId predicate = 0;
  std::vector<ElementId> const_args;  // kUnbound at variable positions
  std::vector<VariableId> vars;       // -1 at constant positions
};

ResolvedAtom ResolveAtom(const Atom& atom, Structure* domain);

/// Calls `yield` once per tuple of `store` matching `atom` under `binding`,
/// with the binding temporarily extended by the tuple's assignments. `yield`
/// returns false to stop early. Returns the number of matches visited.
///
/// This is the *interpreted* matching kernel: it decides the probe column at
/// runtime, tuple by tuple. The naive evaluator and the grounder keep using
/// it as the reference oracle the compiled executors
/// (datalog/executor.hpp) are differentially tested against.
size_t MatchAtom(FactStore* store, const ResolvedAtom& atom, Binding* binding,
                 const std::function<bool(void)>& yield);

/// The argument position the interpreted MatchAtom probes an index on: the
/// first position that is a constant or whose variable satisfies `is_bound`;
/// -1 when every position is unbound (full scan).
int ProbePosition(const ResolvedAtom& atom,
                  const std::function<bool(VariableId)>& is_bound);

/// True iff `atom` is fully bound under `binding` (no unbound variables).
bool FullyBound(const ResolvedAtom& atom, const Binding& binding);

/// Ground tuple of `atom` under `binding`; requires FullyBound.
Tuple GroundArgs(const ResolvedAtom& atom, const Binding& binding);

}  // namespace treedl::datalog

#endif  // TREEDL_DATALOG_DATABASE_HPP_
