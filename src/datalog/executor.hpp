// Compiled join executors: each rule body is compiled once — at Prepare
// time — into nested-index-join plans over the columnar FactStore, one
// delta-first plan per delta variant (plus the full plan used by round 0),
// replacing per-tuple atom interpretation in the semi-naive engine.
//
// A JoinPlan is a sequence of steps in one of the analyzer's orders. Each step
// records, per argument position, what the executor does with it:
//
//   kConst       compare against a resolved constant (part of the probe key)
//   kBound       variable bound by an earlier step     (part of the probe key)
//   kBindFirst   first occurrence of a variable: bind it from the row
//   kCheckRepeat repeated variable within this atom: compare against the
//                value the earlier position of the same row just bound
//
// The probe mask (kConst|kBound positions) selects the FactStore
// bound-pattern index; the step kind picks the executor:
//
//   kNegCheck    negative literal, fully bound — absence check
//   kBoundCheck  positive literal, fully bound — presence check
//   kIndexProbe  some positions bound — index probe + chain walk
//   kFullScan    nothing bound — row scan
//
// Executors are stateless singletons resolved from the ExecutorRegistry by
// (kind, arity) — small objects with arity-specialized inner loops
// (following tensorlogic's Runtime/Executors + ExecutorRegistry split).
// Plans hold the resolved executor pointer, so the per-step dispatch at run
// time is one virtual call counted by RunStats::executor_dispatches.
//
// Determinism contract: a probed chain enumerates rows in relation
// insertion order (FactStore invariant) and a stronger multi-column probe
// only skips non-matching rows — so a compiled plan yields exactly the match
// sequence of the interpreted MatchAtom kernel in the same literal order,
// and model, round, task, and work counters are a pure function of program
// and data.
#ifndef TREEDL_DATALOG_EXECUTOR_HPP_
#define TREEDL_DATALOG_EXECUTOR_HPP_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/arena.hpp"
#include "common/arena_vec.hpp"
#include "datalog/database.hpp"

namespace treedl::datalog {

enum class ArgAction : uint8_t { kConst, kBound, kBindFirst, kCheckRepeat };

enum class StepKind : uint8_t {
  kNegCheck,
  kBoundCheck,
  kIndexProbe,
  kFullScan,
};

/// One body literal, compiled: the probe pattern plus per-position actions.
struct JoinStep {
  PredicateId predicate = 0;
  /// True on the plan's delta position: read the delta store.
  bool is_delta = false;
  uint32_t probe_mask = 0;  // kConst|kBound positions, bit i = position i
  std::vector<ArgAction> actions;     // one per argument position
  std::vector<ElementId> const_args;  // valid at kConst positions
  std::vector<VariableId> vars;       // valid at non-kConst positions
};

struct ExecCounters {
  /// Step entries — same accounting as the interpreted engine's
  /// rule_applications (one per step execution per prefix binding).
  size_t work = 0;
  /// StepExecutor::Execute invocations. Equal to `work` when evaluation is
  /// fully compiled — the differential harness pins that equality.
  size_t dispatches = 0;
};

/// A stateless step kernel. Calls `next` once per matching row, with
/// `binding` temporarily extended by the row's kBindFirst assignments.
class StepExecutor {
 public:
  virtual ~StepExecutor() = default;
  virtual void Execute(const JoinStep& step, FactStore* store,
                       FactStore* delta, Binding* binding,
                       const std::function<void()>& next) const = 0;
};

/// Resolves (kind, arity) to the shared executor instance: one
/// arity-specialized kernel per arity up to kMaxSpecializedArity, a generic
/// fallback above.
class ExecutorRegistry {
 public:
  static constexpr int kMaxSpecializedArity = 4;

  static const ExecutorRegistry& Instance();
  const StepExecutor* Resolve(StepKind kind, int arity) const;

 private:
  ExecutorRegistry();
  // [kind][min(arity, kMaxSpecializedArity + 1)]
  const StepExecutor* table_[4][kMaxSpecializedArity + 2] = {};
};

struct CompiledStep {
  JoinStep spec;
  StepKind kind = StepKind::kFullScan;
  const StepExecutor* executor = nullptr;
};

struct JoinPlan {
  ResolvedAtom head;
  size_t num_variables = 0;
  std::vector<CompiledStep> steps;
};

/// All plans of one rule: the full plan plus one delta variant per positive
/// intensional body literal (ProgramInfo::delta_plans). Each variant has its
/// own join order: step 0 reads the delta store, and the later steps join
/// outward from the delta's bindings against the full store.
struct CompiledRule {
  JoinPlan full;
  std::vector<JoinPlan> delta_variants;
};

/// Compiles one rule's plans from its resolved body (source order;
/// `positive` aligns with it), the full plan's order, and one order per
/// delta variant whose first entry is the variant's delta literal.
CompiledRule CompileRule(const ResolvedAtom& head,
                         const std::vector<ResolvedAtom>& body,
                         const std::vector<bool>& positive,
                         const std::vector<size_t>& full_order,
                         const std::vector<std::vector<size_t>>& delta_orders,
                         size_t num_variables);

/// Derived head tuples of one fixpoint round, flat in a round-local arena
/// (one bump allocation stream instead of one heap Tuple per derivation;
/// the whole set frees with the round).
class PendingSet {
 public:
  PendingSet() = default;
  PendingSet(PendingSet&&) = default;
  PendingSet& operator=(PendingSet&&) = default;

  /// Grounds `head` under `binding` directly into the flat buffer.
  void Add(const ResolvedAtom& head, const Binding& binding);

  size_t size() const { return entries_.size(); }
  PredicateId predicate(size_t i) const { return entries_[i].predicate; }
  /// Argument values of entry i (arity = the head predicate's arity).
  const ElementId* args(size_t i) const {
    return values_.data() + entries_[i].offset;
  }
  uint32_t arity(size_t i) const { return entries_[i].arity; }

 private:
  struct Entry {
    PredicateId predicate;
    uint32_t offset;
    uint32_t arity;
  };
  Arena arena_;
  ArenaVec<Entry> entries_;
  ArenaVec<ElementId> values_;
};

/// Runs `plan` to completion: every derived head tuple is appended to
/// `out`, work/dispatch counters accumulate into `counters`. `delta` is read
/// by the plan's delta step (null for full plans).
void ExecutePlan(const JoinPlan& plan, FactStore* store, FactStore* delta,
                 PendingSet* out, ExecCounters* counters);

}  // namespace treedl::datalog

#endif  // TREEDL_DATALOG_EXECUTOR_HPP_
