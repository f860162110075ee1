#include "datalog/executor.hpp"

#include "common/logging.hpp"

namespace treedl::datalog {

namespace {

/// Per-row tail shared by the probing executors: checks kCheckRepeat
/// positions, binds kBindFirst ones, runs `next`, and unbinds. kConst and
/// kBound positions were already matched exactly by the probe key (or are
/// absent, for full scans). kStaticArity >= 0 turns the position loop into a
/// compile-time-bounded (unrollable) one; -1 is the generic fallback.
template <int kStaticArity>
inline void VisitRow(const JoinStep& step, FactStore* src, uint32_t row,
                     Binding* binding, const std::function<void()>& next) {
  const int arity = kStaticArity >= 0
                        ? kStaticArity
                        : static_cast<int>(step.actions.size());
  VariableId bound_vars[32];
  int num_bound = 0;
  bool ok = true;
  for (int i = 0; i < arity; ++i) {
    ArgAction action = step.actions[static_cast<size_t>(i)];
    if (action == ArgAction::kConst || action == ArgAction::kBound) continue;
    ElementId value = src->At(step.predicate, i, row);
    ElementId& slot =
        (*binding)[static_cast<size_t>(step.vars[static_cast<size_t>(i)])];
    if (action == ArgAction::kBindFirst) {
      slot = value;
      bound_vars[num_bound++] = step.vars[static_cast<size_t>(i)];
    } else if (slot != value) {  // kCheckRepeat
      ok = false;
      break;
    }
  }
  if (ok) next();
  for (int k = 0; k < num_bound; ++k) {
    (*binding)[static_cast<size_t>(bound_vars[k])] = kUnbound;
  }
}

/// Grounds the step's arguments under `binding` into `key` (all positions
/// are kConst or kBound — the fully-bound executors' precondition).
template <int kStaticArity>
inline void GroundKey(const JoinStep& step, const Binding& binding,
                      Tuple* key) {
  const int arity = kStaticArity >= 0
                        ? kStaticArity
                        : static_cast<int>(step.actions.size());
  for (int i = 0; i < arity; ++i) {
    size_t pos = static_cast<size_t>(i);
    (*key)[pos] = step.actions[pos] == ArgAction::kConst
                      ? step.const_args[pos]
                      : binding[static_cast<size_t>(step.vars[pos])];
  }
}

template <int kStaticArity>
class NegCheckExec final : public StepExecutor {
 public:
  void Execute(const JoinStep& step, FactStore* store, FactStore* /*delta*/,
               Binding* binding,
               const std::function<void()>& next) const override {
    Tuple key(step.actions.size());
    GroundKey<kStaticArity>(step, *binding, &key);
    if (store->FindRow(step.predicate, key) == FactStore::kNoRow) next();
  }
};

template <int kStaticArity>
class BoundCheckExec final : public StepExecutor {
 public:
  void Execute(const JoinStep& step, FactStore* store, FactStore* delta,
               Binding* binding,
               const std::function<void()>& next) const override {
    FactStore* src = step.is_delta ? delta : store;
    Tuple key(step.actions.size());
    GroundKey<kStaticArity>(step, *binding, &key);
    if (src->FindRow(step.predicate, key) != FactStore::kNoRow) next();
  }
};

template <int kStaticArity>
class IndexProbeExec final : public StepExecutor {
 public:
  void Execute(const JoinStep& step, FactStore* store, FactStore* delta,
               Binding* binding,
               const std::function<void()>& next) const override {
    FactStore* src = step.is_delta ? delta : store;
    const int arity = kStaticArity >= 0
                          ? kStaticArity
                          : static_cast<int>(step.actions.size());
    // Zeroed: an arity-0 probe hands Probe a key it never fills.
    ElementId key[kStaticArity > 0 ? kStaticArity : 32] = {};
    int k = 0;
    for (int i = 0; i < arity; ++i) {
      size_t pos = static_cast<size_t>(i);
      if (step.actions[pos] == ArgAction::kConst) {
        key[k++] = step.const_args[pos];
      } else if (step.actions[pos] == ArgAction::kBound) {
        key[k++] = (*binding)[static_cast<size_t>(step.vars[pos])];
      }
    }
    // Chain rows arrive in relation insertion order.
    uint32_t row = src->Probe(step.predicate, step.probe_mask, key);
    while (row != FactStore::kNoRow) {
      uint32_t current = row;
      row = src->NextRow(step.predicate, step.probe_mask, row);
      VisitRow<kStaticArity>(step, src, current, binding, next);
    }
  }
};

template <int kStaticArity>
class FullScanExec final : public StepExecutor {
 public:
  void Execute(const JoinStep& step, FactStore* store, FactStore* delta,
               Binding* binding,
               const std::function<void()>& next) const override {
    FactStore* src = step.is_delta ? delta : store;
    size_t num_rows = src->NumTuples(step.predicate);
    for (size_t row = 0; row < num_rows; ++row) {
      VisitRow<kStaticArity>(step, src, static_cast<uint32_t>(row), binding,
                             next);
    }
  }
};

template <template <int> class ExecT>
void RegisterKind(const StepExecutor** row) {
  static const ExecT<0> arity0;
  static const ExecT<1> arity1;
  static const ExecT<2> arity2;
  static const ExecT<3> arity3;
  static const ExecT<4> arity4;
  static const ExecT<-1> generic;
  row[0] = &arity0;
  row[1] = &arity1;
  row[2] = &arity2;
  row[3] = &arity3;
  row[4] = &arity4;
  row[5] = &generic;
}

}  // namespace

ExecutorRegistry::ExecutorRegistry() {
  RegisterKind<NegCheckExec>(table_[static_cast<int>(StepKind::kNegCheck)]);
  RegisterKind<BoundCheckExec>(
      table_[static_cast<int>(StepKind::kBoundCheck)]);
  RegisterKind<IndexProbeExec>(
      table_[static_cast<int>(StepKind::kIndexProbe)]);
  RegisterKind<FullScanExec>(table_[static_cast<int>(StepKind::kFullScan)]);
}

const ExecutorRegistry& ExecutorRegistry::Instance() {
  static const ExecutorRegistry registry;
  return registry;
}

const StepExecutor* ExecutorRegistry::Resolve(StepKind kind, int arity) const {
  int slot = arity <= kMaxSpecializedArity ? arity : kMaxSpecializedArity + 1;
  return table_[static_cast<int>(kind)][slot];
}

namespace {

/// Compiles the steps of `body` in `order`; with `reads_delta`, the first
/// step reads the delta store.
JoinPlan CompilePlan(const ResolvedAtom& head,
                     const std::vector<ResolvedAtom>& body,
                     const std::vector<bool>& positive,
                     const std::vector<size_t>& order, bool reads_delta,
                     size_t num_variables) {
  const ExecutorRegistry& registry = ExecutorRegistry::Instance();
  JoinPlan plan;
  plan.head = head;
  plan.num_variables = num_variables;
  std::vector<bool> bound(num_variables, false);
  for (size_t pos : order) {
    const ResolvedAtom& atom = body[pos];
    const size_t arity = atom.const_args.size();
    CompiledStep step;
    step.spec.predicate = atom.predicate;
    step.spec.is_delta = reads_delta && plan.steps.empty();
    step.spec.actions.resize(arity);
    step.spec.const_args = atom.const_args;
    step.spec.vars = atom.vars;
    bool fully_bound = true;
    for (size_t i = 0; i < arity; ++i) {
      VariableId var = atom.vars[i];
      if (var < 0) {
        step.spec.actions[i] = ArgAction::kConst;
        step.spec.probe_mask |= 1u << i;
      } else if (bound[static_cast<size_t>(var)]) {
        step.spec.actions[i] = ArgAction::kBound;
        step.spec.probe_mask |= 1u << i;
      } else {
        // First occurrence in this atom binds; later in-atom occurrences
        // can only be compared once the row supplies the value.
        bool repeat = false;
        for (size_t j = 0; j < i; ++j) {
          if (atom.vars[j] == var &&
              step.spec.actions[j] == ArgAction::kBindFirst) {
            repeat = true;
            break;
          }
        }
        step.spec.actions[i] =
            repeat ? ArgAction::kCheckRepeat : ArgAction::kBindFirst;
        fully_bound = false;
      }
    }
    if (!positive[pos]) {
      // Analysis orders negatives after their variables are bound.
      TREEDL_DCHECK(fully_bound);
      step.kind = StepKind::kNegCheck;
    } else if (fully_bound) {
      step.kind = StepKind::kBoundCheck;
    } else if (step.spec.probe_mask != 0) {
      step.kind = StepKind::kIndexProbe;
    } else {
      step.kind = StepKind::kFullScan;
    }
    step.executor = registry.Resolve(step.kind, static_cast<int>(arity));
    if (positive[pos]) {
      for (VariableId var : atom.vars) {
        if (var >= 0) bound[static_cast<size_t>(var)] = true;
      }
    }
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

}  // namespace

CompiledRule CompileRule(const ResolvedAtom& head,
                         const std::vector<ResolvedAtom>& body,
                         const std::vector<bool>& positive,
                         const std::vector<size_t>& full_order,
                         const std::vector<std::vector<size_t>>& delta_orders,
                         size_t num_variables) {
  CompiledRule compiled;
  compiled.full = CompilePlan(head, body, positive, full_order,
                              /*reads_delta=*/false, num_variables);
  for (const std::vector<size_t>& order : delta_orders) {
    compiled.delta_variants.push_back(CompilePlan(
        head, body, positive, order, /*reads_delta=*/true, num_variables));
  }
  return compiled;
}

void PendingSet::Add(const ResolvedAtom& head, const Binding& binding) {
  Entry entry;
  entry.predicate = head.predicate;
  entry.offset = static_cast<uint32_t>(values_.size());
  entry.arity = static_cast<uint32_t>(head.const_args.size());
  for (size_t i = 0; i < head.const_args.size(); ++i) {
    ElementId value = head.vars[i] >= 0
                          ? binding[static_cast<size_t>(head.vars[i])]
                          : head.const_args[i];
    TREEDL_DCHECK(value != kUnbound);
    values_.push_back(value, &arena_);
  }
  entries_.push_back(entry, &arena_);
}

void ExecutePlan(const JoinPlan& plan, FactStore* store, FactStore* delta,
                 PendingSet* out, ExecCounters* counters) {
  TREEDL_DCHECK(!plan.steps.empty());
  Binding binding(plan.num_variables, kUnbound);
  const size_t num_steps = plan.steps.size();
  // Continuation per step: entering a step is one unit of work (the same
  // accounting as the interpreted engine) and one executor dispatch.
  std::vector<std::function<void()>> continuations(num_steps + 1);
  continuations[num_steps] = [&] { out->Add(plan.head, binding); };
  for (size_t i = num_steps; i-- > 0;) {
    continuations[i] = [&, i] {
      ++counters->work;
      ++counters->dispatches;
      const CompiledStep& step = plan.steps[i];
      step.executor->Execute(step.spec, store, delta, &binding,
                             continuations[i + 1]);
    };
  }
  continuations[0]();
}

}  // namespace treedl::datalog
