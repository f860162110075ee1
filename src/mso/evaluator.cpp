#include "mso/evaluator.hpp"

namespace treedl::mso {

namespace {

class Evaluator {
 public:
  Evaluator(const Structure& structure, const EvalOptions& options)
      : structure_(structure), options_(options) {}

  StatusOr<bool> Eval(const Formula& f, Assignment* env) {
    ++work_;
    if (options_.work_budget != 0 && work_ > options_.work_budget) {
      return Status::ResourceExhausted(
          "MSO evaluation exceeded its work budget of " +
          std::to_string(options_.work_budget));
    }
    if (options_.budget != nullptr && !options_.budget->ConsumeUnit()) {
      return options_.budget->AbortStatus();
    }
    switch (f.kind) {
      case FormulaKind::kAtom: {
        TREEDL_ASSIGN_OR_RETURN(
            PredicateId pid, structure_.signature().PredicateIdOf(f.predicate));
        if (structure_.signature().arity(pid) !=
            static_cast<int>(f.args.size())) {
          return Status::InvalidArgument("arity mismatch in atom " +
                                         f.predicate);
        }
        Tuple tuple;
        tuple.reserve(f.args.size());
        for (const std::string& v : f.args) {
          TREEDL_ASSIGN_OR_RETURN(ElementId e, LookupFo(*env, v));
          tuple.push_back(e);
        }
        return structure_.HasFact(pid, tuple);
      }
      case FormulaKind::kEqual: {
        TREEDL_ASSIGN_OR_RETURN(ElementId a, LookupFo(*env, f.args[0]));
        TREEDL_ASSIGN_OR_RETURN(ElementId b, LookupFo(*env, f.args[1]));
        return a == b;
      }
      case FormulaKind::kIn: {
        TREEDL_ASSIGN_OR_RETURN(ElementId a, LookupFo(*env, f.args[0]));
        TREEDL_ASSIGN_OR_RETURN(SmallBitset s, LookupSo(*env, f.args[1]));
        return s.Test(static_cast<int>(a));
      }
      case FormulaKind::kSubseteq: {
        TREEDL_ASSIGN_OR_RETURN(SmallBitset a, LookupSo(*env, f.args[0]));
        TREEDL_ASSIGN_OR_RETURN(SmallBitset b, LookupSo(*env, f.args[1]));
        return a.IsSubsetOf(b);
      }
      case FormulaKind::kNot: {
        TREEDL_ASSIGN_OR_RETURN(bool v, Eval(*f.left, env));
        return !v;
      }
      case FormulaKind::kAnd: {
        TREEDL_ASSIGN_OR_RETURN(bool a, Eval(*f.left, env));
        if (!a) return false;
        return Eval(*f.right, env);
      }
      case FormulaKind::kOr: {
        TREEDL_ASSIGN_OR_RETURN(bool a, Eval(*f.left, env));
        if (a) return true;
        return Eval(*f.right, env);
      }
      case FormulaKind::kImplies: {
        TREEDL_ASSIGN_OR_RETURN(bool a, Eval(*f.left, env));
        if (!a) return true;
        return Eval(*f.right, env);
      }
      case FormulaKind::kIff: {
        TREEDL_ASSIGN_OR_RETURN(bool a, Eval(*f.left, env));
        TREEDL_ASSIGN_OR_RETURN(bool b, Eval(*f.right, env));
        return a == b;
      }
      case FormulaKind::kExistsFo:
      case FormulaKind::kForallFo: {
        bool exists = f.kind == FormulaKind::kExistsFo;
        auto saved = SaveFo(*env, f.bound);
        for (ElementId e = 0; e < structure_.NumElements(); ++e) {
          env->fo[f.bound] = e;
          auto v = Eval(*f.left, env);
          if (!v.ok()) {
            RestoreFo(env, f.bound, saved);
            return v.status();
          }
          if (*v == exists) {
            RestoreFo(env, f.bound, saved);
            return exists;
          }
        }
        RestoreFo(env, f.bound, saved);
        return !exists;
      }
      case FormulaKind::kExistsSo:
      case FormulaKind::kForallSo: {
        bool exists = f.kind == FormulaKind::kExistsSo;
        size_t n = structure_.NumElements();
        if (n >= 64) {
          // 2^64 subsets can never be enumerated; fail loudly instead of
          // silently truncating.
          return Status::OutOfRange(
              "set quantification requires a domain of < 64 elements");
        }
        auto saved = SaveSo(*env, f.bound);
        for (uint64_t mask = 0;; ++mask) {
          env->so[f.bound] = SmallBitset(mask);
          auto v = Eval(*f.left, env);
          if (!v.ok()) {
            RestoreSo(env, f.bound, saved);
            return v.status();
          }
          if (*v == exists) {
            RestoreSo(env, f.bound, saved);
            return exists;
          }
          // Advance; stop after the all-ones mask.
          if (mask + 1 == (uint64_t{1} << n)) break;
        }
        RestoreSo(env, f.bound, saved);
        return !exists;
      }
    }
    return Status::Internal("unknown formula kind");
  }

  uint64_t work() const { return work_; }

 private:
  StatusOr<ElementId> LookupFo(const Assignment& env, const std::string& v) {
    auto it = env.fo.find(v);
    if (it == env.fo.end()) {
      return Status::InvalidArgument("unbound individual variable: " + v);
    }
    return it->second;
  }
  StatusOr<SmallBitset> LookupSo(const Assignment& env, const std::string& v) {
    auto it = env.so.find(v);
    if (it == env.so.end()) {
      return Status::InvalidArgument("unbound set variable: " + v);
    }
    return it->second;
  }
  static std::optional<ElementId> SaveFo(const Assignment& env,
                                         const std::string& v) {
    auto it = env.fo.find(v);
    if (it == env.fo.end()) return std::nullopt;
    return it->second;
  }
  static void RestoreFo(Assignment* env, const std::string& v,
                        std::optional<ElementId> saved) {
    if (saved.has_value()) {
      env->fo[v] = *saved;
    } else {
      env->fo.erase(v);
    }
  }
  static std::optional<SmallBitset> SaveSo(const Assignment& env,
                                           const std::string& v) {
    auto it = env.so.find(v);
    if (it == env.so.end()) return std::nullopt;
    return it->second;
  }
  static void RestoreSo(Assignment* env, const std::string& v,
                        std::optional<SmallBitset> saved) {
    if (saved.has_value()) {
      env->so[v] = *saved;
    } else {
      env->so.erase(v);
    }
  }

  const Structure& structure_;
  const EvalOptions& options_;
  uint64_t work_ = 0;
};

}  // namespace

StatusOr<bool> Evaluate(const Structure& structure, const Formula& f,
                        const Assignment& assignment, const EvalOptions& options,
                        EvalUsage* usage) {
  if (structure.NumElements() > SmallBitset::kCapacity) {
    return Status::OutOfRange(
        "MSO evaluation limited to 64-element domains (got " +
        std::to_string(structure.NumElements()) + ")");
  }
  Evaluator evaluator(structure, options);
  Assignment env = assignment;
  auto result = evaluator.Eval(f, &env);
  if (usage != nullptr) usage->work = evaluator.work();
  return result;
}

StatusOr<bool> EvaluateSentence(const Structure& structure, const Formula& f,
                                const EvalOptions& options, EvalUsage* usage) {
  FreeVariables free = ComputeFreeVariables(f);
  if (!free.fo.empty() || !free.so.empty()) {
    return Status::InvalidArgument("formula is not a sentence");
  }
  return Evaluate(structure, f, Assignment{}, options, usage);
}

StatusOr<bool> EvaluateUnary(const Structure& structure, const Formula& f,
                             const std::string& free_var, ElementId element,
                             const EvalOptions& options, EvalUsage* usage) {
  Assignment assignment;
  assignment.fo[free_var] = element;
  return Evaluate(structure, f, assignment, options, usage);
}

}  // namespace treedl::mso
