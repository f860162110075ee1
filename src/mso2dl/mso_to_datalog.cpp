#include "mso2dl/mso_to_datalog.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "common/logging.hpp"
#include "mso/evaluator.hpp"
#include "mso/types.hpp"

namespace treedl::mso2dl {

namespace {

using datalog::Atom;
using datalog::Literal;
using datalog::Program;
using datalog::Rule;
using datalog::Term;
using mso::TypeId;

/// A structure together with a distinguished (w+1)-tuple of pairwise distinct
/// elements — the bag of the decomposition node the structure hangs off. For
/// Θ↑ entries the bag is the root bag of a width-w decomposition of the
/// witness; for Θ↓ entries it sits at a leaf. Witnesses exist so that (i) new
/// structures can be built by the three extension operations and (ii) φ can
/// be model-checked during element selection.
struct Witness {
  Structure a;
  std::vector<ElementId> bag;

  explicit Witness(Signature sig) : a(std::move(sig)) {}
};

/// An atom schema over bag positions: predicate + positions in {0..w}.
struct PosAtom {
  PredicateId pred;
  std::vector<int> positions;
  bool involves_position0 = false;
};

class Builder {
 public:
  Builder(const Signature& tau, mso::FormulaPtr phi, std::string free_var,
          bool unary, const Mso2DlOptions& options)
      : tau_(tau),
        phi_(std::move(phi)),
        free_var_(std::move(free_var)),
        unary_(unary),
        options_(options),
        types_(mso::TypeOptions{options.type_work_budget}) {}

  StatusOr<Mso2DlResult> Build() {
    if (options_.width < 1) {
      return Status::InvalidArgument("width must be >= 1");
    }
    k_ = mso::QuantifierDepth(*phi_);
    TREEDL_RETURN_IF_ERROR(mso::CheckAgainstSignature(*phi_, tau_));
    TREEDL_RETURN_IF_ERROR(InitSignatureAndAtomSpace());

    TREEDL_RETURN_IF_ERROR(Saturate(/*up=*/true));
    if (unary_) {
      TREEDL_RETURN_IF_ERROR(Saturate(/*up=*/false));
      TREEDL_RETURN_IF_ERROR(EmitElementSelection());
    } else {
      TREEDL_RETURN_IF_ERROR(EmitSentenceSelection());
    }

    Mso2DlResult result;
    result.program = std::move(program_);
    result.num_up_types = up_.size();
    result.num_down_types = down_.size();
    result.rank = k_;
    return result;
  }

 private:
  struct Entry {
    TypeId type;
    Witness witness;
    uint64_t bag_pattern = 0;
    PredicateId predicate;  // "upN" / "downN" in program_'s signature
  };

  int W() const { return options_.width; }
  int BagSize() const { return options_.width + 1; }

  // --- setup -----------------------------------------------------------------

  Status InitSignatureAndAtomSpace() {
    // Program signature: τ, then τ_td, then "phi"; type predicates are added
    // as they are discovered.
    Signature sig = tau_;
    for (const char* name : {"root", "leaf"}) {
      TREEDL_ASSIGN_OR_RETURN([[maybe_unused]] PredicateId p,
                              sig.AddPredicate(name, 1));
    }
    for (const char* name : {"child1", "child2"}) {
      TREEDL_ASSIGN_OR_RETURN([[maybe_unused]] PredicateId p,
                              sig.AddPredicate(name, 2));
    }
    TREEDL_ASSIGN_OR_RETURN([[maybe_unused]] PredicateId bag_p,
                            sig.AddPredicate("bag", W() + 2));
    TREEDL_ASSIGN_OR_RETURN([[maybe_unused]] PredicateId phi_p,
                            sig.AddPredicate("phi", unary_ ? 1 : 0));
    program_ = Program(std::move(sig));

    // Variables.
    v_ = program_.InternVariable("V");
    v1_ = program_.InternVariable("V1");
    v2_ = program_.InternVariable("V2");
    for (int i = 0; i <= W(); ++i) {
      x_.push_back(program_.InternVariable("X" + std::to_string(i)));
    }
    xr_ = program_.InternVariable("XR");

    // Atom space R(ā): all τ-atoms over bag positions.
    for (PredicateId p = 0; p < tau_.size(); ++p) {
      int arity = tau_.arity(p);
      std::vector<int> tuple(static_cast<size_t>(arity), 0);
      while (true) {
        PosAtom atom;
        atom.pred = p;
        atom.positions = tuple;
        atom.involves_position0 =
            std::find(tuple.begin(), tuple.end(), 0) != tuple.end();
        atom_space_.push_back(atom);
        int pos = arity - 1;
        while (pos >= 0 && ++tuple[static_cast<size_t>(pos)] == BagSize()) {
          tuple[static_cast<size_t>(pos)] = 0;
          --pos;
        }
        if (pos < 0) break;
      }
    }
    if (atom_space_.size() > 63) {
      return Status::OutOfRange(
          "atom space over the bag exceeds 63 atoms; reduce signature arity "
          "or width");
    }
    return Status::OK();
  }

  // --- witness helpers ----------------------------------------------------------

  uint64_t ComputePattern(const Witness& w) const {
    uint64_t pattern = 0;
    for (size_t i = 0; i < atom_space_.size(); ++i) {
      Tuple args;
      for (int pos : atom_space_[i].positions) {
        args.push_back(w.bag[static_cast<size_t>(pos)]);
      }
      if (w.a.HasFact(atom_space_[i].pred, args)) pattern |= uint64_t{1} << i;
    }
    return pattern;
  }

  /// Fresh base witness: w+1 elements with the given bag-atom pattern.
  Witness BaseWitness(uint64_t pattern) const {
    Witness w(tau_);
    for (int i = 0; i <= W(); ++i) {
      w.bag.push_back(w.a.AddElement("b" + std::to_string(i)));
    }
    AddPatternFacts(&w, pattern, /*only_position0=*/false);
    return w;
  }

  void AddPatternFacts(Witness* w, uint64_t pattern, bool only_position0) const {
    for (size_t i = 0; i < atom_space_.size(); ++i) {
      if (!((pattern >> i) & 1)) continue;
      if (only_position0 && !atom_space_[i].involves_position0) continue;
      Tuple args;
      for (int pos : atom_space_[i].positions) {
        args.push_back(w->bag[static_cast<size_t>(pos)]);
      }
      Status st = w->a.AddFact(atom_space_[i].pred, std::move(args));
      TREEDL_CHECK(st.ok()) << st.ToString();
    }
  }

  Witness PermuteWitness(const Witness& base, const std::vector<int>& perm) const {
    Witness w(tau_);
    w.a = base.a;
    for (int i = 0; i < BagSize(); ++i) {
      w.bag.push_back(
          base.bag[static_cast<size_t>(perm[static_cast<size_t>(i)])]);
    }
    return w;
  }

  /// New witness from `base` by replacing bag position 0 with a fresh element
  /// whose bag-facts follow `pattern`'s position-0 atoms.
  StatusOr<Witness> ReplaceWitness(const Witness& base, uint64_t pattern) const {
    if (base.a.NumElements() + 1 > options_.max_witness_elements) {
      return Status::ResourceExhausted(
          "witness structure exceeded max_witness_elements (" +
          std::to_string(options_.max_witness_elements) +
          "); the generic construction hit its exponential wall");
    }
    Witness w(tau_);
    w.a = base.a;
    ElementId fresh = w.a.AddElement("n" + std::to_string(w.a.NumElements()));
    w.bag = base.bag;
    w.bag[0] = fresh;
    AddPatternFacts(&w, pattern, /*only_position0=*/true);
    return w;
  }

  /// Disjoint union of `left` and `right` glued along their bags (position-
  /// wise). Caller guarantees equal bag patterns.
  StatusOr<Witness> MergeWitnesses(const Witness& left,
                                   const Witness& right) const {
    size_t merged_size =
        left.a.NumElements() + right.a.NumElements() - left.bag.size();
    if (merged_size > options_.max_witness_elements) {
      return Status::ResourceExhausted(
          "witness structure exceeded max_witness_elements (" +
          std::to_string(options_.max_witness_elements) +
          "); the generic construction hit its exponential wall");
    }
    Witness w(tau_);
    w.a = left.a;
    w.bag = left.bag;
    // Translate right's elements: bag -> left's bag, others -> fresh.
    std::unordered_map<ElementId, ElementId> delta;
    for (size_t i = 0; i < right.bag.size(); ++i) {
      delta[right.bag[i]] = left.bag[i];
    }
    for (ElementId e = 0; e < right.a.NumElements(); ++e) {
      if (delta.count(e)) continue;
      delta[e] = w.a.AddElement("m" + std::to_string(w.a.NumElements()));
    }
    for (PredicateId p = 0; p < right.a.signature().size(); ++p) {
      for (const Tuple& fact : right.a.Relation(p)) {
        Tuple args;
        for (ElementId e : fact) args.push_back(delta.at(e));
        Status st = w.a.AddFact(p, std::move(args));
        TREEDL_CHECK(st.ok()) << st.ToString();
      }
    }
    return w;
  }

  StatusOr<TypeId> TypeOf(const Witness& w) {
    return types_.ComputeType(w.a, w.bag, k_);
  }

  // --- rule building blocks --------------------------------------------------------

  Term V(datalog::VariableId v) const { return Term::Var(v); }

  Atom MakeAtom(const char* name, std::vector<Term> args) const {
    PredicateId p = program_.signature().PredicateIdOf(name).value();
    return Atom{p, std::move(args)};
  }

  /// bag(node, X0..Xw), optionally permuting the element variables and/or
  /// substituting variable position 0.
  Atom BagAtom(datalog::VariableId node, const std::vector<int>* perm = nullptr,
               const datalog::VariableId* pos0_override = nullptr) const {
    std::vector<Term> args{V(node)};
    for (int i = 0; i <= W(); ++i) {
      int source = perm != nullptr ? (*perm)[static_cast<size_t>(i)] : i;
      datalog::VariableId var = x_[static_cast<size_t>(source)];
      if (i == 0 && pos0_override != nullptr) var = *pos0_override;
      args.push_back(V(var));
    }
    PredicateId p = program_.signature().PredicateIdOf("bag").value();
    return Atom{p, std::move(args)};
  }

  /// ± literals for every atom of the atom space according to `pattern`.
  void AppendPatternLiterals(uint64_t pattern, std::vector<Literal>* body) const {
    for (size_t i = 0; i < atom_space_.size(); ++i) {
      Literal lit;
      lit.positive = ((pattern >> i) & 1) != 0;
      lit.atom.predicate = atom_space_[i].pred;
      for (int pos : atom_space_[i].positions) {
        lit.atom.args.push_back(V(x_[static_cast<size_t>(pos)]));
      }
      body->push_back(std::move(lit));
    }
  }

  void AddRuleDeduped(Rule rule) {
    std::string repr = program_.RuleToString(rule);
    if (emitted_rules_.insert(std::move(repr)).second) {
      program_.AddRule(std::move(rule));
    }
  }

  // --- entry management -----------------------------------------------------------

  std::vector<Entry>& Entries(bool up) { return up ? up_ : down_; }
  std::map<TypeId, int>& Index(bool up) { return up ? up_index_ : down_index_; }

  /// Finds or creates the Θ-entry for `type`; returns (index, was_new).
  StatusOr<std::pair<int, bool>> InternEntry(bool up, TypeId type,
                                             Witness witness) {
    auto& entries = Entries(up);
    auto& index = Index(up);
    auto it = index.find(type);
    if (it != index.end()) return std::make_pair(it->second, false);
    if (entries.size() >= options_.max_types) {
      return Status::ResourceExhausted("type saturation exceeded max_types = " +
                                       std::to_string(options_.max_types));
    }
    std::string name = (up ? "up" : "down") + std::to_string(entries.size());
    TREEDL_ASSIGN_OR_RETURN(
        PredicateId pred, program_.mutable_signature()->AddPredicate(name, 1));
    uint64_t pattern = ComputePattern(witness);
    int id = static_cast<int>(entries.size());
    entries.push_back(Entry{type, std::move(witness), pattern, pred});
    index.emplace(type, id);
    return std::make_pair(id, true);
  }

  PredicateId EntryPred(bool up, int id) {
    return Entries(up)[static_cast<size_t>(id)].predicate;
  }

  // --- saturation (proof parts 1 and 2) ----------------------------------------------

  Status Saturate(bool up) {
    std::deque<int> queue;
    // BASE CASE: all EDBs over a single full bag. Θ↑ rules are guarded by
    // leaf(v) (the bag is the root of a one-node decomposition); Θ↓ rules by
    // root(v) (the envelope of the root is the root alone).
    for (uint64_t pattern = 0; pattern < (uint64_t{1} << atom_space_.size());
         ++pattern) {
      Witness w = BaseWitness(pattern);
      TREEDL_ASSIGN_OR_RETURN(TypeId t, TypeOf(w));
      TREEDL_ASSIGN_OR_RETURN(auto interned, InternEntry(up, t, std::move(w)));
      if (interned.second) queue.push_back(interned.first);
      Rule rule;
      rule.head = Atom{EntryPred(up, interned.first), {V(v_)}};
      rule.body.push_back(Literal{BagAtom(v_), true});
      rule.body.push_back(
          Literal{MakeAtom(up ? "leaf" : "root", {V(v_)}), true});
      AppendPatternLiterals(pattern, &rule.body);
      AddRuleDeduped(std::move(rule));
    }
    // INDUCTION: drain the worklist.
    while (!queue.empty()) {
      int id = queue.front();
      queue.pop_front();
      TREEDL_RETURN_IF_ERROR(ExtendPermutations(up, id, &queue));
      TREEDL_RETURN_IF_ERROR(ExtendReplacements(up, id, &queue));
      if (up) {
        TREEDL_RETURN_IF_ERROR(ExtendUpBranches(id, &queue));
      } else {
        TREEDL_RETURN_IF_ERROR(ExtendDownBranches(id, &queue));
      }
    }
    return Status::OK();
  }

  Status ExtendPermutations(bool up, int id, std::deque<int>* queue) {
    std::vector<int> perm(static_cast<size_t>(BagSize()));
    for (int i = 0; i < BagSize(); ++i) perm[static_cast<size_t>(i)] = i;
    do {
      TypeId old_type = Entries(up)[static_cast<size_t>(id)].type;
      TypeId t;
      auto cache_it = perm_cache_.find({old_type, perm});
      Witness w = PermuteWitness(Entries(up)[static_cast<size_t>(id)].witness,
                                 perm);
      if (cache_it != perm_cache_.end()) {
        t = cache_it->second;
      } else {
        TREEDL_ASSIGN_OR_RETURN(t, TypeOf(w));
        perm_cache_.emplace(std::make_pair(old_type, perm), t);
      }
      TREEDL_ASSIGN_OR_RETURN(auto interned, InternEntry(up, t, std::move(w)));
      if (interned.second) queue->push_back(interned.first);

      // Θ↑: the typed node v is the parent (child1(v1, v)).
      // Θ↓: the typed node v is the child (child1(v, v1)).
      Rule rule;
      rule.head = Atom{EntryPred(up, interned.first), {V(v_)}};
      rule.body.push_back(Literal{BagAtom(v_, &perm), true});
      rule.body.push_back(Literal{
          up ? MakeAtom("child1", {V(v1_), V(v_)})
             : MakeAtom("child1", {V(v_), V(v1_)}),
          true});
      rule.body.push_back(Literal{Atom{EntryPred(up, id), {V(v1_)}}, true});
      rule.body.push_back(Literal{BagAtom(v1_), true});
      AddRuleDeduped(std::move(rule));
    } while (std::next_permutation(perm.begin(), perm.end()));
    return Status::OK();
  }

  Status ExtendReplacements(bool up, int id, std::deque<int>* queue) {
    // Free choice over atoms involving position 0; atoms among positions 1..w
    // are inherited from the existing bag (same elements).
    uint64_t fixed = 0;
    std::vector<size_t> free_atoms;
    uint64_t base_pattern = Entries(up)[static_cast<size_t>(id)].bag_pattern;
    for (size_t i = 0; i < atom_space_.size(); ++i) {
      if (atom_space_[i].involves_position0) {
        free_atoms.push_back(i);
      } else if ((base_pattern >> i) & 1) {
        fixed |= uint64_t{1} << i;
      }
    }
    for (uint64_t choice = 0; choice < (uint64_t{1} << free_atoms.size());
         ++choice) {
      uint64_t pattern = fixed;
      for (size_t j = 0; j < free_atoms.size(); ++j) {
        if ((choice >> j) & 1) pattern |= uint64_t{1} << free_atoms[j];
      }
      TypeId old_type = Entries(up)[static_cast<size_t>(id)].type;
      TypeId t;
      auto cache_it = replace_cache_.find({old_type, pattern});
      if (cache_it != replace_cache_.end()) {
        t = cache_it->second;
        // The entry may still be missing in this direction; build the witness
        // only if needed.
        if (!Index(up).count(t)) {
          TREEDL_ASSIGN_OR_RETURN(
              Witness w,
              ReplaceWitness(Entries(up)[static_cast<size_t>(id)].witness,
                             pattern));
          TREEDL_ASSIGN_OR_RETURN(auto interned,
                                  InternEntry(up, t, std::move(w)));
          if (interned.second) queue->push_back(interned.first);
        }
      } else {
        TREEDL_ASSIGN_OR_RETURN(
            Witness w,
            ReplaceWitness(Entries(up)[static_cast<size_t>(id)].witness,
                           pattern));
        TREEDL_ASSIGN_OR_RETURN(t, TypeOf(w));
        replace_cache_.emplace(std::make_pair(old_type, pattern), t);
        TREEDL_ASSIGN_OR_RETURN(auto interned, InternEntry(up, t, std::move(w)));
        if (interned.second) queue->push_back(interned.first);
      }

      Rule rule;
      rule.head = Atom{EntryPred(up, Index(up).at(t)), {V(v_)}};
      rule.body.push_back(Literal{BagAtom(v_), true});
      rule.body.push_back(Literal{
          up ? MakeAtom("child1", {V(v1_), V(v_)})
             : MakeAtom("child1", {V(v_), V(v1_)}),
          true});
      rule.body.push_back(Literal{Atom{EntryPred(up, id), {V(v1_)}}, true});
      rule.body.push_back(Literal{BagAtom(v1_, nullptr, &xr_), true});
      AppendPatternLiterals(pattern, &rule.body);
      AddRuleDeduped(std::move(rule));
    }
    return Status::OK();
  }

  Status ExtendUpBranches(int id, std::deque<int>* queue) {
    // Pair the entry with every current entry (including itself), both child
    // orders. Only EDB-consistent pairs merge.
    size_t current = up_.size();
    for (size_t other = 0; other < current; ++other) {
      for (auto [left, right] :
           {std::make_pair(static_cast<size_t>(id), other),
            std::make_pair(other, static_cast<size_t>(id))}) {
        if (up_[left].bag_pattern != up_[right].bag_pattern) continue;
        TREEDL_ASSIGN_OR_RETURN(
            TypeId t, MergedType(up_[left].type, up_[right].type,
                                 up_[left].witness, up_[right].witness));
        if (!up_index_.count(t)) {
          TREEDL_ASSIGN_OR_RETURN(
              Witness w, MergeWitnesses(up_[left].witness, up_[right].witness));
          TREEDL_ASSIGN_OR_RETURN(auto interned,
                                  InternEntry(true, t, std::move(w)));
          if (interned.second) queue->push_back(interned.first);
        }

        Rule rule;
        rule.head = Atom{EntryPred(true, up_index_.at(t)), {V(v_)}};
        rule.body.push_back(Literal{BagAtom(v_), true});
        rule.body.push_back(Literal{MakeAtom("child1", {V(v1_), V(v_)}), true});
        rule.body.push_back(Literal{Atom{up_[left].predicate, {V(v1_)}}, true});
        rule.body.push_back(Literal{MakeAtom("child2", {V(v2_), V(v_)}), true});
        rule.body.push_back(Literal{Atom{up_[right].predicate, {V(v2_)}}, true});
        rule.body.push_back(Literal{BagAtom(v1_), true});
        rule.body.push_back(Literal{BagAtom(v2_), true});
        AddRuleDeduped(std::move(rule));
      }
    }
    return Status::OK();
  }

  Status ExtendDownBranches(int id, std::deque<int>* queue) {
    // Combine the Θ↓ entry (envelope of the branch node) with every Θ↑ entry
    // (the sibling's subtree); Θ↑ is fully saturated by now.
    for (size_t other = 0; other < up_.size(); ++other) {
      const Entry& up_entry = up_[other];
      if (down_[static_cast<size_t>(id)].bag_pattern != up_entry.bag_pattern) {
        continue;
      }
      TypeId td = down_[static_cast<size_t>(id)].type;
      TREEDL_ASSIGN_OR_RETURN(
          TypeId t,
          MergedType(td, up_entry.type,
                     down_[static_cast<size_t>(id)].witness, up_entry.witness));
      if (!down_index_.count(t)) {
        TREEDL_ASSIGN_OR_RETURN(
            Witness w, MergeWitnesses(down_[static_cast<size_t>(id)].witness,
                                      up_entry.witness));
        TREEDL_ASSIGN_OR_RETURN(auto interned,
                                InternEntry(false, t, std::move(w)));
        if (interned.second) queue->push_back(interned.first);
      }

      PredicateId new_pred = EntryPred(false, down_index_.at(t));
      PredicateId down_pred = down_[static_cast<size_t>(id)].predicate;
      // Two rules: the node being typed is the first or the second child.
      {
        Rule rule;
        rule.head = Atom{new_pred, {V(v1_)}};
        rule.body.push_back(Literal{BagAtom(v1_), true});
        rule.body.push_back(Literal{MakeAtom("child1", {V(v1_), V(v_)}), true});
        rule.body.push_back(Literal{MakeAtom("child2", {V(v2_), V(v_)}), true});
        rule.body.push_back(Literal{Atom{down_pred, {V(v_)}}, true});
        rule.body.push_back(Literal{Atom{up_entry.predicate, {V(v2_)}}, true});
        rule.body.push_back(Literal{BagAtom(v_), true});
        rule.body.push_back(Literal{BagAtom(v2_), true});
        AddRuleDeduped(std::move(rule));
      }
      {
        Rule rule;
        rule.head = Atom{new_pred, {V(v2_)}};
        rule.body.push_back(Literal{BagAtom(v2_), true});
        rule.body.push_back(Literal{MakeAtom("child1", {V(v1_), V(v_)}), true});
        rule.body.push_back(Literal{MakeAtom("child2", {V(v2_), V(v_)}), true});
        rule.body.push_back(Literal{Atom{down_pred, {V(v_)}}, true});
        rule.body.push_back(Literal{Atom{up_entry.predicate, {V(v1_)}}, true});
        rule.body.push_back(Literal{BagAtom(v_), true});
        rule.body.push_back(Literal{BagAtom(v1_), true});
        AddRuleDeduped(std::move(rule));
      }
    }
    return Status::OK();
  }

  /// Type of the glued structure, memoized on the pair of part types (sound
  /// by Lemma 3.5(3)/3.6(3): the parts' types determine the whole's type).
  StatusOr<TypeId> MergedType(TypeId left_type, TypeId right_type,
                              const Witness& left, const Witness& right) {
    auto it = merge_cache_.find({left_type, right_type});
    if (it != merge_cache_.end()) return it->second;
    TREEDL_ASSIGN_OR_RETURN(Witness w, MergeWitnesses(left, right));
    TREEDL_ASSIGN_OR_RETURN(TypeId t, TypeOf(w));
    merge_cache_.emplace(std::make_pair(left_type, right_type), t);
    return t;
  }

  // --- selection (proof part 3) ----------------------------------------------------

  Status EmitElementSelection() {
    PredicateId phi_p = program_.signature().PredicateIdOf("phi").value();
    for (const Entry& up_entry : up_) {
      for (const Entry& down_entry : down_) {
        if (up_entry.bag_pattern != down_entry.bag_pattern) continue;
        TREEDL_ASSIGN_OR_RETURN(
            Witness w, MergeWitnesses(up_entry.witness, down_entry.witness));
        for (int i = 0; i <= W(); ++i) {
          TREEDL_ASSIGN_OR_RETURN(
              bool sat, mso::EvaluateUnary(w.a, *phi_, free_var_,
                                           w.bag[static_cast<size_t>(i)]));
          if (!sat) continue;
          Rule rule;
          rule.head = Atom{phi_p, {V(x_[static_cast<size_t>(i)])}};
          rule.body.push_back(Literal{Atom{up_entry.predicate, {V(v_)}}, true});
          rule.body.push_back(Literal{Atom{down_entry.predicate, {V(v_)}}, true});
          rule.body.push_back(Literal{BagAtom(v_), true});
          AddRuleDeduped(std::move(rule));
        }
      }
    }
    return Status::OK();
  }

  Status EmitSentenceSelection() {
    PredicateId phi_p = program_.signature().PredicateIdOf("phi").value();
    for (const Entry& entry : up_) {
      TREEDL_ASSIGN_OR_RETURN(bool sat,
                              mso::EvaluateSentence(entry.witness.a, *phi_));
      if (!sat) continue;
      Rule rule;
      rule.head = Atom{phi_p, {}};
      rule.body.push_back(Literal{MakeAtom("root", {V(v_)}), true});
      rule.body.push_back(Literal{Atom{entry.predicate, {V(v_)}}, true});
      AddRuleDeduped(std::move(rule));
    }
    return Status::OK();
  }

  // --- state -----------------------------------------------------------------------

  Signature tau_;
  mso::FormulaPtr phi_;
  std::string free_var_;
  bool unary_;
  Mso2DlOptions options_;
  int k_ = 0;
  mso::TypeComputer types_;
  Program program_;

  datalog::VariableId v_ = 0, v1_ = 0, v2_ = 0, xr_ = 0;
  std::vector<datalog::VariableId> x_;
  std::vector<PosAtom> atom_space_;

  std::vector<Entry> up_, down_;
  std::map<TypeId, int> up_index_, down_index_;

  // Composition memo tables, shared between directions (the operations act on
  // (structure, tuple) pairs and are oblivious to the Θ↑/Θ↓ role).
  std::map<std::pair<TypeId, std::vector<int>>, TypeId> perm_cache_;
  std::map<std::pair<TypeId, uint64_t>, TypeId> replace_cache_;
  std::map<std::pair<TypeId, TypeId>, TypeId> merge_cache_;
  std::set<std::string> emitted_rules_;
};

}  // namespace

StatusOr<Mso2DlResult> MsoToDatalog(const Signature& tau,
                                    const mso::FormulaPtr& phi,
                                    const std::string& free_var,
                                    const Mso2DlOptions& options) {
  mso::FreeVariables free = mso::ComputeFreeVariables(*phi);
  if (free.fo != std::set<std::string>{free_var} || !free.so.empty()) {
    return Status::InvalidArgument(
        "formula must have exactly the free individual variable " + free_var);
  }
  Builder builder(tau, phi, free_var, /*unary=*/true, options);
  return builder.Build();
}

StatusOr<Mso2DlResult> MsoToDatalogSentence(const Signature& tau,
                                            const mso::FormulaPtr& phi,
                                            const Mso2DlOptions& options) {
  mso::FreeVariables free = mso::ComputeFreeVariables(*phi);
  if (!free.fo.empty() || !free.so.empty()) {
    return Status::InvalidArgument("formula must be a sentence");
  }
  Builder builder(tau, phi, "", /*unary=*/false, options);
  return builder.Build();
}

}  // namespace treedl::mso2dl
