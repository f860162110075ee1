// Differential test harness for the compiled datalog executors.
//
// The compiled semi-naive engine (columnar FactStore + JoinPlan executors)
// is pinned against two independent implementations of the same semantics:
// the interpreted naive oracle (tuple-at-a-time ApplyRule) and — on
// quasi-guarded programs — the Thm 4.4 grounded-LTUR pipeline. Randomized
// program/EDB instances are generated from TestSeed()-derived seeds, so
// every failure reproduces from the logged seed; the model must agree
// across engines and the compiled work counters with the oracle's. Adversarial bound patterns and parser-level garbage
// must compile or reject cleanly — never crash, never diverge.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "datalog/analysis.hpp"
#include "datalog/database.hpp"
#include "datalog/eval.hpp"
#include "datalog/eval_internal.hpp"
#include "datalog/grounder.hpp"
#include "datalog/parser.hpp"
#include "datalog/tau_td.hpp"
#include "graph/gaifman.hpp"
#include "graph/generators.hpp"
#include "structure/structure.hpp"
#include "td/heuristics.hpp"
#include "td/normalize.hpp"

#include "test_util.hpp"

namespace treedl::datalog {
namespace {

// --- Columnar FactStore unit coverage ---------------------------------------

Signature TwoPredSignature() {
  auto sig = Signature::Make({{"e", 2}, {"flag", 0}});
  EXPECT_TRUE(sig.ok());
  return *sig;
}

TEST(FactStoreTest, AddDeduplicatesAndCounts) {
  FactStore store(TwoPredSignature());
  EXPECT_TRUE(store.Add(0, {1, 2}));
  EXPECT_FALSE(store.Add(0, {1, 2}));
  EXPECT_TRUE(store.Add(0, {2, 1}));
  EXPECT_EQ(store.NumTuples(0), 2u);
  EXPECT_EQ(store.TotalFacts(), 2u);
  EXPECT_TRUE(store.Contains(0, {1, 2}));
  EXPECT_FALSE(store.Contains(0, {3, 3}));
  EXPECT_EQ(store.Row(0, 1), (Tuple{2, 1}));
}

TEST(FactStoreTest, NullaryRelationEdgeCase) {
  FactStore store(TwoPredSignature());
  EXPECT_FALSE(store.Contains(1, {}));
  EXPECT_TRUE(store.Add(1, {}));
  EXPECT_FALSE(store.Add(1, {}));
  EXPECT_TRUE(store.Contains(1, {}));
  EXPECT_EQ(store.NumTuples(1), 1u);
  EXPECT_EQ(store.FindRow(1, {}), 0u);
}

TEST(FactStoreTest, ProbeChainsPreserveInsertionOrder) {
  // Many rows share the first-column key; the probed chain must enumerate
  // them in exactly row-insertion order — the invariant the compiled
  // executors' determinism rests on.
  FactStore store(TwoPredSignature());
  Rng rng(TestSeed());
  std::vector<uint32_t> expected;
  for (uint32_t i = 0; i < 200; ++i) {
    ElementId first = static_cast<ElementId>(rng.UniformInt(0, 3));
    if (store.Add(0, {first, i})) {
      if (first == 2) expected.push_back(store.NumTuples(0) - 1);
    }
  }
  store.EnsureIndex(0, 0b01);
  ElementId key[] = {2};
  std::vector<uint32_t> chained;
  for (uint32_t row = store.Probe(0, 0b01, key); row != FactStore::kNoRow;
       row = store.NextRow(0, 0b01, row)) {
    chained.push_back(row);
  }
  EXPECT_EQ(chained, expected);
  // An index built after the fact (lazily, by Probe) sees the same chain.
  ElementId key2[] = {2};
  std::vector<uint32_t> lazy;
  for (uint32_t row = store.Probe(0, 0b10, &key2[0]);
       row != FactStore::kNoRow; row = store.NextRow(0, 0b10, row)) {
    lazy.push_back(row);
  }
  EXPECT_LE(lazy.size(), 1u);  // second column holds distinct values
}

TEST(FactStoreTest, MultiColumnProbeMatchesFilteredScan) {
  auto sig = Signature::Make({{"t", 3}});
  ASSERT_TRUE(sig.ok());
  FactStore store(*sig);
  Rng rng(TestSeed());
  for (int i = 0; i < 300; ++i) {
    store.Add(0, {static_cast<ElementId>(rng.UniformInt(0, 4)),
                  static_cast<ElementId>(rng.UniformInt(0, 4)),
                  static_cast<ElementId>(rng.UniformInt(0, 4))});
  }
  for (ElementId a = 0; a <= 4; ++a) {
    for (ElementId c = 0; c <= 4; ++c) {
      std::vector<uint32_t> scanned;
      for (uint32_t row = 0; row < store.NumTuples(0); ++row) {
        if (store.At(0, 0, row) == a && store.At(0, 2, row) == c) {
          scanned.push_back(row);
        }
      }
      ElementId key[] = {a, c};
      std::vector<uint32_t> probed;
      for (uint32_t row = store.Probe(0, 0b101, key);
           row != FactStore::kNoRow; row = store.NextRow(0, 0b101, row)) {
        probed.push_back(row);
      }
      EXPECT_EQ(probed, scanned) << "key (" << a << ", " << c << ")";
    }
  }
}

// --- Randomized differential harness -----------------------------------------

struct Instance {
  std::string program_text;
  Structure edb{Signature()};
};

/// One randomized program + EDB. The general family mixes the adversarial
/// shapes: all-free atoms, repeated variables, constants in any (or every)
/// position, nullary predicates, extensional negation, ground facts. The
/// quasi-guarded family puts every rule variable into one extensional guard
/// atom so the grounded pipeline is applicable.
Instance RandomInstance(Rng* rng, bool quasi_guarded) {
  const size_t num_elements = 3 + rng->UniformIndex(5);
  std::vector<std::string> elements;
  for (size_t i = 0; i < num_elements; ++i) {
    elements.push_back("n" + std::to_string(i));
  }

  // Extensional predicate table (name, arity).
  std::vector<std::pair<std::string, int>> edb_preds;
  const size_t num_edb = 1 + rng->UniformIndex(3);
  for (size_t i = 0; i < num_edb; ++i) {
    int arity = quasi_guarded ? 3 : static_cast<int>(rng->UniformIndex(4));
    edb_preds.emplace_back("e" + std::to_string(i), arity);
  }

  // Intensional predicate table.
  std::vector<std::pair<std::string, int>> idb_preds;
  const size_t num_idb = 1 + rng->UniformIndex(3);
  for (size_t i = 0; i < num_idb; ++i) {
    idb_preds.emplace_back("i" + std::to_string(i),
                           static_cast<int>(rng->UniformIndex(3)));
  }

  const size_t num_vars = 2 + rng->UniformIndex(3);
  auto var = [&](size_t v) { return "X" + std::to_string(v); };
  auto constant = [&](Rng* r) { return elements[r->UniformIndex(elements.size())]; };

  std::string text;
  const size_t num_rules = num_idb + rng->UniformIndex(4);
  for (size_t r = 0; r < num_rules; ++r) {
    const auto& head = idb_preds[r % num_idb];
    // Occasionally a ground fact.
    if (!quasi_guarded && rng->Bernoulli(0.1)) {
      text += head.first;
      if (head.second > 0) {
        text += "(";
        for (int i = 0; i < head.second; ++i) {
          text += (i > 0 ? ", " : "") + constant(rng);
        }
        text += ")";
      }
      text += ".\n";
      continue;
    }

    std::set<size_t> positive_vars;
    std::vector<std::string> body;
    if (quasi_guarded) {
      // Guard: one extensional atom holding every rule variable (arity 3
      // caps the variable budget for this family).
      const auto& guard = edb_preds[rng->UniformIndex(edb_preds.size())];
      std::string atom = guard.first + "(";
      for (int i = 0; i < guard.second; ++i) {
        size_t v = static_cast<size_t>(i);
        positive_vars.insert(v);
        atom += (i > 0 ? ", " : "") + var(v);
      }
      body.push_back(atom + ")");
    }
    const size_t extra = (quasi_guarded ? 0 : 1) + rng->UniformIndex(3);
    for (size_t b = 0; b < extra; ++b) {
      bool use_idb = rng->Bernoulli(0.4);
      const auto& pred = use_idb
                             ? idb_preds[rng->UniformIndex(idb_preds.size())]
                             : edb_preds[rng->UniformIndex(edb_preds.size())];
      std::string atom = pred.first;
      if (pred.second > 0) {
        atom += "(";
        for (int i = 0; i < pred.second; ++i) {
          if (i > 0) atom += ", ";
          // In the guarded family every variable must come from the guard.
          if (rng->Bernoulli(quasi_guarded ? 0.15 : 0.25)) {
            atom += constant(rng);
          } else {
            size_t v = quasi_guarded && !positive_vars.empty()
                           ? *std::next(positive_vars.begin(),
                                        static_cast<long>(rng->UniformIndex(
                                            positive_vars.size())))
                           : rng->UniformIndex(num_vars);
            if (!use_idb || quasi_guarded) positive_vars.insert(v);
            atom += var(v);
          }
        }
        atom += ")";
      }
      body.push_back(atom);
    }
    // In the general family, IDB body literals may have introduced
    // variables too; they count as positively bound.
    // Optional extensional negative filter over already-bound variables.
    if (!positive_vars.empty() && rng->Bernoulli(0.3)) {
      const auto& pred = edb_preds[rng->UniformIndex(edb_preds.size())];
      std::string atom = "not " + pred.first;
      if (pred.second > 0) {
        atom += "(";
        for (int i = 0; i < pred.second; ++i) {
          if (i > 0) atom += ", ";
          if (rng->Bernoulli(0.3)) {
            atom += constant(rng);
          } else {
            atom += var(*std::next(
                positive_vars.begin(),
                static_cast<long>(rng->UniformIndex(positive_vars.size()))));
          }
        }
        atom += ")";
      }
      body.push_back(atom);
    }

    // Head arguments: bound variables or constants.
    text += head.first;
    if (head.second > 0) {
      text += "(";
      for (int i = 0; i < head.second; ++i) {
        if (i > 0) text += ", ";
        if (positive_vars.empty() || rng->Bernoulli(0.2)) {
          text += constant(rng);
        } else {
          text += var(*std::next(
              positive_vars.begin(),
              static_cast<long>(rng->UniformIndex(positive_vars.size()))));
        }
      }
      text += ")";
    }
    text += " :- ";
    for (size_t b = 0; b < body.size(); ++b) {
      text += (b > 0 ? ", " : "") + body[b];
    }
    text += ".\n";
  }

  // The EDB over the same extensional predicate table.
  Instance inst;
  inst.program_text = text;
  auto sig = Signature::Make(edb_preds);
  EXPECT_TRUE(sig.ok());
  inst.edb = Structure(*sig);
  for (const std::string& name : elements) inst.edb.AddElement(name);
  for (PredicateId p = 0; p < inst.edb.signature().size(); ++p) {
    int arity = inst.edb.signature().arity(p);
    size_t facts = rng->UniformIndex(arity == 0 ? 2 : 12);
    for (size_t f = 0; f < facts; ++f) {
      Tuple t(static_cast<size_t>(arity));
      for (auto& value : t) {
        value = static_cast<ElementId>(rng->UniformIndex(num_elements));
      }
      if (!inst.edb.HasFact(p, t)) {
        EXPECT_TRUE(inst.edb.AddFact(p, t).ok());
      }
    }
  }
  return inst;
}

/// Evaluates one instance on every engine and pins models + counters.
/// Returns false when the program was (consistently) rejected.
void CheckInstance(const Instance& inst, bool try_grounded,
                   size_t* accepted) {
  auto program = ParseProgram(inst.program_text);
  ASSERT_TRUE(program.ok()) << program.status() << "\n" << inst.program_text;

  RunStats naive_run;
  auto naive = NaiveEvaluate(*program, inst.edb, &naive_run);

  RunStats seq_run;
  auto seq = SemiNaiveEvaluate(*program, inst.edb, &seq_run);

  // Accept/reject must agree across engines (and never crash).
  ASSERT_EQ(naive.ok(), seq.ok()) << inst.program_text;
  if (!naive.ok()) return;
  ++*accepted;

  // Model: compiled engine == interpreted oracle.
  EXPECT_TRUE(*naive == *seq) << inst.program_text;

  // Counters: dispatch accounting matches the interpreted work measure.
  EXPECT_EQ(seq_run.executor_dispatches, seq_run.rule_applications);
  EXPECT_EQ(seq_run.derived_facts, naive_run.derived_facts);

  if (try_grounded && CheckQuasiGuarded(*program).ok()) {
    auto grounded = GroundedEvaluate(*program, inst.edb);
    ASSERT_TRUE(grounded.ok()) << grounded.status() << inst.program_text;
    EXPECT_TRUE(*grounded == *naive) << inst.program_text;
  }
}

TEST(DatalogExecutorTest, DifferentialGeneralPrograms) {
  size_t accepted = 0;
  for (uint64_t trial = 0; trial < 60; ++trial) {
    Rng rng(TestSeed(trial));
    Instance inst = RandomInstance(&rng, /*quasi_guarded=*/false);
    CheckInstance(inst, /*try_grounded=*/false, &accepted);
  }
  // The generator builds range-restricted, safely-negated programs; most
  // must be accepted or the harness is vacuous.
  EXPECT_GE(accepted, 50u);
}

TEST(DatalogExecutorTest, DifferentialQuasiGuardedPrograms) {
  size_t accepted = 0;
  for (uint64_t trial = 0; trial < 40; ++trial) {
    Rng rng(TestSeed(trial));
    Instance inst = RandomInstance(&rng, /*quasi_guarded=*/true);
    CheckInstance(inst, /*try_grounded=*/true, &accepted);
  }
  EXPECT_GE(accepted, 35u);
}

// --- Adversarial bound patterns ----------------------------------------------

TEST(DatalogExecutorTest, AdversarialBoundPatterns) {
  // All-free atoms (full scans), repeated variables (in-atom equality),
  // constants in every position, nullary predicates, and negation — each
  // shape through both engines at both thread counts.
  const char* programs[] = {
      // All-free cross product + repeated variable head join.
      "pair(X, Y) :- e0(X), e1(Y).\n"
      "diag(X) :- pair(X, X).\n",
      // Constants in every position of a body atom and of a head.
      "hit :- e2(n0, n1).\n"
      "fixed(n2) :- hit, e0(n2).\n",
      // Repeated variables inside one atom, twice.
      "loop(X) :- e2(X, X), not e1(X).\n"
      "two(X, Y) :- e2(X, Y), e2(Y, X), pairvia(Y).\n"
      "pairvia(Y) :- e1(Y).\n",
      // Nullary chain: nullary IDB feeding a nullary IDB.
      "a :- e0(X).\n"
      "b :- a, e1(X).\n"
      "c :- b, a.\n",
      // Recursion with a constant anchor and a repeated-variable filter.
      "r(X) :- e2(n0, X).\n"
      "r(Y) :- r(X), e2(X, Y), not e2(Y, Y).\n",
  };
  for (uint64_t p = 0; p < sizeof(programs) / sizeof(programs[0]); ++p) {
    Rng rng(TestSeed(p));
    for (int trial = 0; trial < 5; ++trial) {
      auto sig = Signature::Make({{"e0", 1}, {"e1", 1}, {"e2", 2}});
      ASSERT_TRUE(sig.ok());
      Instance inst;
      inst.program_text = programs[p];
      inst.edb = Structure(*sig);
      const size_t n = 4;
      for (size_t i = 0; i < n; ++i) {
        inst.edb.AddElement("n" + std::to_string(i));
      }
      for (PredicateId pred = 0; pred < 3; ++pred) {
        int arity = inst.edb.signature().arity(pred);
        for (int f = 0; f < 6; ++f) {
          Tuple t(static_cast<size_t>(arity));
          for (auto& value : t) {
            value = static_cast<ElementId>(rng.UniformIndex(n));
          }
          if (!inst.edb.HasFact(pred, t)) {
            ASSERT_TRUE(inst.edb.AddFact(pred, t).ok());
          }
        }
      }
      size_t accepted = 0;
      CheckInstance(inst, /*try_grounded=*/false, &accepted);
      EXPECT_EQ(accepted, 1u) << programs[p];
    }
  }
}

// --- Parser-level garbage ----------------------------------------------------

TEST(DatalogExecutorTest, ParserGarbageCompilesOrRejectsCleanly) {
  // Random token soup: ParseProgram either rejects with a Status or yields
  // a program that both engines evaluate to the same model. Never a crash.
  const char* alphabet = "abcXYZ01(),.:-_ \n\t\\+ないnot";
  const size_t alpha_len = std::string(alphabet).size();
  size_t parsed = 0;
  for (uint64_t trial = 0; trial < 200; ++trial) {
    Rng rng(TestSeed(trial));
    std::string text;
    size_t len = rng.UniformIndex(120);
    for (size_t i = 0; i < len; ++i) {
      text += alphabet[rng.UniformIndex(alpha_len)];
    }
    auto program = ParseProgram(text);
    if (!program.ok()) continue;
    ++parsed;
    Structure edb{Signature()};  // empty EDB: domain comes from constants
    auto naive = NaiveEvaluate(*program, edb);
    auto semi = SemiNaiveEvaluate(*program, edb);
    ASSERT_EQ(naive.ok(), semi.ok()) << text;
    if (naive.ok()) {
      EXPECT_TRUE(*naive == *semi) << text;
    }
  }
  // Mutated valid programs: splice random damage into a known-good text.
  const std::string base =
      "path(X, Y) :- e(X, Y).\npath(X, Z) :- e(X, Y), path(Y, Z).\n";
  for (uint64_t trial = 0; trial < 100; ++trial) {
    Rng rng(TestSeed(1000 + trial));
    std::string text = base;
    size_t edits = 1 + rng.UniformIndex(4);
    for (size_t e = 0; e < edits; ++e) {
      size_t at = rng.UniformIndex(text.size());
      if (rng.Bernoulli(0.5)) {
        text[at] = alphabet[rng.UniformIndex(alpha_len)];
      } else {
        text.erase(at, 1);
      }
    }
    auto program = ParseProgram(text);
    if (!program.ok()) continue;
    Structure edb{Signature()};
    auto naive = NaiveEvaluate(*program, edb);
    auto semi = SemiNaiveEvaluate(*program, edb);
    ASSERT_EQ(naive.ok(), semi.ok()) << text;
    if (naive.ok()) {
      EXPECT_TRUE(*naive == *semi) << text;
    }
  }
  (void)parsed;  // any parse rate is fine; the property is "no crash"
}

// --- Reordered recursive rules ---------------------------------------------

TEST(DatalogExecutorTest, EdbFirstRecursiveRuleMatchesNaive) {
  // The recursive rule is *written* EDB-first. The analyzer's
  // intensional-first full plan puts path(Y, Z) at plan position 0 (a delta
  // variant starts from its delta whatever the full plan's order); the
  // model must still equal the naive oracle's.
  auto program = ParseProgram(
      "path(X, Y) :- e(X, Y).\n"
      "path(X, Z) :- e(X, Y), path(Y, Z).\n");
  ASSERT_TRUE(program.ok());
  auto info = AnalyzeProgram(*program);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->plans[1], (std::vector<size_t>{1, 0}));

  auto sig = Signature::Make({{"e", 2}});
  ASSERT_TRUE(sig.ok());
  Structure edb(*sig);
  const size_t n = 40;  // chain: deltas grow to hundreds of facts
  for (size_t i = 0; i < n; ++i) edb.AddElement("v" + std::to_string(i));
  for (size_t i = 0; i + 1 < n; ++i) {
    ASSERT_TRUE(edb.AddFact(0, {static_cast<ElementId>(i),
                                static_cast<ElementId>(i + 1)})
                    .ok());
  }

  RunStats semi_run;
  auto semi = SemiNaiveEvaluate(*program, edb, &semi_run);
  ASSERT_TRUE(semi.ok());
  auto naive = NaiveEvaluate(*program, edb);
  ASSERT_TRUE(naive.ok());
  EXPECT_TRUE(*naive == *semi);
  EXPECT_EQ(semi_run.derived_facts, n * (n - 1) / 2);
}

// --- Delta-first variant plans ---------------------------------------------

// Semi-naive stays linear on a quasi-guarded τ_td program: each delta
// variant starts from its delta literal and joins outward through the
// child/bag atoms. With the full plan's order for every variant, the branch
// rule's good(V2) variant would scan all of good(V1) in every round, and
// executor dispatches would grow about 4x per doubling of the path.
TEST(DatalogExecutorTest, DeltaFirstVariantsKeepQuasiGuardedFixpointLinear) {
  auto program = ParseProgram(
      "good(V) :- bag(V, X0, X1), leaf(V), e(X0, X1).\n"
      "good(V) :- bag(V, X0, X1), child1(V1, V), good(V1), "
      "bag(V1, Y0, Y1).\n"
      "good(V) :- bag(V, X0, X1), child1(V1, V), child2(V2, V), good(V1), "
      "good(V2), bag(V1, X0, X1), bag(V2, X0, X1).\n"
      "success :- root(V), good(V).\n");
  ASSERT_TRUE(program.ok()) << program.status();
  ASSERT_TRUE(CheckQuasiGuarded(*program).ok());

  size_t previous_dispatches = 0;
  for (size_t n : {size_t{64}, size_t{128}, size_t{256}}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    Structure a = GraphToStructure(PathGraph(n));
    auto td = DecomposeStructure(a);
    ASSERT_TRUE(td.ok()) << td.status();
    auto tuple_td = NormalizeTuple(*td);
    ASSERT_TRUE(tuple_td.ok()) << tuple_td.status();
    auto atd = BuildTauTd(a, *tuple_td);
    ASSERT_TRUE(atd.ok()) << atd.status();

    auto prep = internal::Prepare(*program, atd->structure);
    ASSERT_TRUE(prep.ok()) << prep.status();
    const CompiledRule& branch = prep->compiled[2];
    ASSERT_EQ(branch.delta_variants.size(), 2u);
    for (const JoinPlan& variant : branch.delta_variants) {
      for (size_t step = 0; step < variant.steps.size(); ++step) {
        EXPECT_EQ(variant.steps[step].spec.is_delta, step == 0);
      }
    }

    RunStats run;
    auto semi = SemiNaiveEvaluate(*program, atd->structure, &run);
    ASSERT_TRUE(semi.ok()) << semi.status();
    auto grounded = GroundedEvaluate(*program, atd->structure);
    ASSERT_TRUE(grounded.ok()) << grounded.status();
    EXPECT_TRUE(*semi == *grounded);
    EXPECT_GT(run.derived_facts, n);
    if (previous_dispatches > 0) {
      EXPECT_LE(2 * run.executor_dispatches, 5 * previous_dispatches)
          << run.executor_dispatches << " dispatches after "
          << previous_dispatches;
    }
    previous_dispatches = run.executor_dispatches;
  }
}

}  // namespace
}  // namespace treedl::datalog
