// MSO pipeline demo (Thm 4.5 end to end):
//   1. evaluate stock MSO formulas directly on small structures;
//   2. compile a rank-1 unary query over a unary signature into a
//      quasi-guarded monadic datalog program over τ_td;
//   3. run the program on A_td and compare against direct evaluation.
#include <iostream>

#include "datalog/analysis.hpp"
#include "engine/engine.hpp"
#include "graph/gaifman.hpp"
#include "graph/generators.hpp"
#include "mso/evaluator.hpp"
#include "mso/formulas.hpp"
#include "mso/parser.hpp"
#include "mso2dl/mso_to_datalog.hpp"

int main() {
  using namespace treedl;

  // 1. Direct evaluation: 3-colorability as an MSO sentence.
  mso::FormulaPtr three_col = mso::ThreeColorabilitySentence();
  std::cout << "3COL sentence (quantifier depth "
            << mso::QuantifierDepth(*three_col) << "):\n  "
            << mso::ToString(*three_col) << "\n\n";
  for (auto [name, graph] :
       {std::pair<std::string, Graph>{"K3", CompleteGraph(3)},
        {"K4", CompleteGraph(4)},
        {"C5", CycleGraph(5)}}) {
    auto verdict = mso::EvaluateSentence(GraphToStructure(graph), *three_col);
    std::cout << "  " << name << " |= 3COL: "
              << (verdict.ok() ? (*verdict ? "yes" : "no")
                               : verdict.status().ToString())
              << "\n";
  }

  // 2. Generic MSO -> monadic datalog (Thm 4.5) for a rank-1 query over the
  // unary signature {p/1}: "x is marked, and it is not the only mark".
  Signature unary = Signature::Make({{"p", 1}}).value();
  auto phi = mso::ParseFormula("p(x) & (ex1 y: (~(y = x) & p(y)))");
  mso2dl::Mso2DlOptions options;
  options.width = 1;
  auto compiled = mso2dl::MsoToDatalog(unary, *phi, "x", options);
  if (!compiled.ok()) {
    std::cerr << "construction failed: " << compiled.status() << "\n";
    return 1;
  }
  std::cout << "\nThm 4.5 construction: rank " << compiled->rank << ", "
            << compiled->num_up_types << " bottom-up types, "
            << compiled->num_down_types << " top-down types, "
            << compiled->program.NumRules() << " rules; quasi-guarded: "
            << (datalog::CheckQuasiGuarded(compiled->program).ok() ? "yes"
                                                                   : "no")
            << "\n";

  // 3. Run the same query through an Engine session on a small
  // {p}-structure: the engine compiles via Thm 4.5, builds the τ_td
  // structure from the session decomposition, and evaluates the program
  // semi-naively.
  Structure a(unary);
  for (int i = 0; i < 6; ++i) a.AddElement("u" + std::to_string(i));
  (void)a.AddFact(0, {1});
  (void)a.AddFact(0, {4});
  TreeDecomposition td;
  TdNodeId prev = td.AddNode({0, 1});
  for (ElementId e = 1; e + 1 < 6; ++e) prev = td.AddNode({e, e + 1}, prev);

  EngineOptions session_options;
  // Unary structures have an edgeless Gaifman graph, so supply the path
  // decomposition explicitly.
  session_options.decomposition = td;
  Engine session{Structure(a), session_options};
  auto via_engine = session.EvaluateMsoUnary(*phi, "x");
  if (!via_engine.ok()) {
    std::cerr << "engine evaluation failed: " << via_engine.status() << "\n";
    return 1;
  }
  std::cout << "\nφ(x) = p(x) & ∃y (y≠x & p(y)) on {u1, u4 marked}:\n";
  for (ElementId e = 0; e < a.NumElements(); ++e) {
    bool via_datalog = (*via_engine)[e];
    bool direct = mso::EvaluateUnary(a, **phi, "x", e).value_or(false);
    std::cout << "  " << a.ElementName(e) << ": datalog=" << via_datalog
              << " direct=" << direct
              << (via_datalog == direct ? "" : "  MISMATCH!") << "\n";
  }

  // 4. The paper's motivation, demonstrated: the same construction over the
  // binary signature {e/2} state-explodes (budget guards report it).
  mso2dl::Mso2DlOptions tight = options;
  tight.max_types = 256;
  auto exploded = mso2dl::MsoToDatalog(Signature::GraphSignature(),
                                       mso::HasNeighborQuery("x"), "x", tight);
  std::cout << "\nSame construction over τ = {e/2}: "
            << exploded.status().ToString()
            << "\n(this is the state explosion of §1 — the reason §5 uses "
               "hand-crafted programs)\n";
  return 0;
}
