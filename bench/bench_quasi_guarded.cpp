// Thm 4.4: quasi-guarded datalog evaluates in O(|P|·|A|). Compares three
// evaluators on a quasi-guarded τ_td program over growing path inputs: the
// grounded pipeline (ground via the guards + LTUR), the compiled semi-naive
// engine that the Engine runs (its delta-first variant plans keep it linear
// too: the growth column should read about 2x per doubling of n), and the
// naive oracle. Each time is the median of kRepeats runs, so the growth
// column reads through a noisy host.
//
// Flags: --quick shrinks the input ladder for CI; --json <path> writes the
// deterministic counters of the largest instance (derived facts, fixpoint
// rounds/tasks, compiled plans, executor dispatches, ground clauses/atoms —
// no wall-clock, so a 1-CPU runner produces meaningful, comparable
// artifacts). Every evaluator is called directly (datalog::GroundedEvaluate,
// SemiNaiveEvaluate, NaiveEvaluate) on one prebuilt τ_td structure.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "common/logging.hpp"
#include "common/timer.hpp"
#include "datalog/eval.hpp"
#include "datalog/grounder.hpp"
#include "datalog/parser.hpp"
#include "datalog/tau_td.hpp"
#include "graph/gaifman.hpp"
#include "graph/generators.hpp"
#include "td/heuristics.hpp"
#include "td/normalize.hpp"

namespace treedl {
namespace {

struct BenchConfig {
  size_t max_vertices = 512;
  const char* json_path = nullptr;
};

constexpr const char* kProgram =
    "good(V) :- bag(V, X0, X1), leaf(V), e(X0, X1).\n"
    "good(V) :- bag(V, X0, X1), child1(V1, V), good(V1), bag(V1, Y0, Y1).\n"
    "good(V) :- bag(V, X0, X1), child1(V1, V), child2(V2, V), good(V1), "
    "good(V2), bag(V1, X0, X1), bag(V2, X0, X1).\n"
    "success :- root(V), good(V).\n";

Structure Atd(size_t n) {
  Graph g = PathGraph(n);
  Structure a = GraphToStructure(g);
  auto raw = DecomposeStructure(a);
  TREEDL_CHECK(raw.ok());
  auto tuple = NormalizeTuple(*raw);
  TREEDL_CHECK(tuple.ok());
  auto atd = datalog::BuildTauTd(a, *tuple);
  TREEDL_CHECK(atd.ok());
  return std::move(atd->structure);
}

constexpr int kRepeats = 5;

/// Median wall-clock of kRepeats calls of `run`, in ms.
double MedianMillis(const std::function<void()>& run) {
  std::vector<double> millis;
  for (int i = 0; i < kRepeats; ++i) {
    Timer timer;
    run();
    millis.push_back(timer.ElapsedMillis());
  }
  std::nth_element(millis.begin(), millis.begin() + kRepeats / 2,
                   millis.end());
  return millis[kRepeats / 2];
}

using Evaluator = StatusOr<Structure> (*)(const datalog::Program&,
                                          const Structure&, RunStats*,
                                          WorkBudget*);

RunStats Evaluate(Evaluator evaluate, const datalog::Program& program,
                  const Structure& atd, Structure* model) {
  RunStats run;
  auto result = evaluate(program, atd, &run, nullptr);
  TREEDL_CHECK(result.ok()) << result.status();
  if (model != nullptr) *model = std::move(*result);
  return run;
}

}  // namespace

void RunQuasiGuardedBench(const BenchConfig& config) {
  auto program = datalog::ParseProgram(kProgram);
  TREEDL_CHECK(program.ok());

  std::printf("Quasi-guarded tau_td over path graphs: grounded LTUR vs "
              "compiled semi-naive vs naive (median of %d runs)\n",
              kRepeats);
  std::printf("%6s %6s %12s %12s %9s %12s\n", "n", "|Atd|", "grounded ms",
              "seminaive ms", "growth", "naive ms");
  double previous_seminaive_ms = -1.0;
  for (size_t n = 16; n <= config.max_vertices; n *= 2) {
    Structure atd = Atd(n);
    Structure grounded_model{Signature()}, seminaive_model{Signature()},
        naive_model{Signature()};
    double grounded_ms = MedianMillis([&] {
      Evaluate(&datalog::GroundedEvaluate, *program, atd, &grounded_model);
    });
    double seminaive_ms = MedianMillis([&] {
      Evaluate(&datalog::SemiNaiveEvaluate, *program, atd, &seminaive_model);
    });
    // Semi-naive time per doubling of n: about 2x when linear.
    char growth[16] = "-";
    if (previous_seminaive_ms > 0) {
      std::snprintf(growth, sizeof(growth), "%.2fx",
                    seminaive_ms / previous_seminaive_ms);
    }
    previous_seminaive_ms = seminaive_ms;
    // Naive evaluation is quadratic-ish in rounds; keep sizes smaller.
    double naive_ms = -1.0;
    if (n <= 128) {
      naive_ms = MedianMillis([&] {
        auto result = datalog::NaiveEvaluate(*program, atd);
        TREEDL_CHECK(result.ok()) << result.status();
        naive_model = std::move(*result);
      });
      TREEDL_CHECK(naive_model == seminaive_model)
          << "n=" << n << ": naive and semi-naive models diverged";
    }
    TREEDL_CHECK(grounded_model == seminaive_model)
        << "n=" << n << ": grounded and semi-naive models diverged";
    if (naive_ms >= 0) {
      std::printf("%6zu %6zu %12.2f %12.2f %9s %12.2f\n", n, atd.NumFacts(),
                  grounded_ms, seminaive_ms, growth, naive_ms);
    } else {
      std::printf("%6zu %6zu %12.2f %12.2f %9s %12s\n", n, atd.NumFacts(),
                  grounded_ms, seminaive_ms, growth, "-");
    }
  }
  std::printf("\n(grounded scales linearly per Thm 4.4, and so does the "
              "compiled semi-naive\n engine; naive pays a full "
              "re-derivation per round)\n");

  // Deterministic counter profile of the largest instance.
  Structure atd = Atd(config.max_vertices);
  RunStats grounded =
      Evaluate(&datalog::GroundedEvaluate, *program, atd, nullptr);
  RunStats sequential =
      Evaluate(&datalog::SemiNaiveEvaluate, *program, atd, nullptr);
  std::printf(
      "\nlargest instance (n=%zu): derived=%zu rounds=%zu rule_tasks=%zu "
      "plans=%zu dispatches=%zu  grounded: clauses=%zu atoms=%zu guards=%zu\n",
      config.max_vertices, sequential.derived_facts,
      sequential.fixpoint_rounds, sequential.fixpoint_rule_tasks,
      sequential.plan_compiles, sequential.executor_dispatches,
      grounded.ground_clauses, grounded.ground_atoms,
      grounded.guard_instantiations);

  if (config.json_path != nullptr) {
    FILE* out = std::fopen(config.json_path, "w");
    TREEDL_CHECK(out != nullptr) << "cannot open " << config.json_path;
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"quasi_guarded\",\n"
                 "  \"vertices\": %zu,\n"
                 "  \"atd_facts\": %zu,\n"
                 "  \"derived_facts\": %zu,\n"
                 "  \"fixpoint_rounds\": %zu,\n"
                 "  \"fixpoint_rule_tasks\": %zu,\n"
                 "  \"plan_compiles\": %zu,\n"
                 "  \"executor_dispatches\": %zu,\n"
                 "  \"ground_clauses\": %zu,\n"
                 "  \"ground_atoms\": %zu,\n"
                 "  \"guard_instantiations\": %zu\n"
                 "}\n",
                 config.max_vertices, atd.NumFacts(),
                 sequential.derived_facts, sequential.fixpoint_rounds,
                 sequential.fixpoint_rule_tasks, sequential.plan_compiles,
                 sequential.executor_dispatches, grounded.ground_clauses,
                 grounded.ground_atoms, grounded.guard_instantiations);
    std::fclose(out);
    std::printf("  wrote %s\n", config.json_path);
  }
}

}  // namespace treedl

int main(int argc, char** argv) {
  treedl::BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config.max_vertices = 128;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      config.json_path = argv[++i];
    }
  }
  treedl::RunQuasiGuardedBench(config);
  return 0;
}
