// Reproduces Table 1 (§6): PRIMALITY processing time, monadic-datalog
// approach ("MD") versus the MSO-model-checking route ("MSO", standing in
// for MONA — see docs/ARCHITECTURE.md: same exponential data complexity, same
// out-of-budget failure mode, reported as "—").
//
// Instances follow the paper's generator: balanced normalized width-3
// decompositions with all node kinds, #Att = 3·#FD, rows at the paper's
// sizes. Absolute times differ from 2007 hardware; the shape to verify is
// MD ≈ linear milliseconds vs MSO exploding and failing from tiny sizes.
//
// Flags: --quick shrinks the row ladder for CI; --json <path> writes the
// deterministic counters of the largest row (instance shape, normalized
// node count, DP states — no wall-clock, so the artifact is comparable
// across runners).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "common/timer.hpp"
#include "core/primality_internal.hpp"
#include "engine/engine.hpp"
#include "mso/evaluator.hpp"
#include "mso/formulas.hpp"
#include "schema/generators.hpp"
#include "td/normalize.hpp"

namespace treedl {
namespace {

// Node count of the normalized decomposition actually traversed (the paper's
// "#tn" counts normalized tree nodes).
size_t NormalizedNodeCount(const BalancedInstance& inst) {
  core::internal::PrimalityContext context(inst.schema, inst.encoding);
  TreeDecomposition closed =
      core::internal::CloseBagsForRhs(inst.td, inst.encoding, context);
  auto norm = Normalize(closed, core::internal::PrimalityNormalizeOptions(
                                    inst.encoding, false));
  return norm.ok() ? norm->NumNodes() : 0;
}

double MedianOfThree(const std::function<double()>& run) {
  double a = run(), b = run(), c = run();
  double lo = std::min({a, b, c}), hi = std::max({a, b, c});
  return a + b + c - lo - hi;
}

struct BenchConfig {
  std::vector<int> groups = {1, 2, 3, 4, 7, 11, 15, 19, 23, 27, 31};
  const char* json_path = nullptr;
};

}  // namespace

void RunTable1(const BenchConfig& config) {
  std::printf("Table 1 — PRIMALITY processing time (ms)\n");
  std::printf("%3s %6s %5s %6s %10s %12s %12s\n", "tw", "#Att", "#FD", "#tn",
              "MD", "MD(engine)", "MSO(MONA*)");
  const uint64_t kMsoBudget = 200'000'000;  // the stand-in's "memory"
  mso::FormulaPtr phi = mso::PrimalityFormula("x");

  for (int g : config.groups) {
    BalancedInstance inst = GenerateBalancedInstance(g);
    size_t tn = NormalizedNodeCount(inst);

    // MD: the §5.2 decision program for the designated query attribute on a
    // fresh session per run — encoding, validation, rhs-closure, re-root,
    // normalize and the DP all counted.
    EngineOptions engine_options;
    engine_options.decomposition = inst.td;
    double md_ms = MedianOfThree([&] {
      Timer timer;
      auto result =
          Engine(inst.schema, engine_options).IsPrime(inst.query_attribute);
      TREEDL_CHECK(result.ok() && *result);
      return timer.ElapsedMillis();
    });

    // MD through a warm Engine session: the encoding, decomposition and
    // rhs-closure are cached, so only re-root + normalize + DP remain.
    Engine engine(inst.schema, engine_options);
    TREEDL_CHECK(engine.IsPrime(inst.query_attribute).ok());  // warm the cache
    double engine_ms = MedianOfThree([&] {
      Timer timer;
      auto result = engine.IsPrime(inst.query_attribute);
      TREEDL_CHECK(result.ok() && *result);
      return timer.ElapsedMillis();
    });

    // MSO stand-in: direct model checking of φ(x) with a work budget.
    double mso_ms = -1.0;
    {
      Timer timer;
      mso::EvalOptions options;
      options.work_budget = kMsoBudget;
      ElementId a_elem = inst.encoding.AttrElement(inst.query_attribute);
      auto verdict = mso::EvaluateUnary(inst.encoding.structure, *phi, "x",
                                        a_elem, options);
      if (verdict.ok()) {
        TREEDL_CHECK(*verdict);
        mso_ms = timer.ElapsedMillis();
      }
    }

    if (mso_ms >= 0) {
      std::printf("%3d %6d %5d %6zu %10.2f %12.2f %12.1f\n", inst.td.Width(),
                  inst.schema.NumAttributes(), inst.schema.NumFds(), tn, md_ms,
                  engine_ms, mso_ms);
    } else {
      std::printf("%3d %6d %5d %6zu %10.2f %12.2f %12s\n", inst.td.Width(),
                  inst.schema.NumAttributes(), inst.schema.NumFds(), tn, md_ms,
                  engine_ms, "—");
    }
  }
  std::printf(
      "\n(*) naive MSO model checking with a %.0fM-step budget, standing in\n"
      "    for MONA: identical exponential data complexity and failure mode\n"
      "    (paper: 650/9210/17930 ms then out-of-memory from #Att >= 12).\n",
      200.0);

  if (config.json_path != nullptr) {
    // Deterministic shape/counter profile of the largest row.
    int g = config.groups.back();
    BalancedInstance inst = GenerateBalancedInstance(g);
    size_t tn = NormalizedNodeCount(inst);
    EngineOptions engine_options;
    engine_options.decomposition = inst.td;
    Engine engine(inst.schema, engine_options);
    RunStats run;
    auto verdict = engine.IsPrime(inst.query_attribute, &run);
    TREEDL_CHECK(verdict.ok() && *verdict);
    FILE* out = std::fopen(config.json_path, "w");
    TREEDL_CHECK(out != nullptr) << "cannot open " << config.json_path;
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"table1\",\n"
                 "  \"num_fds\": %d,\n"
                 "  \"num_attributes\": %d,\n"
                 "  \"treewidth\": %d,\n"
                 "  \"normalized_nodes\": %zu,\n"
                 "  \"dp_states\": %zu,\n"
                 "  \"dp_max_states_per_node\": %zu\n"
                 "}\n",
                 inst.schema.NumFds(), inst.schema.NumAttributes(),
                 inst.td.Width(), tn, run.dp_states,
                 run.dp_max_states_per_node);
    std::fclose(out);
    std::printf("  wrote %s\n", config.json_path);
  }
}

}  // namespace treedl

int main(int argc, char** argv) {
  treedl::BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config.groups = {1, 2, 3, 4, 7};
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      config.json_path = argv[++i];
    }
  }
  treedl::RunTable1(config);
  return 0;
}
