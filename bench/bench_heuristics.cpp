// Decomposition-quality ablation: min-fill vs min-degree against the exact
// treewidth on random graphs (the substitution for Bodlaender's algorithm
// documented in docs/ARCHITECTURE.md).
//
// Flags: --quick shrinks the graph count for CI; --json <path> additionally
// writes the deterministic quality counters (total widths per heuristic and
// the exact total — no wall-clock, so the artifact is comparable across
// runners). --scale instead prints only the wall-clock of min-fill and
// min-degree (order plus DecompositionFromOrder) on partial 5-trees of
// n = 2000 and 4000, where a superlinear heuristic shows; it writes no JSON.
#include <cstdio>
#include <cstring>

#include "common/timer.hpp"
#include "graph/generators.hpp"
#include "td/heuristics.hpp"

namespace treedl {
namespace {

struct BenchConfig {
  int graphs = 32;
  int vertices = 14;
  uint64_t seed = 99;
  const char* json_path = nullptr;
  bool scale = false;
};

struct HeuristicRow {
  const char* name;
  TdHeuristic heuristic;
};

/// Deterministic quality totals over the graph family. Every field is an
/// exact integer counter — the regression gate diffs these.
struct QualityTotals {
  size_t exact_width = 0;
  size_t min_fill_width = 0;
  size_t min_degree_width = 0;
};

size_t WidthOf(const Graph& graph, TdHeuristic heuristic) {
  auto td = Decompose(graph, heuristic);
  TREEDL_CHECK(td.ok()) << td.status();
  return static_cast<size_t>(td->Width());
}

QualityTotals CollectTotals(const std::vector<Graph>& graphs,
                            const std::vector<int>& exact) {
  QualityTotals totals;
  for (size_t i = 0; i < graphs.size(); ++i) {
    totals.exact_width += static_cast<size_t>(exact[i]);
    totals.min_fill_width += WidthOf(graphs[i], TdHeuristic::kMinFill);
    totals.min_degree_width += WidthOf(graphs[i], TdHeuristic::kMinDegree);
  }
  return totals;
}

void PrintTable(const BenchConfig& config, const std::vector<Graph>& graphs,
                const std::vector<int>& exact) {
  std::printf("Tree-decomposition heuristics vs exact treewidth\n");
  std::printf("(%d random partial 3-trees, n = %d)\n", config.graphs,
              config.vertices);
  std::printf("%10s %10s %10s %12s\n", "heuristic", "avg width", "excess",
              "time ms/graph");
  for (HeuristicRow row :
       {HeuristicRow{"min-fill", TdHeuristic::kMinFill},
        HeuristicRow{"min-degree", TdHeuristic::kMinDegree}}) {
    double total_width = 0, total_excess = 0;
    Timer timer;
    for (size_t i = 0; i < graphs.size(); ++i) {
      auto td = Decompose(graphs[i], row.heuristic);
      TREEDL_CHECK(td.ok());
      total_width += td->Width();
      total_excess += td->Width() - exact[static_cast<size_t>(i)];
    }
    double ms = timer.ElapsedMillis() / static_cast<double>(graphs.size());
    std::printf("%10s %10.2f %10.2f %12.3f\n", row.name,
                total_width / static_cast<double>(graphs.size()),
                total_excess / static_cast<double>(graphs.size()), ms);
  }
  double avg_exact = 0;
  for (int w : exact) avg_exact += w;
  std::printf("%10s %10.2f\n", "exact",
              avg_exact / static_cast<double>(exact.size()));
}

void WriteJson(const BenchConfig& config, const QualityTotals& totals) {
  FILE* out = std::fopen(config.json_path, "w");
  TREEDL_CHECK(out != nullptr) << "cannot open " << config.json_path;
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"heuristics\",\n"
               "  \"vertices\": %d,\n"
               "  \"seed\": %llu,\n"
               "  \"graphs\": %d,\n"
               "  \"exact_width_total\": %zu,\n"
               "  \"min_fill_width_total\": %zu,\n"
               "  \"min_degree_width_total\": %zu\n"
               "}\n",
               config.vertices, static_cast<unsigned long long>(config.seed),
               config.graphs, totals.exact_width, totals.min_fill_width,
               totals.min_degree_width);
  std::fclose(out);
  std::printf("  wrote %s\n", config.json_path);
}

void RunScaleRows(const BenchConfig& config) {
  std::printf("Large-n decomposition time, RandomPartialKTree(n, 5, 0.55)\n");
  std::printf("%6s %10s %6s %10s\n", "n", "heuristic", "width", "ms");
  for (size_t n : {2000, 4000}) {
    Rng rng(config.seed + n);
    Graph graph = RandomPartialKTree(n, 5, 0.55, &rng);
    for (HeuristicRow row :
         {HeuristicRow{"min-fill", TdHeuristic::kMinFill},
          HeuristicRow{"min-degree", TdHeuristic::kMinDegree}}) {
      Timer timer;
      auto td = Decompose(graph, row.heuristic);
      double ms = timer.ElapsedMillis();
      TREEDL_CHECK(td.ok()) << td.status();
      std::printf("%6zu %10s %6d %10.1f\n", n, row.name, td->Width(), ms);
    }
  }
}

void RunHeuristicsBench(const BenchConfig& config) {
  if (config.scale) {
    RunScaleRows(config);
    return;
  }
  Rng rng(config.seed);
  std::vector<Graph> graphs;
  std::vector<int> exact;
  for (int i = 0; i < config.graphs; ++i) {
    graphs.push_back(RandomPartialKTree(config.vertices, 3, 0.75, &rng));
    exact.push_back(ExactTreewidth(graphs.back()).value());
  }
  PrintTable(config, graphs, exact);
  if (config.json_path != nullptr) {
    WriteJson(config, CollectTotals(graphs, exact));
  }
}

}  // namespace
}  // namespace treedl

int main(int argc, char** argv) {
  treedl::BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config.graphs = 16;
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      config.scale = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      config.json_path = argv[++i];
    }
  }
  treedl::RunHeuristicsBench(config);
  return 0;
}
