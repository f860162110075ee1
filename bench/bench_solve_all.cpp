// SolveAll over a warm session: the five graph problems, one sequential
// core::RunDp walk each over the same cached normal form, one after another
// at 1 thread vs all five at once on a 4-thread session pool, with the
// live-table peak and the tables the walks evicted; the minor page
// faults of a warm DS solve (the library recycles its table memory, so a
// warm solve faults almost nothing in); and the SaveSession/LoadSession cost
// next to the artifact-build cost it amortizes away; and one warm 3COL
// walk on tree fans of doubling size (graph/generators.hpp: a hub adjacent
// to every vertex of a binary tree, width 2), with the growth per doubling:
// a linear walk reads about 2x.
//
// Caches are warmed before timing, so the SolveAll rows time pure traversal
// work. At 1 thread SolveAll runs exactly the five Solve walks one after
// another, so a 5 x Solve row would time the same code and is not reported.
// The 4-thread row's dp_shards reads 0: no graph-DP walk is sharded.
//
// Flags: --quick shrinks the instance for CI; --json <path> additionally
// writes the deterministic counters (states, traversals, table bytes,
// evictions — no wall-clock, no page faults and no fan rows, so a 1-CPU
// runner produces meaningful, comparable artifacts).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"

namespace treedl {
namespace {

struct BenchConfig {
  size_t vertices = 2000;
  int treewidth = 5;
  double keep_probability = 0.55;
  uint64_t seed = 20260727;
  int repeats = 5;
  const char* json_path = nullptr;
};

RunStats BenchOneThreadCount(const BenchConfig& config, const Graph& graph,
                             size_t num_threads) {
  EngineOptions options;
  options.num_threads = num_threads;
  options.extract_witness = false;  // time the DPs, not witness walks
  Engine engine = Engine::FromGraph(graph, options);
  TREEDL_CHECK(engine.Width().ok());  // warm: build TD + normal form once

  double solve_all_millis = 0;
  RunStats last;
  for (int repeat = 0; repeat < config.repeats; ++repeat) {
    Timer timer;
    auto result = engine.SolveAll(&last);
    TREEDL_CHECK(result.ok()) << result.status();
    solve_all_millis += timer.ElapsedMillis();
  }
  std::printf(
      "  threads=%zu  SolveAll: %8.2f ms (%zu traversals, %zu shards)   "
      "table_peak=%zuB  tables_evicted=%zu\n",
      num_threads, solve_all_millis / config.repeats, last.dp_traversals,
      last.dp_shards, last.dp_peak_table_bytes, last.dp_tables_evicted);
  return last;
}

/// Minor page faults per warm DS solve on one thread (getrusage). Printed
/// only: the count depends on the allocator and the host, not just the code.
void BenchWarmFaults(const BenchConfig& config, const Graph& graph) {
  EngineOptions options;
  options.num_threads = 1;
  Engine engine = Engine::FromGraph(graph, options);
  TREEDL_CHECK(engine.Solve(Engine::Problem::kDominatingSet).ok());  // warm
  const int solves = 4 * config.repeats;
  rusage before;
  getrusage(RUSAGE_SELF, &before);
  for (int i = 0; i < solves; ++i) {
    TREEDL_CHECK(engine.Solve(Engine::Problem::kDominatingSet).ok());
  }
  rusage after;
  getrusage(RUSAGE_SELF, &after);
  std::printf("  warm DS solve: %.1f minor faults per solve (%d solves)\n",
              static_cast<double>(after.ru_minflt - before.ru_minflt) / solves,
              solves);
}

void BenchSessionIo(const Graph& graph) {
  EngineOptions options;
  options.num_threads = 1;
  const std::string path = "bench_solve_all_session.tdls";

  Engine warm = Engine::FromGraph(graph, options);
  Timer build_timer;
  TREEDL_CHECK(warm.Solve(Engine::Problem::kVertexCover).ok());
  double build_millis = build_timer.ElapsedMillis();

  Timer save_timer;
  RunStats save_run;
  TREEDL_CHECK(warm.SaveSession(path, &save_run).ok());
  double save_millis = save_timer.ElapsedMillis();

  Engine cold = Engine::FromGraph(graph, options);
  Timer load_timer;
  RunStats load_run;
  TREEDL_CHECK(cold.LoadSession(path, &load_run).ok());
  double load_millis = load_timer.ElapsedMillis();
  std::remove(path.c_str());

  std::printf(
      "  session IO: first-query build %.2f ms | save %zu artifacts %.2f ms "
      "| load+validate %.2f ms (amortizes the build on every restart)\n",
      build_millis, save_run.artifact_saves, save_millis, load_millis);
}

/// Median of five warm 3COL walks (one sequential Solve each) on tree fans
/// of 5k to 40k vertices, the ratio to the previous size, and the mean
/// growth per doubling over the whole range. The hub is in about n/2 leaf
/// bags, so a walk whose node steps paid its degree would grow about 4x per
/// doubling. Printed only, not in --json.
void BenchFanWalks() {
  std::printf("  3COL walk on tree fans (hub adjacent to all, width 2):\n");
  const size_t kSizes[] = {5000, 10000, 20000, 40000};
  double first = 0;
  double previous = 0;
  for (size_t n : kSizes) {
    EngineOptions options;
    options.num_threads = 1;
    options.extract_witness = false;
    Engine engine = Engine::FromGraph(TreeFanGraph(n), options);
    TREEDL_CHECK(engine.Solve(Engine::Problem::kThreeColor).ok());  // warm
    std::vector<double> millis;
    for (int repeat = 0; repeat < 5; ++repeat) {
      Timer timer;
      TREEDL_CHECK(engine.Solve(Engine::Problem::kThreeColor).ok());
      millis.push_back(timer.ElapsedMillis());
    }
    std::sort(millis.begin(), millis.end());
    double median = millis[2];
    if (previous > 0) {
      std::printf("    n=%6zu  %8.2f ms  x%.2f\n", n, median,
                  median / previous);
    } else {
      std::printf("    n=%6zu  %8.2f ms\n", n, median);
      first = median;
    }
    previous = median;
  }
  std::printf("    mean growth per doubling: x%.2f\n",
              std::cbrt(previous / first));
}

void WriteJson(const BenchConfig& config, const RunStats& sequential,
               const RunStats& parallel) {
  FILE* out = std::fopen(config.json_path, "w");
  TREEDL_CHECK(out != nullptr) << "cannot open " << config.json_path;
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"solve_all\",\n"
               "  \"vertices\": %zu,\n"
               "  \"treewidth\": %d,\n"
               "  \"seed\": %llu,\n"
               "  \"dp_states\": %zu,\n"
               "  \"dp_traversals\": %zu,\n"
               "  \"dp_shards_parallel\": %zu,\n"
               "  \"peak_table_bytes\": %zu,\n"
               "  \"tables_evicted\": %zu\n"
               "}\n",
               config.vertices, config.treewidth,
               static_cast<unsigned long long>(config.seed),
               sequential.dp_states, sequential.dp_traversals,
               parallel.dp_shards, sequential.dp_peak_table_bytes,
               sequential.dp_tables_evicted);
  std::fclose(out);
  std::printf("  wrote %s\n", config.json_path);
}

void RunSolveAllBench(const BenchConfig& config) {
  Rng rng(config.seed);
  Graph graph = RandomPartialKTree(config.vertices, config.treewidth,
                                   config.keep_probability, &rng);
  std::printf(
      "SolveAll: partial %d-tree, n=%zu, keep=%.2f, %d repeats\n",
      config.treewidth, config.vertices, config.keep_probability,
      config.repeats);
  RunStats sequential = BenchOneThreadCount(config, graph, 1);
  RunStats parallel = BenchOneThreadCount(config, graph, 4);
  BenchWarmFaults(config, graph);
  BenchSessionIo(graph);
  BenchFanWalks();
  if (config.json_path != nullptr) {
    WriteJson(config, sequential, parallel);
  }
}

}  // namespace
}  // namespace treedl

int main(int argc, char** argv) {
  treedl::BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config.vertices = 400;
      config.repeats = 2;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      config.json_path = argv[++i];
    }
  }
  treedl::RunSolveAllBench(config);
  return 0;
}
