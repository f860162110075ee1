// A single Solve at num_threads = 1/2/4/8: one partial k-tree instance, the
// same Solve queries per thread count, wall-clock and ratio to the 1-thread
// row. Every graph-DP walk is one sequential core::RunDp chunk, and a Solve
// never starts the session pool, so every row walks the same way: the rows
// should read ~1x and dp_shards 0 (the counter gate pins the 0). SolveAll's
// concurrent walks are timed by bench_solve_all. Table caches are warmed
// before timing so the rows compare pure DP traversals, not decomposition
// builds.
//
// The bench also prints the modeled load balance (slowest shard cost / mean
// shard cost) of the cost-aware sharding that the §5.3 enumeration walks,
// computed on this instance's normal form — a deterministic,
// machine-independent view of the cost model.
//
// Flags: --quick shrinks the instance for CI; --json <path> writes the
// deterministic counters (shard counts, balance ratio, states, table
// bytes — no wall-clock, so a 1-CPU runner produces comparable artifacts).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "td/normalize.hpp"
#include "td/shard.hpp"

namespace treedl {
namespace {

struct BenchConfig {
  size_t vertices = 3000;
  int treewidth = 6;
  double keep_probability = 0.55;
  uint64_t seed = 20260727;
  int repeats = 3;
  const char* json_path = nullptr;
};

double TimeSolves(const BenchConfig& config, Engine& engine,
                  RunStats* last_run) {
  Timer timer;
  for (int repeat = 0; repeat < config.repeats; ++repeat) {
    auto vc = engine.Solve(Engine::Problem::kVertexCover, last_run);
    TREEDL_CHECK(vc.ok()) << vc.status();
    auto count = engine.Solve(Engine::Problem::kThreeColorCount);
    TREEDL_CHECK(count.ok()) << count.status();
  }
  return timer.ElapsedMillis();
}

struct Balance {
  size_t shards = 0;
  double slowest_over_mean = 0;
};

/// Modeled cost balance of `sharding`: slowest shard cost / mean shard cost.
Balance ModeledBalance(const BagSharding& sharding) {
  Balance out;
  out.shards = sharding.NumShards();
  if (out.shards == 0) return out;
  uint64_t total = 0;
  uint64_t slowest = 0;
  for (const BagShard& shard : sharding.shards) {
    total += shard.cost;
    slowest = std::max(slowest, shard.cost);
  }
  double mean = static_cast<double>(total) / static_cast<double>(out.shards);
  out.slowest_over_mean = static_cast<double>(slowest) / mean;
  return out;
}

void RunParallelDpBench(const BenchConfig& config) {
  Rng rng(config.seed);
  Graph graph = RandomPartialKTree(config.vertices, config.treewidth,
                                   config.keep_probability, &rng);
  std::printf("parallel tree DP: partial %d-tree, n=%zu, keep=%.2f "
              "(%d x {VC, #3COL} per row)\n",
              config.treewidth, config.vertices, config.keep_probability,
              config.repeats);
  std::printf("hardware threads: %u\n\n",
              std::thread::hardware_concurrency());

  // Deterministic sharding balance on the session's normal form.
  Balance by_cost;
  {
    Engine engine = Engine::FromGraph(graph);
    auto td = engine.Decomposition();
    TREEDL_CHECK(td.ok()) << td.status();
    auto ntd = Normalize(**td);
    TREEDL_CHECK(ntd.ok()) << ntd.status();
    constexpr size_t kTargetShards = 16;  // 4 threads x 4 shards/thread
    by_cost = ModeledBalance(ComputeBagShardingByCost(*ntd, kTargetShards));
    std::printf("cost-aware sharding balance (slowest/mean modeled cost, "
                "target %zu): %.2fx over %zu shards\n\n",
                kTargetShards, by_cost.slowest_over_mean, by_cost.shards);
  }

  std::printf("%8s %8s %10s %8s %10s\n", "threads", "shards", "time ms",
              "ratio", "states");

  double baseline = 0;
  RunStats sequential_run;
  RunStats parallel_run;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    EngineOptions options;
    options.num_threads = threads;
    options.extract_witness = false;
    Engine engine = Engine::FromGraph(graph, options);
    // Warm the session caches (decomposition, normal form).
    auto warm = engine.Solve(Engine::Problem::kVertexCover);
    TREEDL_CHECK(warm.ok()) << warm.status();

    RunStats run;
    double ms = TimeSolves(config, engine, &run);
    if (threads == 1) {
      baseline = ms;
      sequential_run = run;
    }
    if (threads == 4) parallel_run = run;
    std::printf("%8zu %8zu %10.1f %7.2fx %10zu\n", threads, run.dp_shards, ms,
                baseline / ms, run.dp_states);
  }

  if (config.json_path != nullptr) {
    FILE* out = std::fopen(config.json_path, "w");
    TREEDL_CHECK(out != nullptr) << "cannot open " << config.json_path;
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"parallel_dp\",\n"
                 "  \"vertices\": %zu,\n"
                 "  \"treewidth\": %d,\n"
                 "  \"seed\": %llu,\n"
                 "  \"dp_states\": %zu,\n"
                 "  \"dp_shards\": %zu,\n"
                 "  \"peak_table_bytes\": %zu,\n"
                 "  \"balance_by_cost\": %.4f,\n"
                 "  \"shards_by_cost\": %zu\n"
                 "}\n",
                 config.vertices, config.treewidth,
                 static_cast<unsigned long long>(config.seed),
                 parallel_run.dp_states, parallel_run.dp_shards,
                 sequential_run.dp_peak_table_bytes,
                 by_cost.slowest_over_mean, by_cost.shards);
    std::fclose(out);
    std::printf("  wrote %s\n", config.json_path);
  }
}

}  // namespace
}  // namespace treedl

int main(int argc, char** argv) {
  treedl::BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config.vertices = 600;
      config.repeats = 1;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      config.json_path = argv[++i];
    }
  }
  treedl::RunParallelDpBench(config);
  return 0;
}
