// §5.3: the two-pass PRIMALITY enumeration is linear in the input, while
// re-running the §5.2 decision per attribute is quadratic. Prints a table of
// both times and their ratio over growing balanced instances, then the
// parallel profile of the largest instance: the sharded two-pass run
// (threads = 8) must reproduce the sequential prime bits exactly, and both
// evict the same dead tables.
//
// Flags: --quick shrinks the instance ladder for CI; --json <path> writes
// the deterministic counters (states, shard counts, table bytes, evictions —
// no wall-clock, so a 1-CPU runner produces meaningful, comparable
// artifacts).
#include <cstdio>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "engine/engine.hpp"
#include "schema/generators.hpp"

namespace treedl {
namespace {

struct BenchConfig {
  int max_fds = 64;
  const char* json_path = nullptr;
};

double Once(const std::function<void()>& run) {
  Timer timer;
  run();
  return timer.ElapsedMillis();
}

RunStats RunOnce(const BalancedInstance& inst, size_t num_threads,
                 std::vector<bool>* primes) {
  EngineOptions options;
  options.decomposition = inst.td;
  options.num_threads = num_threads;
  Engine engine(inst.schema, options);
  RunStats run;
  auto result = engine.AllPrimes(&run);
  TREEDL_CHECK(result.ok()) << result.status();
  *primes = std::move(*result);
  return run;
}

}  // namespace

void RunEnumerationBench(const BenchConfig& config) {
  std::printf("PRIMALITY enumeration: linear two-pass vs quadratic re-rooting\n");
  std::printf("%6s %5s %12s %14s %8s\n", "#Att", "#FD", "two-pass ms",
              "per-attr ms", "ratio");
  for (int g = 2; g <= config.max_fds; g *= 2) {
    BalancedInstance inst = GenerateBalancedInstance(g);
    std::vector<bool> linear_result;
    std::vector<bool> quadratic_result(
        static_cast<size_t>(inst.schema.NumAttributes()));
    EngineOptions options;
    options.decomposition = inst.td;
    // Two sessions, each with its encoding warmed, so both arms start from
    // the same prebuilt state. The quadratic arm's session never runs
    // AllPrimes, so every IsPrime re-roots, normalizes and decides.
    Engine linear(inst.schema, options);
    Engine quadratic(inst.schema, options);
    TREEDL_CHECK(linear.structure().ok() && quadratic.structure().ok());
    double linear_ms = Once([&] {
      auto r = linear.AllPrimes();
      TREEDL_CHECK(r.ok()) << r.status();
      linear_result = std::move(*r);
    });
    double quadratic_ms = Once([&] {
      for (AttributeId a = 0; a < inst.schema.NumAttributes(); ++a) {
        auto r = quadratic.IsPrime(a);
        TREEDL_CHECK(r.ok()) << r.status();
        quadratic_result[static_cast<size_t>(a)] = *r;
      }
    });
    TREEDL_CHECK(linear_result == quadratic_result)
        << "enumeration engines disagree";
    std::printf("%6d %5d %12.2f %14.2f %7.1fx\n",
                inst.schema.NumAttributes(), inst.schema.NumFds(), linear_ms,
                quadratic_ms, quadratic_ms / std::max(linear_ms, 1e-3));
  }
  std::printf("\n(the ratio should grow roughly linearly with the instance "
              "size)\n");

  // Parallel profile on the largest instance: bit-identical prime vectors
  // and evictions at both thread counts, deterministic counters for the
  // artifact.
  BalancedInstance inst = GenerateBalancedInstance(config.max_fds);
  std::vector<bool> expected;
  std::vector<bool> primes;
  RunStats sequential = RunOnce(inst, 1, &expected);
  RunStats parallel = RunOnce(inst, 8, &primes);
  TREEDL_CHECK(primes == expected)
      << "prime bits diverged from the sequential run";
  TREEDL_CHECK(parallel.dp_tables_evicted == sequential.dp_tables_evicted)
      << "the sharded run evicted other tables than the sequential one";
  std::printf(
      "\nlargest instance (#FD=%d): states=%zu  sharded walks (threads=8): "
      "%zu shard tasks  table_peak %zuB, %zu tables evicted\n",
      config.max_fds, sequential.dp_states, parallel.primality_shards,
      sequential.dp_peak_table_bytes, sequential.dp_tables_evicted);

  if (config.json_path != nullptr) {
    FILE* out = std::fopen(config.json_path, "w");
    TREEDL_CHECK(out != nullptr) << "cannot open " << config.json_path;
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"enumeration\",\n"
                 "  \"num_fds\": %d,\n"
                 "  \"num_attributes\": %d,\n"
                 "  \"dp_states\": %zu,\n"
                 "  \"primality_shards_parallel\": %zu,\n"
                 "  \"peak_table_bytes\": %zu,\n"
                 "  \"tables_evicted\": %zu\n"
                 "}\n",
                 config.max_fds, inst.schema.NumAttributes(),
                 sequential.dp_states, parallel.primality_shards,
                 sequential.dp_peak_table_bytes, sequential.dp_tables_evicted);
    std::fclose(out);
    std::printf("  wrote %s\n", config.json_path);
  }
}

}  // namespace treedl

int main(int argc, char** argv) {
  treedl::BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config.max_fds = 16;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      config.json_path = argv[++i];
    }
  }
  treedl::RunEnumerationBench(config);
  return 0;
}
