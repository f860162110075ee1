// The two Engine-level workloads.
//
//   cold_session — every operation builds a fresh Engine and pays its first
//                  query: two graph sessions with Solve(kThreeColor) for
//                  every schema session with AllPrimes().
//   warm_session — two sessions built during set-up serve SolveAll() and
//                  IsPrime(a) on rotating attributes, interleaved.
//
// Every answer is checked after the timed loop against an independently
// built sequential session (min-degree decomposition, one thread).
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/primality_internal.hpp"
#include "core/three_color.hpp"
#include "engine/engine.hpp"
#include "graph/gaifman.hpp"
#include "graph/generators.hpp"
#include "perfbench.hpp"
#include "schema/generators.hpp"
#include "td/heuristics.hpp"
#include "td/shard.hpp"
#include "td/validate.hpp"

namespace perfbench {

using treedl::Engine;
using treedl::Graph;
using treedl::Schema;
using treedl::StatusOr;
using treedl::ThreadPool;

namespace {

// Input shapes. cold_session: partial 5-trees and window schemas; the
// pools are cycled so one seed's median averages over several inputs.
constexpr size_t kColdGraphVertices = 450;
constexpr size_t kColdGraphs = 16;
constexpr size_t kColdSchemas = 64;
constexpr int kColdSchemaAttributes = 400;
constexpr int kSchemaWindow = 4;
constexpr int kTreewidth = 5;
constexpr double kKeepProbability = 0.55;
// warm_session: pools of warm sessions, cycled, for the same reason.
constexpr size_t kWarmGraphs = 12;
constexpr size_t kWarmGraphVertices = 400;
constexpr size_t kWarmSchemas = 12;
constexpr int kWarmSchemaAttributes = 400;
// Set-up is repeated and its median reported, so a one-off stall of the
// shared machine does not become the set-up time.
constexpr int kSetupRepeats = 3;
// Attributes whose IsPrime answer checks every AllPrimes vector.
constexpr int kPrimeSamples = 3;

template <typename T>
T Take(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    throw std::runtime_error(std::string(what) + ": " +
                             value.status().ToString());
  }
  return std::move(value).value();
}

void Require(const treedl::Status& status, const char* what) {
  if (!status.ok()) {
    throw std::runtime_error(std::string(what) + ": " + status.ToString());
  }
}

bool ProperColoring(const Graph& graph, const std::vector<int>& colors) {
  if (colors.size() != graph.NumVertices()) return false;
  for (auto [u, v] : graph.Edges()) {
    if (colors[u] == colors[v] || colors[u] < 0 || colors[u] > 2) return false;
  }
  return true;
}

bool SameAnswers(const Engine::SolveAllResult& a,
                 const Engine::SolveAllResult& b) {
  return a.three_colorable == b.three_colorable &&
         a.three_colorings == b.three_colorings &&
         a.min_vertex_cover == b.min_vertex_cover &&
         a.max_independent_set == b.max_independent_set &&
         a.min_dominating_set == b.min_dominating_set;
}

/// The independent reference: a sequential session on a min-degree
/// decomposition.
treedl::EngineOptions ReferenceOptions() {
  treedl::EngineOptions options;
  options.heuristic = treedl::TdHeuristic::kMinDegree;
  options.num_threads = 1;
  return options;
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

/// Runs `op(k)` for k = 0, 1, ... until `seconds` have passed and k is a
/// multiple of `period` (so every operation type is run equally often).
/// Returns {operations, wall seconds}.
template <typename Op>
std::pair<size_t, double> TimedLoop(double seconds, size_t period, Op op) {
  Clock::time_point start = Clock::now();
  size_t k = 0;
  while (k == 0 || k % period != 0 || MillisSince(start) < seconds * 1e3) {
    op(k);
    ++k;
  }
  return {k, MillisSince(start) / 1e3};
}

/// The Engine's own overhead: per operation, the span of the Engine call
/// ("engine.<op>") minus the span of its layer chain ("chain.<op>"), as a
/// median. Sets nothing when no Engine call ran beside the chains.
void SetEngineOverhead(const Tracer& tracer, const std::string& op,
                       const std::string& metric, Outcome* out) {
  std::vector<double> engine = tracer.Durations("engine." + op);
  std::vector<double> chain = tracer.Durations("chain." + op);
  if (engine.empty() || engine.size() != chain.size()) return;
  std::vector<double> overhead;
  for (size_t i = 0; i < engine.size(); ++i) {
    overhead.push_back(engine[i] - chain[i]);
  }
  out->Set(metric, Median(overhead), "ms");
}

/// Schema artifacts built by the explicit first-AllPrimes chain; the warm
/// workload reuses them to mirror IsPrime layer by layer.
struct SchemaChain {
  explicit SchemaChain(Schema s) : schema(std::move(s)) {}
  Schema schema;
  std::optional<treedl::SchemaEncoding> encoding;
  std::unique_ptr<treedl::core::internal::PrimalityContext> context;
  treedl::TreeDecomposition closed;
  int width = 0;
  std::vector<bool> primes;
};

/// The chain of a schema session's first AllPrimes(): EncodeSchema →
/// GaifmanGraph → Decompose → ValidateForStructure, then the enumeration
/// (rhs closure → Normalize → sharding → the two-pass DP), as the Engine
/// makes it.
std::unique_ptr<SchemaChain> RunSchemaChain(const Schema& schema,
                                            ThreadPool* pool,
                                            Tracer* tracer) {
  namespace internal = treedl::core::internal;
  Tracer::Scope chain(tracer, "chain.first_primes");
  auto out = std::make_unique<SchemaChain>(schema);
  {
    Tracer::Scope span(tracer, "schema.encode.primes");
    out->encoding.emplace(treedl::EncodeSchema(out->schema));
  }
  Graph gaifman;
  {
    Tracer::Scope span(tracer, "graph.gaifman.primes");
    gaifman = treedl::GaifmanGraph(out->encoding->structure);
  }
  treedl::TreeDecomposition td;
  {
    Tracer::Scope span(tracer, "td.decompose.primes");
    td = Take(treedl::Decompose(gaifman), "decompose schema");
  }
  out->width = td.Width();
  {
    Tracer::Scope span(tracer, "td.validate.primes");
    Require(treedl::ValidateForStructure(out->encoding->structure, td),
            "validate schema decomposition");
  }
  Tracer::Scope enumerate(tracer, "core.primes_enum");
  out->context = std::make_unique<internal::PrimalityContext>(out->schema,
                                                               *out->encoding);
  {
    Tracer::Scope span(tracer, "core.rhs_closure.primes");
    out->closed = internal::CloseBagsForRhs(td, *out->encoding, *out->context);
  }
  std::optional<treedl::NormalizedTreeDecomposition> ntd;
  {
    Tracer::Scope span(tracer, "td.normalize.primes");
    ntd = Take(treedl::Normalize(out->closed,
                                 internal::PrimalityNormalizeOptions(
                                     *out->encoding, /*for_enumeration=*/true)),
               "normalize schema decomposition");
  }
  std::optional<treedl::BagSharding> sharding;
  if (pool != nullptr) {
    Tracer::Scope span(tracer, "td.shard.primes");
    sharding = treedl::ComputeBagShardingByCost(*ntd, pool->NumThreads() * 4);
  }
  treedl::core::DpExec exec;
  exec.pool = pool;
  exec.sharding = sharding.has_value() ? &*sharding : nullptr;
  treedl::RunStats stats;
  {
    Tracer::Scope span(tracer, "core.enumerate.primes");
    out->primes = internal::EnumeratePrimesPrepared(
        *out->context, *out->encoding, out->schema.NumAttributes(), *ntd,
        &stats, exec);
  }
  return out;
}

void SetSchemaChainMetrics(const Tracer& tracer, const SchemaChain& last,
                           Outcome* out) {
  out->Set("schema.encode.primes_ms",
           Median(tracer.Durations("schema.encode.primes")), "ms");
  out->Set("td.decompose.primes_ms",
           Median(tracer.Durations("td.decompose.primes")), "ms");
  out->Set("td.width.primes", last.width, "count");
  out->Set("td.validate.primes_ms",
           Median(tracer.Durations("td.validate.primes")), "ms");
  out->Set("core.primes_enum_ms", Median(tracer.Durations("core.primes_enum")),
           "ms");
  out->Note(tracer.SelfTimeReport(
      "first_primes chain",
      {"chain.first_primes", "schema.encode.primes", "graph.gaifman.primes",
       "td.decompose.primes", "td.validate.primes", "core.primes_enum",
       "core.rhs_closure.primes", "td.normalize.primes", "td.shard.primes",
       "core.enumerate.primes"}));
  SetEngineOverhead(tracer, "first_primes", "engine.overhead.primes_ms", out);
}

}  // namespace

GraphChainResult RunGraphChain(const Graph& graph, ThreadPool* pool,
                               Tracer* tracer) {
  Tracer::Scope chain(tracer, "chain.first_3col");
  GraphChainResult out;
  std::optional<treedl::Structure> structure;
  {
    Tracer::Scope span(tracer, "structure.from_graph.3col");
    structure = treedl::GraphToStructure(graph);
  }
  Graph gaifman;
  {
    Tracer::Scope span(tracer, "graph.gaifman.3col");
    gaifman = treedl::GaifmanGraph(*structure);
  }
  treedl::TreeDecomposition td;
  {
    Tracer::Scope span(tracer, "td.decompose.3col");
    td = Take(treedl::Decompose(gaifman), "decompose graph");
  }
  out.width = td.Width();
  {
    Tracer::Scope span(tracer, "td.validate.3col");
    Require(treedl::ValidateForStructure(*structure, td),
            "validate graph decomposition");
  }
  std::optional<treedl::NormalizedTreeDecomposition> ntd;
  {
    Tracer::Scope span(tracer, "td.normalize.3col");
    ntd = Take(treedl::Normalize(td), "normalize graph decomposition");
  }
  std::optional<treedl::BagSharding> sharding;
  if (pool != nullptr) {
    Tracer::Scope span(tracer, "td.shard.3col");
    sharding = treedl::ComputeBagShardingByCost(*ntd, pool->NumThreads() * 4);
  }
  treedl::core::DpExec exec;
  exec.pool = pool;
  exec.sharding = sharding.has_value() ? &*sharding : nullptr;
  {
    Tracer::Scope span(tracer, "core.dp.3col");
    treedl::core::ThreeColorResult result =
        Take(treedl::core::SolveThreeColorNormalized(
                 gaifman, *ntd, /*extract_coloring=*/true, exec),
             "3-color DP");
    out.colorable = result.colorable;
    out.dp_states = result.stats.total_states;
  }
  return out;
}

void SetGraphChainMetrics(const Tracer& tracer, const GraphChainResult& last,
                          Outcome* out) {
  for (const char* layer :
       {"structure.from_graph.3col", "graph.gaifman.3col", "td.decompose.3col",
        "td.validate.3col", "td.normalize.3col", "td.shard.3col",
        "core.dp.3col"}) {
    out->Set(std::string(layer) + "_ms", Median(tracer.Durations(layer)),
             "ms");
  }
  out->Set("td.width.3col", last.width, "count");
  out->Set("core.dp_states.3col", static_cast<double>(last.dp_states),
           "count");
  out->Note(tracer.SelfTimeReport(
      "first_3col chain",
      {"chain.first_3col", "structure.from_graph.3col", "graph.gaifman.3col",
       "td.decompose.3col", "td.validate.3col", "td.normalize.3col",
       "td.shard.3col", "core.dp.3col"}));
  SetEngineOverhead(tracer, "first_3col", "engine.overhead.3col_ms", out);
}

// --- cold_session ------------------------------------------------------------

namespace {

struct ColdInputs {
  std::vector<Graph> graphs;
  std::vector<Schema> schemas;
};

ColdInputs MakeColdInputs(uint64_t seed) {
  treedl::Rng rng(seed);
  ColdInputs inputs;
  for (size_t i = 0; i < kColdGraphs; ++i) {
    inputs.graphs.push_back(treedl::RandomPartialKTree(
        kColdGraphVertices, kTreewidth, kKeepProbability, &rng));
  }
  for (size_t i = 0; i < kColdSchemas; ++i) {
    inputs.schemas.push_back(treedl::RandomWindowSchema(
        kColdSchemaAttributes, kColdSchemaAttributes, kSchemaWindow, &rng));
  }
  return inputs;
}

/// Runs and checks cold operations; remembers the first answer per input so
/// later answers (and the references after the loop) are compared with it.
class ColdRunner {
 public:
  explicit ColdRunner(Outcome* out) : out_(out) {}

  /// Fresh graph session + first Solve(kThreeColor); returns its latency.
  double GraphOp(const ColdInputs& inputs, size_t index, Tracer* tracer) {
    const Graph& graph = inputs.graphs[index];
    if (tracer != nullptr) tracer->BeginOp();
    Tracer::Scope op(tracer, "op.first_3col");
    std::optional<Engine> engine;
    std::optional<StatusOr<Engine::SolveResult>> result;
    Clock::time_point start = Clock::now();
    {
      Tracer::Scope span(tracer, "engine.first_3col");
      engine.emplace(Engine::FromGraph(graph));
      result.emplace(engine->Solve(Engine::Problem::kThreeColor));
    }
    double millis = MillisSince(start);
    engine.reset();
    ++out_->attempted;
    if (!result->ok()) {
      out_->Fail("Solve(3COL): " + result->status().ToString());
      return millis;
    }
    const Engine::SolveResult& answer = result->value();
    if (answer.feasible &&
        (!answer.witness.has_value() ||
         !ProperColoring(graph, *answer.witness))) {
      out_->Fail("Solve(3COL) returned an improper coloring");
    }
    auto [it, first] = colorable_.emplace(index, answer.feasible);
    if (!first && it->second != answer.feasible) {
      out_->Fail("Solve(3COL) answers disagree across sessions");
    }
    if (tracer != nullptr) {
      last_chain_ = RunGraphChain(graph, chain_pool_, tracer);
      if (last_chain_.colorable != answer.feasible) {
        out_->Fail("layer chain and Engine disagree on 3COL");
      }
    }
    return millis;
  }

  /// Fresh schema session + first AllPrimes(); returns its latency.
  double PrimesOp(const ColdInputs& inputs, size_t index, Tracer* tracer) {
    if (tracer != nullptr) tracer->BeginOp();
    Tracer::Scope op(tracer, "op.first_primes");
    std::optional<Engine> engine;
    std::optional<StatusOr<std::vector<bool>>> result;
    Clock::time_point start = Clock::now();
    {
      Tracer::Scope span(tracer, "engine.first_primes");
      engine.emplace(Schema(inputs.schemas[index]));
      result.emplace(engine->AllPrimes());
    }
    double millis = MillisSince(start);
    engine.reset();
    ++out_->attempted;
    if (!result->ok()) {
      out_->Fail("AllPrimes: " + result->status().ToString());
      return millis;
    }
    auto [it, first] = primes_.emplace(index, result->value());
    if (!first && it->second != result->value()) {
      out_->Fail("AllPrimes vectors disagree across sessions");
    }
    if (tracer != nullptr) {
      last_schema_chain_ =
          RunSchemaChain(inputs.schemas[index], chain_pool_, tracer);
      if (last_schema_chain_->primes != result->value()) {
        out_->Fail("layer chain and Engine disagree on AllPrimes");
      }
    }
    return millis;
  }

  /// Compares every remembered answer with an independent sequential
  /// session: SolveAll's 3COL bit, and IsPrime on sampled attributes.
  void Verify(const ColdInputs& inputs) {
    for (const auto& [index, colorable] : colorable_) {
      Engine reference =
          Engine::FromGraph(inputs.graphs[index], ReferenceOptions());
      StatusOr<Engine::SolveAllResult> all = reference.SolveAll();
      if (!all.ok() || all.value().three_colorable != colorable) {
        out_->Fail("3COL answer differs from the min-degree reference");
      }
    }
    for (const auto& [index, primes] : primes_) {
      Engine reference(Schema(inputs.schemas[index]), ReferenceOptions());
      int n = inputs.schemas[index].NumAttributes();
      for (int i = 0; i < kPrimeSamples; ++i) {
        int a = static_cast<int>(static_cast<int64_t>(n - 1) * i /
                                 (kPrimeSamples - 1));
        StatusOr<bool> prime = reference.IsPrime(a);
        if (!prime.ok() || prime.value() != primes[static_cast<size_t>(a)]) {
          out_->Fail("AllPrimes differs from IsPrime on attribute " +
                     std::to_string(a));
        }
      }
    }
  }

  void set_chain_pool(ThreadPool* pool) { chain_pool_ = pool; }
  const GraphChainResult& last_chain() const { return last_chain_; }
  const SchemaChain* last_schema_chain() const {
    return last_schema_chain_.get();
  }

 private:
  Outcome* out_;
  ThreadPool* chain_pool_ = nullptr;
  std::map<size_t, bool> colorable_;
  std::map<size_t, std::vector<bool>> primes_;
  GraphChainResult last_chain_;
  std::unique_ptr<SchemaChain> last_schema_chain_;
};

}  // namespace

Outcome RunColdSession(const Options& options, Tracer* tracer) {
  Outcome out;
  // The chain mirrors a default Engine, whose pool has Nproc() threads; it
  // is created only for the traced half of a traced run.
  std::unique_ptr<ThreadPool> chain_pool;
  ColdRunner runner(&out);

  std::vector<double> setup_seconds;
  ColdInputs inputs;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    Clock::time_point start = Clock::now();
    inputs = MakeColdInputs(options.seed);
    runner.GraphOp(inputs, 0, nullptr);
    runner.PrimesOp(inputs, 0, nullptr);
    setup_seconds.push_back(MillisSince(start) / 1e3);
  }

  // Two graph operations for every schema operation, interleaved.
  std::vector<double> solve_ms, query_ms;
  auto run_loop = [&](double seconds, Tracer* t) {
    size_t next_graph = 0, next_schema = 0;
    return TimedLoop(seconds, 3, [&](size_t k) {
      if (k % 3 == 2) {
        query_ms.push_back(
            runner.PrimesOp(inputs, next_schema++ % kColdSchemas, t));
      } else {
        solve_ms.push_back(
            runner.GraphOp(inputs, next_graph++ % kColdGraphs, t));
      }
    });
  };
  double timed_seconds = tracer != nullptr ? options.seconds / 2
                                           : options.seconds;
  auto [ops, wall] = run_loop(timed_seconds, nullptr);
  out.SetLatency("solve", "first_3col", solve_ms);
  out.SetLatency("query", "first_primes", query_ms);
  out.Set("ops_per_s", static_cast<double>(ops) / wall, "1/s");
  out.Set("setup_s", Median(setup_seconds), "s");

  if (tracer != nullptr) {
    double untraced_solve = Median(solve_ms), untraced_query = Median(query_ms);
    if (Nproc() > 1) chain_pool = std::make_unique<ThreadPool>(Nproc());
    runner.set_chain_pool(chain_pool.get());
    run_loop(timed_seconds, tracer);
    SetGraphChainMetrics(*tracer, runner.last_chain(), &out);
    if (runner.last_schema_chain() != nullptr) {
      SetSchemaChainMetrics(*tracer, *runner.last_schema_chain(), &out);
    }
    out.Set("trace.overhead.solve_ms",
            Median(tracer->Durations("engine.first_3col")) - untraced_solve,
            "ms");
    out.Set("trace.overhead.query_ms",
            Median(tracer->Durations("engine.first_primes")) - untraced_query,
            "ms");
  }
  runner.Verify(inputs);
  char line[200];
  std::snprintf(line, sizeof(line),
                "ops_per_s: %zu operations in %.3f s; setup_s: median of %d "
                "set-ups",
                ops, wall, kSetupRepeats);
  out.Note(line);
  return out;
}

// --- warm_session ------------------------------------------------------------

namespace {

/// A random partial k-tree (RandomPartialKTree's construction) together with
/// the width-k decomposition the construction witnesses: each new vertex
/// joins a random k-clique, its bag is that clique plus itself, hung below
/// the bag the clique came from.
struct GraphWithTd {
  Graph graph;
  treedl::TreeDecomposition td;
};

GraphWithTd PartialKTreeWithTd(size_t n, int k, double keep,
                               treedl::Rng* rng) {
  GraphWithTd out;
  Graph full(n);
  std::vector<treedl::ElementId> seed_bag;
  for (int i = 0; i <= k; ++i) {
    seed_bag.push_back(i);
    for (int j = i + 1; j <= k; ++j) full.AddEdge(i, j);
  }
  treedl::TdNodeId root = out.td.AddNode(seed_bag);
  // Attachable k-cliques, each with the bag that contains it.
  std::vector<std::pair<std::vector<treedl::VertexId>, treedl::TdNodeId>>
      cliques;
  for (int omit = 0; omit <= k; ++omit) {
    std::vector<treedl::VertexId> clique;
    for (int i = 0; i <= k; ++i) {
      if (i != omit) clique.push_back(i);
    }
    cliques.push_back({clique, root});
  }
  for (size_t v = static_cast<size_t>(k) + 1; v < n; ++v) {
    auto [clique, parent] = cliques[rng->UniformIndex(cliques.size())];
    std::vector<treedl::ElementId> bag(clique.begin(), clique.end());
    bag.push_back(static_cast<treedl::ElementId>(v));
    treedl::TdNodeId node = out.td.AddNode(bag, parent);
    for (treedl::VertexId u : clique) {
      full.AddEdge(static_cast<treedl::VertexId>(v), u);
    }
    for (size_t omit = 0; omit < clique.size(); ++omit) {
      std::vector<treedl::VertexId> next;
      for (size_t i = 0; i < clique.size(); ++i) {
        if (i != omit) next.push_back(clique[i]);
      }
      next.push_back(static_cast<treedl::VertexId>(v));
      cliques.push_back({std::move(next), node});
    }
  }
  out.graph = Graph(n);
  for (auto [u, v] : full.Edges()) {
    if (rng->Bernoulli(keep)) out.graph.AddEdge(u, v);
  }
  return out;
}

struct WarmGraph {
  GraphWithTd input;
  std::unique_ptr<Engine> engine;
  /// Traced mode: a one-thread session on the same decomposition.
  std::unique_ptr<Engine> one_thread;
  std::optional<Engine::SolveAllResult> first;
};

struct WarmSchema {
  std::optional<Schema> schema;
  std::unique_ptr<Engine> engine;
  /// IsPrime rotates through the attributes in this seeded order.
  std::vector<int> order;
  size_t next = 0;
  /// Traced mode: the artifacts the IsPrime layer mirror runs on.
  std::unique_ptr<SchemaChain> chain;
  std::map<int, bool> answers;
};

struct WarmSessions {
  std::vector<WarmGraph> graphs;
  std::vector<WarmSchema> schemas;
};

/// Builds every warm session and runs its first query. Graph sessions get
/// the generator's decomposition, so the warm loop runs the DP kernels on a
/// fixed width; schema sessions decompose as a default Engine does, and
/// their AllPrimes is never called, so IsPrime is never answered from its
/// memo.
WarmSessions BuildWarmSessions(uint64_t seed) {
  treedl::Rng rng(seed);
  WarmSessions s;
  for (size_t i = 0; i < kWarmGraphs; ++i) {
    WarmGraph g;
    g.input = PartialKTreeWithTd(kWarmGraphVertices, kTreewidth,
                                 kKeepProbability, &rng);
    treedl::EngineOptions options;
    options.decomposition = g.input.td;
    g.engine = std::make_unique<Engine>(
        Engine::FromGraph(g.input.graph, options));
    Take(g.engine->SolveAll(), "warm SolveAll");
    s.graphs.push_back(std::move(g));
  }
  for (size_t i = 0; i < kWarmSchemas; ++i) {
    WarmSchema w;
    w.schema = treedl::RandomWindowSchema(
        kWarmSchemaAttributes, kWarmSchemaAttributes, kSchemaWindow, &rng);
    for (int a = 0; a < w.schema->NumAttributes(); ++a) w.order.push_back(a);
    for (size_t j = w.order.size(); j > 1; --j) {
      std::swap(w.order[j - 1], w.order[rng.UniformIndex(j)]);
    }
    w.engine = std::make_unique<Engine>(Schema(*w.schema));
    Take(w.engine->IsPrime(w.order.back()), "warm IsPrime");
    s.schemas.push_back(std::move(w));
  }
  return s;
}

}  // namespace

Outcome RunWarmSession(const Options& options, Tracer* tracer) {
  Outcome out;
  std::vector<double> setup_seconds;
  WarmSessions warm;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    Clock::time_point start = Clock::now();
    warm = BuildWarmSessions(options.seed);
    setup_seconds.push_back(MillisSince(start) / 1e3);
  }

  size_t warm_builds = 0, cache_hits = 0, lookups = 0;
  size_t isprime_normalize_builds = 0, isprime_ops = 0;
  std::vector<treedl::RunStats> traced_all_stats;

  std::unique_ptr<ThreadPool> chain_pool;
  if (tracer != nullptr) {
    if (Nproc() > 1) chain_pool = std::make_unique<ThreadPool>(Nproc());
    for (WarmGraph& g : warm.graphs) {
      treedl::EngineOptions sequential;
      sequential.num_threads = 1;
      sequential.decomposition = g.input.td;
      g.one_thread = std::make_unique<Engine>(
          Engine::FromGraph(g.input.graph, sequential));
      Take(g.one_thread->SolveAll(), "one-thread SolveAll");
    }
    for (WarmSchema& w : warm.schemas) {
      w.chain = RunSchemaChain(*w.schema, chain_pool.get(), tracer);
    }
    SetSchemaChainMetrics(*tracer, *warm.schemas.back().chain, &out);
  }

  size_t next_graph = 0;
  auto solve_all = [&](Tracer* t) {
    WarmGraph& g = warm.graphs[next_graph++ % warm.graphs.size()];
    if (t != nullptr) t->BeginOp();
    Tracer::Scope op(t, "op.warm_solveall");
    treedl::RunStats stats;
    std::optional<StatusOr<Engine::SolveAllResult>> result;
    Clock::time_point start = Clock::now();
    {
      Tracer::Scope span(t, "engine.solveall");
      result.emplace(g.engine->SolveAll(&stats));
    }
    double millis = MillisSince(start);
    ++out.attempted;
    warm_builds += stats.encode_builds + stats.td_builds +
                   stats.normalize_builds;
    cache_hits += stats.cache_hits;
    lookups += stats.cache_hits + stats.encode_builds + stats.td_builds +
               stats.normalize_builds;
    if (!result->ok()) {
      out.Fail("SolveAll: " + result->status().ToString());
      return millis;
    }
    const Engine::SolveAllResult& all = result->value();
    if (all.three_colorable &&
        (!all.coloring.has_value() ||
         !ProperColoring(g.input.graph, *all.coloring))) {
      out.Fail("SolveAll returned an improper coloring");
    }
    if (!g.first.has_value()) g.first = all;
    if (!SameAnswers(*g.first, all)) {
      out.Fail("SolveAll answers changed between calls");
    }
    if (t != nullptr) {
      traced_all_stats.push_back(stats);
      const std::pair<Engine::Problem, const char*> problems[] = {
          {Engine::Problem::kThreeColor, "core.solve.3col"},
          {Engine::Problem::kThreeColorCount, "core.solve.count3col"},
          {Engine::Problem::kVertexCover, "core.solve.vc"},
          {Engine::Problem::kIndependentSet, "core.solve.is"},
          {Engine::Problem::kDominatingSet, "core.solve.ds"},
      };
      for (const auto& [problem, name] : problems) {
        Tracer::Scope span(t, name);
        StatusOr<Engine::SolveResult> one = g.engine->Solve(problem);
        if (!one.ok()) out.Fail(std::string(name) + " failed");
      }
      Tracer::Scope span(t, "core.solveall_1thread");
      StatusOr<Engine::SolveAllResult> seq = g.one_thread->SolveAll();
      if (!seq.ok() || !SameAnswers(seq.value(), all)) {
        out.Fail("one-thread SolveAll differs");
      }
    }
    return millis;
  };

  size_t next_schema = 0;
  auto is_prime = [&](Tracer* t) {
    WarmSchema& w = warm.schemas[next_schema++ % warm.schemas.size()];
    int a = w.order[w.next++ % w.order.size()];
    if (t != nullptr) t->BeginOp();
    Tracer::Scope op(t, "op.warm_isprime");
    treedl::RunStats stats;
    std::optional<StatusOr<bool>> result;
    Clock::time_point start = Clock::now();
    {
      Tracer::Scope span(t, "engine.isprime");
      result.emplace(w.engine->IsPrime(a, &stats));
    }
    double millis = MillisSince(start);
    ++out.attempted;
    ++isprime_ops;
    isprime_normalize_builds += stats.normalize_builds;
    warm_builds += stats.encode_builds + stats.td_builds;
    cache_hits += stats.cache_hits;
    lookups += stats.cache_hits + stats.encode_builds + stats.td_builds;
    if (!result->ok()) {
      out.Fail("IsPrime: " + result->status().ToString());
      return millis;
    }
    auto [it, first] = w.answers.emplace(a, result->value());
    if (!first && it->second != result->value()) {
      out.Fail("IsPrime answers changed between calls");
    }
    if (t != nullptr) {
      // The per-query layers IsPrime runs on its cached rhs-closed
      // decomposition: re-root + normalize, then the Fig. 6 DP.
      namespace internal = treedl::core::internal;
      treedl::ElementId element = w.chain->encoding->AttrElement(a);
      std::optional<treedl::NormalizedTreeDecomposition> ntd;
      {
        Tracer::Scope span(t, "td.normalize.isprime");
        treedl::TreeDecomposition rooted = w.chain->closed;
        Require(rooted.ReRoot(rooted.FindNodeContaining(element)), "re-root");
        ntd = Take(treedl::Normalize(rooted,
                                     internal::PrimalityNormalizeOptions(
                                         *w.chain->encoding, false)),
                   "normalize for IsPrime");
      }
      Tracer::Scope span(t, "core.isprime");
      treedl::RunStats dp;
      if (internal::DecidePrimePrepared(*w.chain->context, *ntd, element,
                                        &dp) != result->value()) {
        out.Fail("layer chain and Engine disagree on IsPrime");
      }
    }
    return millis;
  };

  std::vector<double> solve_ms, query_ms;
  auto run_loop = [&](double seconds, Tracer* t) {
    return TimedLoop(seconds, 2, [&](size_t k) {
      if (k % 2 == 0) {
        solve_ms.push_back(solve_all(t));
      } else {
        query_ms.push_back(is_prime(t));
      }
    });
  };
  double timed_seconds = tracer != nullptr ? options.seconds / 2
                                           : options.seconds;
  auto [ops, wall] = run_loop(timed_seconds, nullptr);
  out.SetLatency("solve", "warm_solveall", solve_ms);
  out.SetLatency("query", "warm_isprime", query_ms);
  out.Set("ops_per_s", static_cast<double>(ops) / wall, "1/s");
  out.Set("setup_s", Median(setup_seconds), "s");

  if (tracer != nullptr) {
    double untraced_solve = Median(solve_ms), untraced_query = Median(query_ms);
    run_loop(timed_seconds, tracer);
    double all_ms = Median(tracer->Durations("engine.solveall"));
    double five_ms = 0;
    for (const char* name :
         {"core.solve.3col", "core.solve.count3col", "core.solve.vc",
          "core.solve.is", "core.solve.ds"}) {
      double ms = Median(tracer->Durations(name));
      out.Set(std::string(name) + "_ms", ms, "ms");
      five_ms += ms;
    }
    double sequential_ms = Median(tracer->Durations("core.solveall_1thread"));
    out.Set("engine.fusion_ratio", five_ms / all_ms, "ratio");
    out.Set("core.solveall_1thread_ms", sequential_ms, "ms");
    out.Set("core.parallel_speedup", sequential_ms / all_ms, "ratio");
    std::vector<double> shards, shard_sum, slowest, states, peak;
    for (const treedl::RunStats& s : traced_all_stats) {
      shards.push_back(static_cast<double>(s.dp_shards));
      shard_sum.push_back(Sum(s.dp_shard_millis));
      slowest.push_back(s.dp_shard_millis.empty()
                            ? 0
                            : *std::max_element(s.dp_shard_millis.begin(),
                                                s.dp_shard_millis.end()));
      states.push_back(static_cast<double>(s.dp_states));
      peak.push_back(static_cast<double>(s.dp_peak_table_bytes));
    }
    out.Set("core.dp_shards", Median(shards), "count");
    out.Set("core.shard_sum_ms", Median(shard_sum), "ms");
    out.Set("core.slowest_shard_ms", Median(slowest), "ms");
    out.Set("core.shard_inflation", Median(shard_sum) / sequential_ms,
            "ratio");
    out.Set("core.dp_states.solveall", Median(states), "count");
    out.Set("core.dp_peak_table_bytes", Median(peak), "bytes");
    out.Set("td.normalize.isprime_ms",
            Median(tracer->Durations("td.normalize.isprime")), "ms");
    out.Set("core.isprime_ms", Median(tracer->Durations("core.isprime")),
            "ms");
    out.Set("trace.overhead.solve_ms", all_ms - untraced_solve, "ms");
    out.Set("trace.overhead.query_ms",
            Median(tracer->Durations("engine.isprime")) - untraced_query,
            "ms");
  }
  out.Set("engine.warm_builds", static_cast<double>(warm_builds), "count");
  out.Set("engine.cache_hit_ratio",
          lookups == 0 ? 0
                       : static_cast<double>(cache_hits) /
                             static_cast<double>(lookups),
          "ratio");
  out.Set("engine.isprime_normalize_builds",
          isprime_ops == 0 ? 0
                           : static_cast<double>(isprime_normalize_builds) /
                                 static_cast<double>(isprime_ops),
          "count");
  if (warm_builds != 0) {
    out.Fail("warm queries rebuilt " + std::to_string(warm_builds) +
             " cached artifacts");
  }

  // Checks, outside the timed loop: SolveAll against the min-degree
  // reference, IsPrime against AllPrimes of a separate session.
  for (const WarmGraph& g : warm.graphs) {
    if (!g.first.has_value()) continue;
    Engine reference = Engine::FromGraph(g.input.graph, ReferenceOptions());
    StatusOr<Engine::SolveAllResult> expected = reference.SolveAll();
    if (!expected.ok() || !SameAnswers(expected.value(), *g.first)) {
      out.Fail("SolveAll differs from the min-degree reference");
    }
  }
  for (const WarmSchema& w : warm.schemas) {
    if (w.answers.empty()) continue;
    Engine reference(Schema(*w.schema), ReferenceOptions());
    StatusOr<std::vector<bool>> primes = reference.AllPrimes();
    if (!primes.ok()) {
      out.Fail("reference AllPrimes: " + primes.status().ToString());
      continue;
    }
    for (const auto& [a, prime] : w.answers) {
      if (primes.value()[static_cast<size_t>(a)] != prime) {
        out.Fail("IsPrime(" + std::to_string(a) +
                 ") differs from a separate session's AllPrimes");
      }
    }
  }
  char line[200];
  std::snprintf(line, sizeof(line),
                "ops_per_s: %zu operations in %.3f s; setup_s: median of %d "
                "set-ups",
                ops, wall, kSetupRepeats);
  out.Note(line);
  return out;
}

}  // namespace perfbench
