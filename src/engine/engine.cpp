#include "engine/engine.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/binary_io.hpp"
#include "common/timer.hpp"
#include "common/work_budget.hpp"
#include "core/extensions.hpp"
#include "core/three_color.hpp"
#include "datalog/eval.hpp"
#include "engine/session_io.hpp"
#include "graph/gaifman.hpp"
#include "mso/evaluator.hpp"
#include "mso2dl/mso_to_datalog.hpp"
#include "structure/structure_io.hpp"
#include "td/heuristics.hpp"
#include "td/improve.hpp"
#include "td/validate.hpp"

namespace treedl {

namespace {

StatusOr<Structure> RunFixpoint(const datalog::Program& program,
                                const Structure& edb, WorkBudget* budget,
                                RunStats* stats) {
  // Evaluate into a local record and fold it in: SemiNaiveEvaluate resets
  // its stats argument at entry, which must not wipe the counters the
  // engine already recorded for this query.
  RunStats eval_run;
  StatusOr<Structure> result =
      datalog::SemiNaiveEvaluate(program, edb, &eval_run, budget);
  stats->Accumulate(eval_run);
  return result;
}

/// Stores an answer into its SolveAllResult field, or passes its error on.
template <typename T>
Status Assign(StatusOr<T> answer, T* field) {
  if (!answer.ok()) return answer.status();
  *field = std::move(answer).value();
  return Status::OK();
}

/// Runs `problem`'s DP (one core::RunDp walk of `ntd`) and writes its
/// answer into the matching SolveAllResult field; the walk's DpStats
/// accumulate into `dp`, and an aborted budget returns its typed status.
Status SolveOne(Engine::Problem problem, const Graph& graph,
                const NormalizedTreeDecomposition& ntd,
                const core::DpExec& exec, bool extract_witness,
                core::DpStats* dp, Engine::SolveAllResult* out) {
  switch (problem) {
    case Engine::Problem::kThreeColor: {
      TREEDL_ASSIGN_OR_RETURN(
          core::ThreeColorResult tc,
          core::DecideThreeColor(graph, ntd, exec, dp, extract_witness));
      out->three_colorable = tc.colorable;
      out->coloring = std::move(tc.coloring);
      return Status::OK();
    }
    case Engine::Problem::kThreeColorCount:
      return Assign(core::CountThreeColorings(graph, ntd, exec, dp),
                    &out->three_colorings);
    case Engine::Problem::kVertexCover:
      return Assign(core::MinVertexCover(graph, ntd, exec, dp),
                    &out->min_vertex_cover);
    case Engine::Problem::kIndependentSet:
      return Assign(core::MaxIndependentSet(graph, ntd, exec, dp),
                    &out->max_independent_set);
    case Engine::Problem::kDominatingSet:
      return Assign(core::MinDominatingSet(graph, ntd, exec, dp),
                    &out->min_dominating_set);
  }
  return Status::Internal("unknown problem");
}

/// Shard tasks per worker thread in a parallel session's enumeration
/// sharding (more shards = better load balance, more scheduling overhead).
constexpr size_t kShardsPerThread = 4;

}  // namespace

Engine::Engine(Schema schema, EngineOptions options)
    : options_(std::move(options)),
      schema_(std::make_unique<Schema>(std::move(schema))),
      sync_(std::make_unique<Sync>()) {}

Engine::Engine(Structure structure, EngineOptions options)
    : options_(std::move(options)),
      owned_structure_(std::make_unique<Structure>(std::move(structure))),
      sync_(std::make_unique<Sync>()) {}

Engine::Engine(Graph graph, EngineOptions options)
    : options_(std::move(options)),
      gaifman_(std::move(graph)),
      sync_(std::make_unique<Sync>()) {}

Engine Engine::FromGraph(const Graph& graph, EngineOptions options) {
  return Engine(graph, std::move(options));
}

void Engine::Record(const RunStats& stats) {
  std::lock_guard<std::mutex> lock(sync_->stats_mu);
  cumulative_.Accumulate(stats);
}

RunStats Engine::CumulativeStats() const {
  std::lock_guard<std::mutex> lock(sync_->stats_mu);
  return cumulative_;
}

void Engine::ResetCumulativeStats() {
  std::lock_guard<std::mutex> lock(sync_->stats_mu);
  cumulative_ = RunStats{};
}

size_t Engine::ResolvedNumThreads() const {
  return options_.num_threads == 0 ? ThreadPool::DefaultNumThreads()
                                   : options_.num_threads;
}

template <typename Body>
auto Engine::RunQuery(RunStats* stats, Body&& body) {
  RunStats local;
  RunStats* s = stats != nullptr ? (*stats = RunStats{}, stats) : &local;
  Timer timer;
  auto result = body(s);
  s->total_millis = timer.ElapsedMillis();
  Record(*s);
  return result;
}

// --- Cached artifacts (sync_->cache_mu held throughout) ---------------------

StatusOr<const SchemaEncoding*> Engine::EnsureEncoding(RunStats* stats) {
  if (schema_ == nullptr) {
    return Status::InvalidArgument("not a schema session");
  }
  if (encoding_ == nullptr) {
    encoding_ = std::make_unique<SchemaEncoding>(EncodeSchema(*schema_));
    ++stats->encode_builds;
    ++GlobalEngineCounters().encode_builds;
  } else {
    ++stats->cache_hits;
  }
  return encoding_.get();
}

const Structure& Engine::OwnedStructure() {
  if (owned_structure_ == nullptr) {
    owned_structure_ = std::make_unique<Structure>(GraphToStructure(*gaifman_));
  }
  return *owned_structure_;
}

StatusOr<const Structure*> Engine::EnsureStructure(RunStats* stats) {
  if (schema_ == nullptr) return &OwnedStructure();
  TREEDL_ASSIGN_OR_RETURN(const SchemaEncoding* encoding,
                          EnsureEncoding(stats));
  return &encoding->structure;
}

StatusOr<const Graph*> Engine::EnsureGaifman(RunStats* stats) {
  if (!gaifman_.has_value()) {
    TREEDL_ASSIGN_OR_RETURN(const Structure* structure,
                            EnsureStructure(stats));
    gaifman_ = GaifmanGraph(*structure);
  }
  return &*gaifman_;
}

StatusOr<const TreeDecomposition*> Engine::EnsureTd(RunStats* stats) {
  if (td_.has_value()) {
    ++stats->cache_hits;
    return &*td_;
  }
  // §2.2: a decomposition of the structure is one of its Gaifman graph, so
  // building and validating both read the graph only.
  TREEDL_ASSIGN_OR_RETURN(const Graph* gaifman, EnsureGaifman(stats));
  StatusOr<TreeDecomposition> td =
      options_.decomposition.has_value()
          ? StatusOr<TreeDecomposition>(*options_.decomposition)
          : Decompose(*gaifman, options_.heuristic);
  TREEDL_RETURN_IF_ERROR(td.status());
  TREEDL_RETURN_IF_ERROR(ValidateForGraph(*gaifman, *td));
  td_ = std::move(td).value();
  ++stats->td_builds;
  ++GlobalEngineCounters().td_builds;
  return &*td_;
}

StatusOr<const core::internal::PrimalityContext*> Engine::EnsurePrimality(
    RunStats* stats) {
  TREEDL_ASSIGN_OR_RETURN(const SchemaEncoding* encoding,
                          EnsureEncoding(stats));
  if (primality_ == nullptr) {
    primality_ = std::make_unique<core::internal::PrimalityContext>(*schema_,
                                                                    *encoding);
  }
  return primality_.get();
}

StatusOr<const TreeDecomposition*> Engine::EnsureClosedTd(RunStats* stats) {
  if (closed_td_.has_value()) {
    ++stats->cache_hits;
    return &*closed_td_;
  }
  TREEDL_ASSIGN_OR_RETURN(const TreeDecomposition* td, EnsureTd(stats));
  TREEDL_ASSIGN_OR_RETURN(const core::internal::PrimalityContext* context,
                          EnsurePrimality(stats));
  closed_td_ = core::internal::CloseBagsForRhs(*td, *encoding_, *context);
  return &*closed_td_;
}

StatusOr<const NormalizedTreeDecomposition*> Engine::EnsureEnumNtd(
    RunStats* stats) {
  if (enum_ntd_.has_value()) {
    ++stats->cache_hits;
    return &*enum_ntd_;
  }
  TREEDL_ASSIGN_OR_RETURN(const TreeDecomposition* closed,
                          EnsureClosedTd(stats));
  TREEDL_ASSIGN_OR_RETURN(
      enum_ntd_,
      Normalize(*closed, core::internal::PrimalityNormalizeOptions(
                             *encoding_, /*for_enumeration=*/true)));
  ++stats->normalize_builds;
  ++GlobalEngineCounters().normalize_builds;
  // A parallel session shards the enumeration normal form, the one sharded
  // walk (3^|bag| fits the Fig. 6 state explosion).
  size_t threads = ResolvedNumThreads();
  if (threads > 1) {
    enum_sharding_ =
        ComputeBagShardingByCost(*enum_ntd_, threads * kShardsPerThread);
  }
  return &*enum_ntd_;
}

StatusOr<const NormalizedTreeDecomposition*> Engine::EnsurePlainNtd(
    RunStats* stats) {
  if (plain_ntd_.has_value()) {
    ++stats->cache_hits;
    return &*plain_ntd_;
  }
  TREEDL_ASSIGN_OR_RETURN(const TreeDecomposition* td, EnsureTd(stats));
  TREEDL_ASSIGN_OR_RETURN(plain_ntd_, Normalize(*td));
  ++stats->normalize_builds;
  ++GlobalEngineCounters().normalize_builds;
  return &*plain_ntd_;
}

StatusOr<const datalog::TauTdEncoding*> Engine::EnsureTauTd(RunStats* stats) {
  if (tau_td_.has_value()) {
    ++stats->cache_hits;
    return &*tau_td_;
  }
  TREEDL_ASSIGN_OR_RETURN(const Structure* structure, EnsureStructure(stats));
  TREEDL_ASSIGN_OR_RETURN(const TreeDecomposition* td, EnsureTd(stats));
  TREEDL_ASSIGN_OR_RETURN(TupleNormalizedTd tuple, NormalizeTuple(*td));
  TREEDL_ASSIGN_OR_RETURN(datalog::TauTdEncoding encoding,
                          datalog::BuildTauTd(*structure, tuple));
  tau_td_ = std::move(encoding);
  ++stats->normalize_builds;
  ++GlobalEngineCounters().normalize_builds;
  return &*tau_td_;
}

StatusOr<const mso2dl::Mso2DlResult*> Engine::EnsureMsoProgram(
    const mso::FormulaPtr& phi, const std::string* free_var, RunStats* stats) {
  TREEDL_ASSIGN_OR_RETURN(const TreeDecomposition* td, EnsureTd(stats));
  TREEDL_ASSIGN_OR_RETURN(const Structure* a, EnsureStructure(stats));
  std::string key = free_var != nullptr ? "unary:" + *free_var + ":"
                                        : "sentence:";
  key += mso::ToString(*phi);
  auto it = mso_programs_.find(key);
  if (it != mso_programs_.end()) {
    ++stats->cache_hits;
    return &it->second;
  }
  mso2dl::Mso2DlOptions mopts;
  mopts.width = td->Width();
  StatusOr<mso2dl::Mso2DlResult> compiled =
      free_var != nullptr
          ? mso2dl::MsoToDatalog(a->signature(), phi, *free_var, mopts)
          : mso2dl::MsoToDatalogSentence(a->signature(), phi, mopts);
  TREEDL_RETURN_IF_ERROR(compiled.status());
  ++stats->mso_compile_builds;
  auto [inserted, _] =
      mso_programs_.emplace(std::move(key), std::move(compiled).value());
  return &inserted->second;
}

ThreadPool* Engine::EnsurePool() {
  size_t threads = ResolvedNumThreads();
  if (threads <= 1) return nullptr;
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads);
  return pool_.get();
}

// --- Primality ---------------------------------------------------------------

StatusOr<bool> Engine::IsPrime(AttributeId a, RunStats* stats,
                               WorkBudget* budget) {
  return RunQuery(stats, [&](RunStats* s) -> StatusOr<bool> {
    if (schema_ == nullptr) {
      return Status::InvalidArgument("IsPrime requires a schema session");
    }
    if (a < 0 || a >= schema_->NumAttributes()) {
      return Status::InvalidArgument("attribute id out of range");
    }
    const TreeDecomposition* closed = nullptr;
    const core::internal::PrimalityContext* context = nullptr;
    const SchemaEncoding* encoding = nullptr;
    core::DpExec exec;
    {
      std::lock_guard<std::mutex> lock(sync_->cache_mu);
      // O(1) from the memoized §5.3 enumeration, if it already ran.
      if (primes_.has_value()) {
        ++s->cache_hits;
        return static_cast<bool>((*primes_)[static_cast<size_t>(a)]);
      }
      TREEDL_ASSIGN_OR_RETURN(closed, EnsureClosedTd(s));
      TREEDL_ASSIGN_OR_RETURN(context, EnsurePrimality(s));
      encoding = encoding_.get();
      exec.budget = budget;
    }
    // Per-query work on the immutable artifacts, outside the lock: re-root
    // a copy of the closed decomposition at a bag holding a, then normalize.
    ElementId a_elem = encoding->AttrElement(a);
    TdNodeId target = closed->FindNodeContaining(a_elem);
    if (target == kNoTdNode) {
      return Status::InvalidArgument(
          "query element not covered by the decomposition");
    }
    TreeDecomposition rooted = *closed;
    TREEDL_RETURN_IF_ERROR(rooted.ReRoot(target));
    TREEDL_ASSIGN_OR_RETURN(
        NormalizedTreeDecomposition ntd,
        Normalize(rooted, core::internal::PrimalityNormalizeOptions(
                              *encoding, /*for_enumeration=*/false)));
    ++s->normalize_builds;
    ++GlobalEngineCounters().normalize_builds;
    TREEDL_RETURN_IF_ERROR(context->CheckBags(ntd, /*for_enumeration=*/false));
    bool prime =
        core::internal::DecidePrimePrepared(*context, ntd, a_elem, s, exec);
    if (exec.budget != nullptr && exec.budget->Aborted()) {
      return exec.budget->AbortStatus();
    }
    return prime;
  });
}

StatusOr<std::vector<bool>> Engine::AllPrimes(RunStats* stats,
                                              WorkBudget* budget) {
  return RunQuery(stats, [&](RunStats* s) -> StatusOr<std::vector<bool>> {
    if (schema_ == nullptr) {
      return Status::InvalidArgument("AllPrimes requires a schema session");
    }
    const NormalizedTreeDecomposition* ntd = nullptr;
    const core::internal::PrimalityContext* context = nullptr;
    const SchemaEncoding* encoding = nullptr;
    core::DpExec exec;
    {
      std::lock_guard<std::mutex> lock(sync_->cache_mu);
      if (primes_.has_value()) {
        ++s->cache_hits;
        return *primes_;
      }
      TREEDL_ASSIGN_OR_RETURN(ntd, EnsureEnumNtd(s));
      TREEDL_ASSIGN_OR_RETURN(context, EnsurePrimality(s));
      encoding = encoding_.get();
      exec.pool = EnsurePool();
      exec.sharding = enum_sharding_.has_value() ? &*enum_sharding_ : nullptr;
      exec.budget = budget;
    }
    TREEDL_RETURN_IF_ERROR(context->CheckBags(*ntd, /*for_enumeration=*/true));
    // The two-pass enumeration runs outside the lock (sharded on the pool
    // when the session is parallel); concurrent first callers may duplicate
    // the work, but the memo is written once.
    std::vector<bool> primes = core::internal::EnumeratePrimesPrepared(
        *context, *encoding, schema_->NumAttributes(), *ntd, s, exec);
    // An aborted run produced a partial bit vector — never memoize it, so
    // the next AllPrimes call recomputes from the cached decomposition.
    if (exec.budget != nullptr && exec.budget->Aborted()) {
      return exec.budget->AbortStatus();
    }
    std::lock_guard<std::mutex> lock(sync_->cache_mu);
    if (!primes_.has_value()) primes_ = std::move(primes);
    return *primes_;
  });
}

// --- Datalog -----------------------------------------------------------------

StatusOr<Structure> Engine::EvaluateDatalog(const datalog::Program& program,
                                            RunStats* stats,
                                            WorkBudget* budget) {
  return RunQuery(stats, [&](RunStats* s) -> StatusOr<Structure> {
    const Structure* edb = nullptr;
    {
      std::lock_guard<std::mutex> lock(sync_->cache_mu);
      TREEDL_ASSIGN_OR_RETURN(edb, EnsureStructure(s));
    }
    return RunFixpoint(program, *edb, budget, s);
  });
}

// --- MSO ----------------------------------------------------------------------

StatusOr<bool> Engine::UseDirectMso(RunStats* stats) {
  TREEDL_ASSIGN_OR_RETURN(const TreeDecomposition* td, EnsureTd(stats));
  return td->Width() < 1;  // Thm 4.5 needs width >= 1
}

StatusOr<bool> Engine::EvaluateMso(const mso::FormulaPtr& sentence,
                                   RunStats* stats, WorkBudget* budget) {
  return RunQuery(stats, [&](RunStats* s) -> StatusOr<bool> {
    const Structure* a = nullptr;
    bool direct = false;
    const datalog::Program* program = nullptr;
    const Structure* tau_edb = nullptr;
    {
      std::lock_guard<std::mutex> lock(sync_->cache_mu);
      TREEDL_ASSIGN_OR_RETURN(a, EnsureStructure(s));
      TREEDL_ASSIGN_OR_RETURN(direct, UseDirectMso(s));
      if (!direct) {
        TREEDL_ASSIGN_OR_RETURN(const mso2dl::Mso2DlResult* compiled,
                                EnsureMsoProgram(sentence, nullptr, s));
        program = &compiled->program;
        TREEDL_ASSIGN_OR_RETURN(const datalog::TauTdEncoding* atd,
                                EnsureTauTd(s));
        tau_edb = &atd->structure;
      }
    }
    if (direct) {
      mso::EvalOptions eval;
      eval.budget = budget;
      return mso::EvaluateSentence(*a, *sentence, eval);
    }
    TREEDL_ASSIGN_OR_RETURN(Structure derived,
                            RunFixpoint(*program, *tau_edb, budget, s));
    TREEDL_ASSIGN_OR_RETURN(PredicateId phi,
                            derived.signature().PredicateIdOf("phi"));
    return derived.HasFact(phi, {});
  });
}

StatusOr<std::vector<bool>> Engine::EvaluateMsoUnary(
    const mso::FormulaPtr& phi, const std::string& free_var, RunStats* stats,
    WorkBudget* budget) {
  return RunQuery(stats, [&](RunStats* s) -> StatusOr<std::vector<bool>> {
    const Structure* a = nullptr;
    bool direct = false;
    const datalog::Program* program = nullptr;
    const Structure* tau_edb = nullptr;
    {
      std::lock_guard<std::mutex> lock(sync_->cache_mu);
      TREEDL_ASSIGN_OR_RETURN(a, EnsureStructure(s));
      TREEDL_ASSIGN_OR_RETURN(direct, UseDirectMso(s));
      if (!direct) {
        TREEDL_ASSIGN_OR_RETURN(const mso2dl::Mso2DlResult* compiled,
                                EnsureMsoProgram(phi, &free_var, s));
        program = &compiled->program;
        TREEDL_ASSIGN_OR_RETURN(const datalog::TauTdEncoding* atd,
                                EnsureTauTd(s));
        tau_edb = &atd->structure;
      }
    }
    std::vector<bool> selected(a->NumElements(), false);
    if (direct) {
      mso::EvalOptions eval;
      eval.budget = budget;
      for (ElementId e = 0; e < a->NumElements(); ++e) {
        TREEDL_ASSIGN_OR_RETURN(
            bool holds, mso::EvaluateUnary(*a, *phi, free_var, e, eval));
        selected[e] = holds;
      }
      return selected;
    }
    TREEDL_ASSIGN_OR_RETURN(Structure derived,
                            RunFixpoint(*program, *tau_edb, budget, s));
    TREEDL_ASSIGN_OR_RETURN(PredicateId phi_pred,
                            derived.signature().PredicateIdOf("phi"));
    for (ElementId e = 0; e < a->NumElements(); ++e) {
      selected[e] = derived.HasFact(phi_pred, {e});
    }
    return selected;
  });
}

// --- Graph DPs ----------------------------------------------------------------

StatusOr<Engine::SolveResult> Engine::Solve(Problem problem, RunStats* stats,
                                            WorkBudget* budget) {
  TREEDL_ASSIGN_OR_RETURN(SolveAllResult all,
                          SolveProblems({problem}, stats, budget));
  return all.Result(problem);
}

Engine::SolveResult Engine::SolveAllResult::Result(Problem problem) const {
  SolveResult out;
  switch (problem) {
    case Problem::kThreeColor:
      out.feasible = three_colorable;
      out.witness = coloring;
      break;
    case Problem::kThreeColorCount:
      out.feasible = three_colorings > 0;
      out.count = three_colorings;
      break;
    case Problem::kVertexCover:
      out.feasible = true;
      out.optimum = min_vertex_cover;
      break;
    case Problem::kIndependentSet:
      out.feasible = true;
      out.optimum = max_independent_set;
      break;
    case Problem::kDominatingSet:
      out.feasible = true;
      out.optimum = min_dominating_set;
      break;
  }
  return out;
}

StatusOr<Engine::SolveAllResult> Engine::SolveAll(RunStats* stats,
                                                  WorkBudget* budget) {
  return SolveProblems({Problem::kThreeColor, Problem::kThreeColorCount,
                        Problem::kVertexCover, Problem::kIndependentSet,
                        Problem::kDominatingSet},
                       stats, budget);
}

StatusOr<Engine::SolveAllResult> Engine::SolveProblems(
    std::initializer_list<Problem> problems, RunStats* stats,
    WorkBudget* budget) {
  return RunQuery(stats, [&](RunStats* s) -> StatusOr<SolveAllResult> {
    const Graph* graph = nullptr;
    const NormalizedTreeDecomposition* ntd = nullptr;
    ThreadPool* pool = nullptr;
    {
      std::lock_guard<std::mutex> lock(sync_->cache_mu);
      TREEDL_ASSIGN_OR_RETURN(graph, EnsureGaifman(s));
      TREEDL_ASSIGN_OR_RETURN(ntd, EnsurePlainNtd(s));
      if (problems.size() > 1) pool = EnsurePool();
    }
    if (ntd->Width() + 1 > core::kMaxDpBagSize) {
      return Status::ResourceExhausted(
          "decomposition bag of " + std::to_string(ntd->Width() + 1) +
          " elements exceeds the graph-DP limit of " +
          std::to_string(core::kMaxDpBagSize));
    }
    // Sequential walks outside the lock (each RunDp tracks its own table
    // bytes), each with its own result fields, DpStats and Status: one after
    // another without a pool, else one pool task each while this thread
    // helps drain the pool. Both fold in Problem order, whichever walk
    // finished first.
    const size_t n = problems.size();
    core::DpExec exec;
    exec.budget = budget;
    SolveAllResult out;
    std::vector<core::DpStats> dp(n);
    std::vector<Status> status(n);
    auto walk = [&](size_t i) {
      status[i] = SolveOne(problems.begin()[i], *graph, *ntd, exec,
                           options_.extract_witness, &dp[i], &out);
    };
    if (pool == nullptr) {
      for (size_t i = 0; i < n; ++i) {
        walk(i);
        if (!status[i].ok()) break;
      }
    } else {
      WaitGroup done;
      done.Add(n);
      for (size_t i = 0; i < n; ++i) {
        pool->Submit([&walk, &done, i] {
          walk(i);
          done.Done();
        });
      }
      while (pool->RunOneTask()) {
      }
      done.Wait();
    }
    for (const core::DpStats& walk_stats : dp) core::FoldDpStats(walk_stats, s);
    for (const Status& walk_status : status) {
      TREEDL_RETURN_IF_ERROR(walk_status);
    }
    return out;
  });
}

// --- Anytime decomposition improvement ---------------------------------------

StatusOr<Engine::ImproveResult> Engine::ImproveDecomposition(
    RunStats* stats, WorkBudget* budget) {
  return RunQuery(stats, [&](RunStats* s) -> StatusOr<ImproveResult> {
    // The one mutating operation: the whole call runs under the cache lock
    // and relies on the external-quiescence contract documented in the
    // header — no concurrent query, no outstanding artifact pointers.
    std::lock_guard<std::mutex> lock(sync_->cache_mu);
    TREEDL_ASSIGN_OR_RETURN(const TreeDecomposition* td, EnsureTd(s));
    TREEDL_ASSIGN_OR_RETURN(const Graph* gaifman, EnsureGaifman(s));
    ImproveOptions iopts;
    iopts.seed = SessionFingerprint();
    TREEDL_ASSIGN_OR_RETURN(ImproveOutcome outcome,
                            ImproveTd(*gaifman, *td, iopts, budget));
    ImproveResult out;
    out.width_before = outcome.width_before;
    out.width_after = outcome.width_after;
    out.cost_before = outcome.cost_before;
    out.cost_after = outcome.cost_after;
    out.rounds = outcome.rounds;
    out.improved = outcome.improved;
    s->improve_rounds += outcome.rounds;
    if (!outcome.improved) return out;
    TREEDL_RETURN_IF_ERROR(ValidateForGraph(*gaifman, outcome.td));
    // Swap in the better decomposition and invalidate everything derived
    // from the old one; the next query lazily re-normalizes (and, for the
    // enumeration, re-shards).
    // The memoized primes survive (answers are decomposition-independent),
    // and so do the structure, encoding, and Gaifman graph.
    td_ = std::move(outcome.td);
    closed_td_.reset();
    plain_ntd_.reset();
    enum_ntd_.reset();
    enum_sharding_.reset();
    tau_td_.reset();
    // Compiled MSO programs are width-parameterized; the width changed (or
    // at least may have), so recompile on demand.
    mso_programs_.clear();
    ++s->td_builds;
    ++GlobalEngineCounters().td_builds;
    return out;
  });
}

// --- Persistent sessions ------------------------------------------------------

uint64_t Engine::FingerprintOf(const Structure& structure) {
  return Fnv1a64("structure:" + FormatStructure(structure));
}

uint64_t Engine::FingerprintOf(const Schema& schema) {
  return Fnv1a64("schema:" + schema.ToString());
}

uint64_t Engine::SessionFingerprint() {
  // Stable across processes: hash a canonical text rendering of the session
  // input, tagged by session kind. Builds no counted artifact (a load into a
  // cold engine must not count as a build).
  if (schema_ != nullptr) return FingerprintOf(*schema_);
  return FingerprintOf(OwnedStructure());
}

uint64_t Engine::Fingerprint() {
  std::lock_guard<std::mutex> lock(sync_->cache_mu);
  return SessionFingerprint();
}

// --- Accounting ---------------------------------------------------------------

namespace {

// Fixed per-item charges. Deliberately not sizeof-derived: the serving
// layer's admission budget compares these numbers across compilers and
// standard libraries, so they must be plain arithmetic over artifact shapes.
constexpr size_t kBytesPerElement = 48;    // interned name + id slot
constexpr size_t kBytesPerTuple = 24;      // tuple header + relation index
constexpr size_t kBytesPerSlot = 4;        // one ElementId
constexpr size_t kBytesPerTdNode = 64;     // node record + child links

size_t StructureCharge(const Structure& structure) {
  size_t bytes = structure.NumElements() * kBytesPerElement;
  const Signature& signature = structure.signature();
  for (PredicateId p = 0; p < static_cast<PredicateId>(signature.size()); ++p) {
    bytes += structure.Relation(p).size() *
             (kBytesPerTuple +
              static_cast<size_t>(signature.arity(p)) * kBytesPerSlot);
  }
  return bytes;
}

size_t TdCharge(const TreeDecomposition& td) {
  size_t bytes = td.NumNodes() * kBytesPerTdNode;
  for (size_t id = 0; id < td.NumNodes(); ++id) {
    bytes += td.Bag(static_cast<TdNodeId>(id)).size() * kBytesPerSlot;
  }
  return bytes;
}

size_t NtdCharge(const NormalizedTreeDecomposition& ntd) {
  size_t bytes = ntd.NumNodes() * kBytesPerTdNode;
  for (size_t id = 0; id < ntd.NumNodes(); ++id) {
    bytes += ntd.Bag(static_cast<TdNodeId>(id)).size() * kBytesPerSlot;
  }
  return bytes;
}

}  // namespace

size_t Engine::EstimateStructureBytes(const Structure& structure) {
  return StructureCharge(structure);
}

size_t Engine::ResidentArtifactBytes() const {
  std::lock_guard<std::mutex> lock(sync_->cache_mu);
  size_t bytes = 0;
  if (owned_structure_ != nullptr) bytes += StructureCharge(*owned_structure_);
  if (encoding_ != nullptr) bytes += StructureCharge(encoding_->structure);
  if (gaifman_.has_value()) {
    bytes += gaifman_->NumVertices() * kBytesPerSlot +
             gaifman_->NumEdges() * 2 * kBytesPerSlot;
  }
  if (td_.has_value()) bytes += TdCharge(*td_);
  if (closed_td_.has_value()) bytes += TdCharge(*closed_td_);
  if (plain_ntd_.has_value()) bytes += NtdCharge(*plain_ntd_);
  if (enum_ntd_.has_value()) bytes += NtdCharge(*enum_ntd_);
  if (tau_td_.has_value()) bytes += StructureCharge(tau_td_->structure);
  return bytes;
}

Status Engine::SaveSession(const std::string& path, RunStats* stats) {
  return RunQuery(stats, [&](RunStats* s) -> Status {
    engine::SessionArtifactRefs artifacts;
    uint64_t fingerprint = 0;
    {
      // Snapshot pointers under the lock: every cache slot is set-once and
      // address-stable for the engine's lifetime, so serialization runs
      // outside the lock with no copies and no stalled queries.
      std::lock_guard<std::mutex> lock(sync_->cache_mu);
      fingerprint = SessionFingerprint();
      if (td_.has_value()) artifacts.td = &*td_;
      if (primes_.has_value()) artifacts.primes = &*primes_;
    }
    s->artifact_saves += artifacts.Count();
    return engine::WriteSessionFile(path, fingerprint, artifacts);
  });
}

Status Engine::LoadSession(const std::string& path, RunStats* stats) {
  return RunQuery(stats, [&](RunStats* s) -> Status {
    TREEDL_ASSIGN_OR_RETURN(engine::SessionArtifacts artifacts,
                            engine::ReadSessionFile(path, Fingerprint()));
    std::lock_guard<std::mutex> lock(sync_->cache_mu);
    // Phase 1 — validate everything, adopt nothing: a file that fails any
    // check below leaves the decomposition and the memo as they were. The
    // decomposition is checked against the session's Gaifman graph (a
    // schema session pays its encode build here), so whatever a damaged
    // file still decodes to is either a valid decomposition or rejected.
    bool adopt_td = artifacts.td.has_value() && !td_.has_value();
    bool adopt_primes = artifacts.primes.has_value() && !primes_.has_value() &&
                        schema_ != nullptr;
    if (adopt_td) {
      TREEDL_ASSIGN_OR_RETURN(const Graph* gaifman, EnsureGaifman(s));
      TREEDL_RETURN_IF_ERROR(ValidateForGraph(*gaifman, *artifacts.td));
    }
    if (adopt_primes &&
        artifacts.primes->size() !=
            static_cast<size_t>(schema_->NumAttributes())) {
      return Status::ParseError(
          "session: primes memo has " +
          std::to_string(artifacts.primes->size()) +
          " entries for a schema of " +
          std::to_string(schema_->NumAttributes()) + " attributes");
    }
    // Phase 2 — commit; nothing below can fail. Everything derived from the
    // decomposition is rebuilt lazily on first use.
    if (adopt_td) {
      td_ = *std::move(artifacts.td);
      ++s->artifact_loads;
    }
    if (adopt_primes) {
      primes_ = *std::move(artifacts.primes);
      ++s->artifact_loads;
    }
    return Status::OK();
  });
}

// --- Session artifacts --------------------------------------------------------

StatusOr<const Structure*> Engine::structure(RunStats* stats) {
  return RunQuery(stats, [&](RunStats* s) -> StatusOr<const Structure*> {
    std::lock_guard<std::mutex> lock(sync_->cache_mu);
    return EnsureStructure(s);
  });
}

StatusOr<const TreeDecomposition*> Engine::Decomposition(RunStats* stats) {
  return RunQuery(stats,
                  [&](RunStats* s) -> StatusOr<const TreeDecomposition*> {
                    std::lock_guard<std::mutex> lock(sync_->cache_mu);
                    return EnsureTd(s);
                  });
}

StatusOr<int> Engine::Width(RunStats* stats) {
  TREEDL_ASSIGN_OR_RETURN(const TreeDecomposition* td, Decomposition(stats));
  return td->Width();
}

}  // namespace treedl
