// treedl::Engine — the session API of the library.
//
// The paper's headline result (§5.3) is that *one* tree decomposition of the
// encoded input supports many queries in linear time each. The Engine makes
// that concrete: constructed from a Schema, a τ-structure or a graph plus
// EngineOptions, it lazily computes and caches the schema encoding, Gaifman
// graph, tree decomposition, rhs-closed decomposition, normalized forms, the
// τ_td structure, the enumeration sharding, and compiled Thm 4.5 MSO programs,
// then serves batched queries through one surface:
//
//   Engine engine(Schema::PaperExampleSchema());
//   engine.IsPrime(a);                       // §5.2 decision
//   engine.AllPrimes();                      // §5.3 enumeration (memoized)
//   engine.EvaluateMso(sentence);            // Thm 4.5 route or direct
//   engine.EvaluateDatalog(program);         // semi-naive fixpoint
//   engine.Solve(Engine::Problem::kThreeColor);  // §5.1 and friends
//   engine.SolveAll();                       // all five problems, one walk each
//   engine.SaveSession("warm.tdls");         // persist the decomposition
//   engine.LoadSession("warm.tdls");         // ... and restore it on restart
//
// Concurrency: one Engine may be shared by any number of threads. The lazy
// caches are guarded by a session mutex, so N concurrent first queries still
// trigger exactly one encoding/decomposition/normalization build; the heavy
// per-query work (tree DPs, datalog fixpoints, direct MSO evaluation) runs
// outside the lock against the immutable cached artifacts. With
// EngineOptions::num_threads > 1 the session's own work-stealing pool runs
// SolveAll's five sequential graph-DP walks at once (a Solve never starts
// it), and the AllPrimes enumeration runs both of its passes shard-scheduled
// on the same pool (bottom-up, then the inverted top-down schedule) — every
// answer is bit-identical to num_threads = 1. Datalog fixpoints run
// sequentially on the calling thread.
// Pointers returned by the artifact accessors stay valid for the Engine's
// lifetime; moving an Engine while another thread uses it is undefined.
//
// Every query reports a RunStats (build/cache counters, DP and fixpoint
// work, shard counts/timings, wall-clock total); CumulativeStats()
// aggregates the session. The Engine is the entry point for every query:
// there are no one-shot free functions that re-encode and re-decompose per
// call — the quadratic pattern §5.3 argues against.
#ifndef TREEDL_ENGINE_ENGINE_HPP_
#define TREEDL_ENGINE_ENGINE_HPP_

#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "core/primality_internal.hpp"
#include "datalog/ast.hpp"
#include "datalog/tau_td.hpp"
#include "engine/options.hpp"
#include "engine/run_stats.hpp"
#include "graph/graph.hpp"
#include "mso/ast.hpp"
#include "mso2dl/mso_to_datalog.hpp"
#include "schema/encode.hpp"
#include "schema/schema.hpp"
#include "structure/structure.hpp"
#include "td/normalize.hpp"
#include "td/shard.hpp"
#include "td/tree_decomposition.hpp"

namespace treedl {

class WorkBudget;

class Engine {
 public:
  /// Graph problems served by Solve() on the session's Gaifman graph (for a
  /// {e/2} session built with FromGraph, that *is* the input graph).
  enum class Problem {
    kThreeColor,       // §5.1 decision (+ witness when extract_witness)
    kThreeColorCount,  // counting-semiring extension
    kVertexCover,      // minimum vertex cover size
    kIndependentSet,   // maximum independent set size
    kDominatingSet,    // minimum dominating set size
  };

  struct SolveResult {
    /// kThreeColor: whether 3-colorable. Optimization problems: always true.
    bool feasible = false;
    /// kVertexCover / kIndependentSet / kDominatingSet: the optimal size.
    size_t optimum = 0;
    /// kThreeColorCount: number of proper 3-colorings.
    uint64_t count = 0;
    /// kThreeColor: a proper coloring when feasible and extract_witness.
    std::optional<std::vector<int>> witness;
  };

  /// Answers of every Problem, produced by SolveAll.
  struct SolveAllResult {
    bool three_colorable = false;
    /// A proper coloring when three_colorable and extract_witness.
    std::optional<std::vector<int>> coloring;
    uint64_t three_colorings = 0;
    size_t min_vertex_cover = 0;
    size_t max_independent_set = 0;
    size_t min_dominating_set = 0;

    /// The per-problem view, field-for-field what Solve(problem) returns.
    SolveResult Result(Problem problem) const;
  };

  /// Schema session: primality queries (plus datalog/MSO over the encoding).
  explicit Engine(Schema schema, EngineOptions options = {});
  /// Structure session: MSO/datalog/graph queries over an arbitrary
  /// τ-structure.
  explicit Engine(Structure structure, EngineOptions options = {});
  /// Graph session: `graph` itself is the session's Gaifman graph, so the
  /// graph DPs, decomposition and validation never leave it. The {e/2}
  /// encoding GraphToStructure(graph) is built on first read only —
  /// structure(), EvaluateDatalog, EvaluateMso*, Fingerprint, SaveSession,
  /// LoadSession and ImproveDecomposition (which seeds from the
  /// fingerprint) — and equals the encoding an Engine(GraphToStructure(
  /// graph)) session holds, so both report one fingerprint and share
  /// session files.
  static Engine FromGraph(const Graph& graph, EngineOptions options = {});

  Engine(Engine&&) = default;
  Engine& operator=(Engine&&) = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Primality (schema sessions only) -----------------------------------

  /// §5.2 decision: is attribute `a` prime? Reuses the cached encoding and
  /// decomposition; re-roots and normalizes per query (linear). After
  /// AllPrimes() has run, answers O(1) from the memoized enumeration. A
  /// tripped `budget` aborts the DP and returns its
  /// DeadlineExceeded/ResourceExhausted status.
  StatusOr<bool> IsPrime(AttributeId a, RunStats* stats = nullptr,
                         WorkBudget* budget = nullptr);

  /// §5.3 enumeration: all prime attributes in one two-pass run. The result
  /// is memoized; subsequent calls are cache hits. A tripped `budget` aborts
  /// the run with DeadlineExceeded/ResourceExhausted and leaves the memo
  /// unwritten, so the next call recomputes cleanly.
  StatusOr<std::vector<bool>> AllPrimes(RunStats* stats = nullptr,
                                        WorkBudget* budget = nullptr);

  // --- MSO -----------------------------------------------------------------

  /// Evaluates an MSO sentence on the session structure: compiled through
  /// Thm 4.5 into a quasi-guarded datalog program and evaluated semi-naively
  /// over the cached τ_td structure, or evaluated directly when the session
  /// width is < 1.
  /// Compiled programs are cached per formula — repeated evaluation of the
  /// same sentence skips the Thm 4.5 construction.
  StatusOr<bool> EvaluateMso(const mso::FormulaPtr& sentence,
                             RunStats* stats = nullptr,
                             WorkBudget* budget = nullptr);

  /// Unary MSO query φ(x): membership vector over the session structure's
  /// elements.
  StatusOr<std::vector<bool>> EvaluateMsoUnary(const mso::FormulaPtr& phi,
                                               const std::string& free_var,
                                               RunStats* stats = nullptr,
                                               WorkBudget* budget = nullptr);

  // --- Datalog -------------------------------------------------------------

  /// Evaluates `program` with the session structure as EDB through
  /// datalog::SemiNaiveEvaluate. Each delta variant joins outward from its
  /// delta, so quasi-guarded τ_td programs scale linearly
  /// (bench_quasi_guarded); Thm 4.4's ground + LTUR pipeline,
  /// datalog::GroundedEvaluate, is a library function and test oracle.
  StatusOr<Structure> EvaluateDatalog(const datalog::Program& program,
                                      RunStats* stats = nullptr,
                                      WorkBudget* budget = nullptr);

  // --- Graph DPs -----------------------------------------------------------

  /// One problem: one core::RunDp walk of the cached normal form, answering
  /// Result(problem). A tripped `budget` aborts the traversal and returns
  /// its DeadlineExceeded / ResourceExhausted status; no partial result
  /// escapes and the session's cached artifacts are untouched, so the next
  /// query answers normally. A normal form with a bag of more than 63
  /// elements fails with ResourceExhausted before the walk starts (the
  /// subset DPs enumerate 2^|bag| states in a 64-bit mask). kThreeColorCount
  /// counts in saturating 64-bit arithmetic and fails with OutOfRange when
  /// the count reaches 2^64 - 1 (E_EVAL over the wire); a non-3-colorable
  /// graph answers 0 even if partial counts inside the walk saturated.
  StatusOr<SolveResult> Solve(Problem problem, RunStats* stats = nullptr,
                              WorkBudget* budget = nullptr);

  /// Evaluates all five Problems, one sequential Solve walk each over the
  /// same cached normal form: in Problem order at num_threads = 1, all five
  /// at once on the session pool otherwise. dp_peak_table_bytes is the
  /// largest single walk's peak (five concurrent walks may hold five
  /// frontiers); dp_traversals == 5 and dp_states is the five Solves' sum.
  /// The `budget`'s deadline counts all walks' units, its table-byte cap
  /// each walk's own live bytes. Returns the first failing problem's status
  /// in Problem order (a tripped budget, an OutOfRange count), as Solve
  /// does; at num_threads > 1 with both budget limits set, the abort reason
  /// is whichever limit tripped first.
  StatusOr<SolveAllResult> SolveAll(RunStats* stats = nullptr,
                                    WorkBudget* budget = nullptr);

  // --- Anytime decomposition improvement -----------------------------------

  /// Outcome of one ImproveDecomposition call. Costs are the modeled cost of
  /// the normal form the DPs traverse (td::NormalizedDpCost).
  struct ImproveResult {
    int width_before = 0;
    int width_after = 0;
    uint64_t cost_before = 0;
    uint64_t cost_after = 0;
    /// Local-search rounds run (== budget units consumed when budgeted).
    size_t rounds = 0;
    /// True when the session decomposition was replaced: width dropped, or
    /// width held and modeled cost strictly dropped.
    bool improved = false;
  };

  /// Anytime improvement of the cached session decomposition: width-reduce
  /// it, then run bounded local search over elimination orders (td/improve.hpp
  /// ImproveTd, seeded by the session fingerprint so the result is a pure
  /// function of the session input and the budget). On strict improvement the
  /// session decomposition is swapped and every artifact derived from the old
  /// one (closed/normalized forms, the enumeration sharding, τ_td, compiled
  /// MSO programs) is invalidated for lazy rebuild; the memoized primes
  /// survive (answers are decomposition-independent). `budget` bounds the
  /// search at one unit per round and exhaustion is a graceful stop, never
  /// an error. With no budget the search caps at a fixed round count.
  ///
  /// EXCEPTION to the immutable-artifact contract above the Ensure* methods:
  /// this is the one operation that replaces cached artifacts, so it requires
  /// external quiescence — no query may run concurrently or hold artifact
  /// pointers across the call. The serving layer guarantees this by treating
  /// REOPT as a non-compute request: the frontend drains every in-flight
  /// query, then runs this inline on the dispatch thread.
  StatusOr<ImproveResult> ImproveDecomposition(RunStats* stats = nullptr,
                                               WorkBudget* budget = nullptr);

  // --- Persistent sessions -------------------------------------------------

  /// Writes the cached tree decomposition and memoized primes (whichever
  /// exist) to `path` in the versioned format of docs/SESSION_FORMAT.md.
  /// Builds nothing: warm the cache with the queries you intend to serve,
  /// then save. The derived artifacts (closed decomposition, normal forms,
  /// τ_td, schema encoding) are not written; a restored session rebuilds
  /// them from the decomposition on first use. The file is stamped with a
  /// fingerprint of the session input, so it can only be loaded into an
  /// Engine over the same schema/structure.
  Status SaveSession(const std::string& path, RunStats* stats = nullptr);

  /// Restores the decomposition and primes memo from `path` into this
  /// session's cache (slots that are already built keep the in-memory
  /// artifact). The decomposition is adopted only after it validates
  /// against the session's Gaifman graph (ValidateForGraph) — a schema
  /// session pays its one encode build here — and the memo only if it has
  /// one entry per attribute.
  /// After a load into a cold engine, queries show zero td builds and one
  /// normalize build per normal form on first use. Sections of derived
  /// artifacts written by earlier builds are skipped. Corrupted,
  /// wrong-fingerprint, newer-versioned or non-validating files fail with a
  /// clean error Status and leave the decomposition and memo unchanged.
  Status LoadSession(const std::string& path, RunStats* stats = nullptr);

  // --- Identity and accounting ---------------------------------------------

  /// Stable hash of the session input (schema or structure): the value that
  /// stamps and verifies session files, and the key of the serving layer's
  /// session pool. Builds no counted artifact; a graph session encodes its
  /// structure here if nothing has yet.
  uint64_t Fingerprint();
  /// The fingerprint an Engine constructed from the same input would report
  /// — lets a pool key a lookup before paying for Engine construction.
  static uint64_t FingerprintOf(const Structure& structure);
  static uint64_t FingerprintOf(const Schema& schema);

  /// Deterministic estimate, in bytes, of the cached artifacts currently
  /// resident in this session (structure, encoding, decompositions, normal
  /// forms, τ_td). Fixed per-item charges, no sizeof — the same session
  /// state yields the same number on every platform, which is what the
  /// serving layer's shared admission budget compares.
  size_t ResidentArtifactBytes() const;
  /// The charge ResidentArtifactBytes assigns to a bare structure — the
  /// admission floor of a session before any artifact is built.
  static size_t EstimateStructureBytes(const Structure& structure);

  // --- Session artifacts ---------------------------------------------------

  /// The session schema, or null for structure sessions.
  const Schema* schema() const { return schema_.get(); }
  const EngineOptions& options() const { return options_; }

  /// The session τ-structure (encodes the schema lazily on first use).
  StatusOr<const Structure*> structure(RunStats* stats = nullptr);
  /// The cached raw decomposition (built and validated on first use).
  StatusOr<const TreeDecomposition*> Decomposition(RunStats* stats = nullptr);
  /// Width of the session decomposition.
  StatusOr<int> Width(RunStats* stats = nullptr);

  /// Aggregate of every RunStats this engine produced.
  RunStats CumulativeStats() const;
  void ResetCumulativeStats();

 private:
  // Mutexes live behind a unique_ptr so the Engine stays movable. cache_mu
  // serializes every lazy-cache check/build (the Ensure* methods below must
  // be called with it held); stats_mu guards cumulative_ only.
  struct Sync {
    std::mutex cache_mu;
    std::mutex stats_mu;
  };

  // All Ensure* methods require sync_->cache_mu to be held by the caller.
  // The artifacts they return are immutable once built and their addresses
  // are stable, so callers may keep using the pointers after releasing the
  // lock.
  StatusOr<const SchemaEncoding*> EnsureEncoding(RunStats* stats);
  StatusOr<const Structure*> EnsureStructure(RunStats* stats);
  StatusOr<const Graph*> EnsureGaifman(RunStats* stats);
  StatusOr<const TreeDecomposition*> EnsureTd(RunStats* stats);
  StatusOr<const core::internal::PrimalityContext*> EnsurePrimality(
      RunStats* stats);
  StatusOr<const TreeDecomposition*> EnsureClosedTd(RunStats* stats);
  StatusOr<const NormalizedTreeDecomposition*> EnsureEnumNtd(RunStats* stats);
  StatusOr<const NormalizedTreeDecomposition*> EnsurePlainNtd(RunStats* stats);
  StatusOr<const datalog::TauTdEncoding*> EnsureTauTd(RunStats* stats);
  /// Compiled Thm 4.5 program for `phi` (sentence form when free_var is
  /// null), from the per-formula cache or freshly constructed.
  StatusOr<const mso2dl::Mso2DlResult*> EnsureMsoProgram(
      const mso::FormulaPtr& phi, const std::string* free_var,
      RunStats* stats);
  /// The lazily created session thread pool, or null when the session is
  /// configured sequential (resolved num_threads <= 1).
  ThreadPool* EnsurePool();
  /// Graph session: the stored input graph is the Gaifman graph.
  Engine(Graph graph, EngineOptions options);
  /// Structure and graph sessions: the owned structure, encoding a graph
  /// session's input graph on first use.
  const Structure& OwnedStructure();
  /// Stable hash of the session input (schema or structure) used to stamp
  /// and verify session files.
  uint64_t SessionFingerprint();
  /// EngineOptions::num_threads with 0 resolved to hardware concurrency.
  size_t ResolvedNumThreads() const;
  /// True when the MSO query must be answered by direct quantifier
  /// expansion: a session width < 1 (Thm 4.5 needs width >= 1).
  StatusOr<bool> UseDirectMso(RunStats* stats);
  void Record(const RunStats& stats);
  /// The frame of every public query: resets `*stats` (or uses a local
  /// record when null), runs `body(s)` on it, stores the wall-clock
  /// total_millis and folds the record into the cumulative stats.
  template <typename Body>
  auto RunQuery(RunStats* stats, Body&& body);
  /// The one graph-DP path behind Solve and SolveAll: takes the cache lock
  /// once, then runs one sequential core::RunDp walk per problem (at once on
  /// the session pool when a parallel session is asked several) and returns
  /// the first error in Problem order.
  StatusOr<SolveAllResult> SolveProblems(
      std::initializer_list<Problem> problems, RunStats* stats,
      WorkBudget* budget);

  EngineOptions options_;
  // Owned inputs (unique_ptr keeps references inside cached artifacts stable
  // across moves). A graph session's input is gaifman_, set at construction;
  // its owned_structure_ is then built lazily like the artifacts below.
  std::unique_ptr<Schema> schema_;
  std::unique_ptr<Structure> owned_structure_;
  // Cached artifacts, built lazily under sync_->cache_mu and immutable
  // afterwards.
  std::unique_ptr<SchemaEncoding> encoding_;
  std::unique_ptr<core::internal::PrimalityContext> primality_;
  std::optional<Graph> gaifman_;
  std::optional<TreeDecomposition> td_;
  std::optional<TreeDecomposition> closed_td_;
  std::optional<NormalizedTreeDecomposition> enum_ntd_;
  std::optional<NormalizedTreeDecomposition> plain_ntd_;
  /// Sharding of enum_ntd_ for the parallel §5.3 enumeration (parallel
  /// schema sessions only).
  std::optional<BagSharding> enum_sharding_;
  std::optional<datalog::TauTdEncoding> tau_td_;
  std::optional<std::vector<bool>> primes_;
  /// Per-formula cache of compiled Thm 4.5 programs, keyed by query form +
  /// free variable + formula rendering (node-based map: value addresses are
  /// stable across inserts).
  std::unordered_map<std::string, mso2dl::Mso2DlResult> mso_programs_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Sync> sync_;
  RunStats cumulative_;
};

}  // namespace treedl

#endif  // TREEDL_ENGINE_ENGINE_HPP_
