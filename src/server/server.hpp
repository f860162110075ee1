// treedl::server::Server — the multi-tenant serving layer above the Engine.
//
// A Server owns three things:
//
//   tenants   — named bindings of a signature + committed facts (LOAD/ASSERT
//               mutate these; they are cheap text + structure state, not
//               engines);
//   a pool    — the fingerprint-keyed SessionPool of warm Engines, with LRU
//               eviction, a shared memory budget, and transparent warm start
//               from session files;
//   a driver  — HandleLine/Serve, which parse protocol requests
//               (server/protocol.hpp), execute them against pooled sessions,
//               and render deterministic replies.
//
// Two tenants whose structures are equal share one pooled Engine: the pool
// is keyed by structure fingerprint, not tenant name, so N clients loading
// the same graph pay for one decomposition. Requests are the unit of
// parallelism: every pooled engine runs sequentially (its num_threads is
// forced to 1), and concurrency comes from the front-end's workers serving
// independent sessions side by side.
//
// Serve/HandleLine remain the single-threaded driver — one request at a
// time, deterministic by construction. The concurrent front-end
// (server/frontend.hpp) reuses the exact same execution code through the
// two-stage compute split below: PrepareCompute runs sequentially on the
// dispatch thread (tenant lookup, payload parse, pool acquire — everything
// that orders the pool), ExecuteCompute runs on any worker thread (engine
// evaluation + reply rendering — everything thread-safe). HandleLine's
// compute path is literally PrepareCompute + ExecuteCompute, so the two
// drivers cannot diverge byte-wise. Reply counters are atomics: workers
// bump them concurrently, and the barrier discipline of the front-end makes
// every STATS read deterministic.
#ifndef TREEDL_SERVER_SERVER_HPP_
#define TREEDL_SERVER_SERVER_HPP_

#include <atomic>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "datalog/ast.hpp"
#include "mso/ast.hpp"
#include "server/protocol.hpp"
#include "server/session_pool.hpp"
#include "structure/structure.hpp"

namespace treedl::server {

struct ServerOptions {
  /// Most warm sessions resident at once (SessionPoolOptions::max_sessions).
  size_t max_sessions = 8;
  /// Global byte budget shared by all resident sessions and their live DP
  /// tables (0 = unlimited). See SessionPoolOptions::table_memory_budget.
  size_t table_memory_budget = 0;
  /// Directory for SAVE/OPEN session files; empty disables persistence.
  std::string session_dir;
  /// Echo per-request RunStats counters (encode/td/normalize/cache_hits) in
  /// OK replies. Off for byte-stable transcripts that must not depend on
  /// cache state.
  bool echo_stats = true;
};

/// A point-in-time snapshot of the server counters (the live counters are
/// atomics shared by the front-end workers).
struct ServerStats {
  size_t requests = 0;      // protocol lines parsed as requests (incl. failed)
  size_t replies_ok = 0;    // OK lines written
  size_t replies_error = 0; // ERR lines written
  size_t data_lines = 0;    // DATA lines written
  /// High-water mark of RunStats::dp_peak_table_bytes across requests —
  /// together with the pool's ChargedBytes this is what the shared budget
  /// bounds.
  size_t peak_table_bytes = 0;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  /// Handles one raw protocol line, appending '\n'-terminated reply lines to
  /// `*out` (comments and blank lines append nothing). Returns false when
  /// the line was QUIT. Not thread-safe: one driver at a time.
  bool HandleLine(std::string_view line, std::string* out);

  /// Handles one already-parsed request. Same contract as HandleLine.
  bool HandleRequest(const Request& request, std::string* out);

  /// The single-threaded driver loop: getline over `in`, replies to `out`
  /// (flushed per request), until EOF or QUIT. Returns the number of
  /// requests handled. For a concurrent driver, see server/frontend.hpp.
  size_t Serve(std::istream& in, std::ostream& out);

  // --- The two-stage compute split used by the concurrent front-end --------

  /// True for per-tenant compute requests (QUERY/SOLVE/SOLVEALL/MSO): no
  /// tenant-map or pool-structure mutation, so the front-end may execute
  /// them off the dispatch thread after PrepareCompute.
  static bool IsComputeRequest(const Request& request);

  /// One compute request validated and leased by the sequential stage;
  /// everything ExecuteCompute needs is captured here, so it can run on any
  /// thread.
  struct ComputeWork {
    Request request;
    SessionPool::Lease lease;
    datalog::Program program;  // QUERY only
    mso::FormulaPtr formula;   // MSO only
    /// Armed work-unit deadline captured at prepare time (DEADLINE state is
    /// dispatch-thread state; capturing it here keeps ExecuteCompute free of
    /// server mutation and the reply independent of worker scheduling).
    std::optional<uint64_t> deadline;
  };

  /// The pool fingerprint a compute request would acquire, or nullopt when
  /// its tenant is unbound. Lets the front-end decide whether the acquire
  /// will hit a resident session (safe to dispatch immediately) or miss
  /// (must drain the pipeline first: cold construction, eviction and
  /// admission all read state in-flight requests may still be writing).
  std::optional<uint64_t> ComputeFingerprint(const Request& request) const;

  /// Sequential stage of a compute request: tenant lookup, payload parse,
  /// pool acquire — everything whose ORDER determines pool state (LRU
  /// clock, hit/miss counters, admission). On failure the error reply is
  /// rendered into *out and nullopt returns. Call from one thread at a time.
  std::optional<ComputeWork> PrepareCompute(const Request& request,
                                            std::string* out);

  /// Parallel stage: evaluates the leased engine and renders the reply.
  /// Thread-safe — engines, pool accounting and the reply counters all
  /// tolerate concurrent callers.
  void ExecuteCompute(ComputeWork& work, std::string* out);

  ServerStats stats() const;
  SessionPool& pool() { return *pool_; }
  const SessionPool& pool() const { return *pool_; }

 private:
  friend class Frontend;

  struct Tenant {
    Signature signature;
    std::string facts_text;
    Structure structure;
    uint64_t fingerprint = 0;
  };

  struct AtomicStats {
    std::atomic<size_t> requests{0};
    std::atomic<size_t> replies_ok{0};
    std::atomic<size_t> replies_error{0};
    std::atomic<size_t> data_lines{0};
    std::atomic<size_t> peak_table_bytes{0};
  };

  /// Arms `*budget` with the request's captured deadline and the server's
  /// table_memory_budget hard cap; returns it, or nullptr when neither limit
  /// is set (keeps the DP inner loops on their no-budget fast path).
  WorkBudget* ArmBudget(const ComputeWork& work, WorkBudget* budget) const;

  /// The tenant for `name`, or a kNoTenant-shaped NotFound status.
  StatusOr<Tenant*> FindTenant(const std::string& name);
  /// Acquire + common error mapping; echoes `pool=hit|warm|cold`.
  StatusOr<SessionPool::Lease> AcquireFor(const Tenant& tenant);
  /// Folds a finished request's RunStats into the server counters and the
  /// pool charge, and renders the echo suffix ("" when echo_stats is off).
  std::string FinishRun(uint64_t fingerprint, const RunStats& run);

  void HandleLoad(const LoadRequest& request, std::string* out);
  void HandleAssert(const AssertRequest& request, std::string* out);
  void HandleSave(const SaveRequest& request, std::string* out);
  void HandleOpen(const OpenRequest& request, std::string* out);
  void HandleStats(const StatsRequest& request, std::string* out);
  void HandleDeadline(const DeadlineRequest& request, std::string* out);
  void HandleReopt(const ReoptRequest& request, std::string* out);
  void HandleClose(const CloseRequest& request, std::string* out);

  void ExecuteQuery(ComputeWork& work, std::string* out);
  void ExecuteSolve(ComputeWork& work, std::string* out);
  void ExecuteSolveAll(ComputeWork& work, std::string* out);
  void ExecuteMso(ComputeWork& work, std::string* out);

  void EmitOk(std::string_view command, std::string_view details,
              std::string* out);
  void EmitData(std::string_view payload, std::string* out);
  void EmitError(ErrorCode code, std::string_view message, std::string* out);
  void EmitStatus(const Status& status, std::string* out);

  ServerOptions options_;
  std::unique_ptr<SessionPool> pool_;
  std::map<std::string, Tenant> tenants_;  // ordered: deterministic STATS
  /// Armed DEADLINE for subsequent compute requests (nullopt = off). Only
  /// the dispatch thread reads or writes it.
  std::optional<uint64_t> deadline_units_;
  AtomicStats stats_;
};

}  // namespace treedl::server

#endif  // TREEDL_SERVER_SERVER_HPP_
