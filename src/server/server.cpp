#include "server/server.hpp"

#include <istream>
#include <ostream>
#include <utility>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/string_util.hpp"
#include "common/work_budget.hpp"
#include "datalog/analysis.hpp"
#include "datalog/parser.hpp"
#include "mso/parser.hpp"
#include "structure/structure_io.hpp"

namespace treedl::server {

namespace {

std::string KeyValue(std::string_view key, size_t value) {
  std::string out(key);
  out += '=';
  out += std::to_string(value);
  return out;
}

const char* PoolLabel(const SessionPool::Lease& lease) {
  if (lease.hit) return "hit";
  return lease.warm_loaded ? "warm" : "cold";
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  SessionPoolOptions pool_options;
  pool_options.max_sessions = options_.max_sessions;
  pool_options.table_memory_budget = options_.table_memory_budget;
  pool_options.session_dir = options_.session_dir;
  pool_ = std::make_unique<SessionPool>(std::move(pool_options));
}

Server::~Server() = default;

bool Server::HandleLine(std::string_view line, std::string* out) {
  StatusOr<std::optional<Request>> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    stats_.requests.fetch_add(1, std::memory_order_relaxed);
    EmitError(ErrorCodeFor(parsed.status()), parsed.status().message(), out);
    return true;
  }
  if (!parsed.value().has_value()) return true;  // comment / blank line
  return HandleRequest(*parsed.value(), out);
}

bool Server::HandleRequest(const Request& request, std::string* out) {
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  if (std::holds_alternative<QuitRequest>(request)) {
    EmitOk("QUIT", "", out);
    return false;
  }
  if (IsComputeRequest(request)) {
    // The single-threaded driver runs the exact two stages the concurrent
    // front-end runs, back to back — the transcript cannot depend on which
    // driver produced it.
    std::optional<ComputeWork> work = PrepareCompute(request, out);
    if (work.has_value()) ExecuteCompute(*work, out);
    return true;
  }
  std::visit(
      [&](const auto& typed) {
        using T = std::decay_t<decltype(typed)>;
        if constexpr (std::is_same_v<T, LoadRequest>) {
          HandleLoad(typed, out);
        } else if constexpr (std::is_same_v<T, AssertRequest>) {
          HandleAssert(typed, out);
        } else if constexpr (std::is_same_v<T, SaveRequest>) {
          HandleSave(typed, out);
        } else if constexpr (std::is_same_v<T, OpenRequest>) {
          HandleOpen(typed, out);
        } else if constexpr (std::is_same_v<T, StatsRequest>) {
          HandleStats(typed, out);
        } else if constexpr (std::is_same_v<T, DeadlineRequest>) {
          HandleDeadline(typed, out);
        } else if constexpr (std::is_same_v<T, ReoptRequest>) {
          HandleReopt(typed, out);
        } else if constexpr (std::is_same_v<T, CloseRequest>) {
          HandleClose(typed, out);
        }
      },
      request);
  return true;
}

size_t Server::Serve(std::istream& in, std::ostream& out) {
  std::string line;
  size_t before = stats_.requests.load(std::memory_order_relaxed);
  bool keep_going = true;
  while (keep_going && std::getline(in, line)) {
    std::string replies;
    keep_going = HandleLine(line, &replies);
    out << replies;
    out.flush();
  }
  return stats_.requests.load(std::memory_order_relaxed) - before;
}

bool Server::IsComputeRequest(const Request& request) {
  return std::holds_alternative<QueryRequest>(request) ||
         std::holds_alternative<SolveRequest>(request) ||
         std::holds_alternative<SolveAllRequest>(request) ||
         std::holds_alternative<MsoRequest>(request);
}

std::optional<uint64_t> Server::ComputeFingerprint(
    const Request& request) const {
  const std::string* tenant_name = nullptr;
  if (const auto* query = std::get_if<QueryRequest>(&request)) {
    tenant_name = &query->tenant;
  } else if (const auto* solve = std::get_if<SolveRequest>(&request)) {
    tenant_name = &solve->tenant;
  } else if (const auto* all = std::get_if<SolveAllRequest>(&request)) {
    tenant_name = &all->tenant;
  } else if (const auto* mso = std::get_if<MsoRequest>(&request)) {
    tenant_name = &mso->tenant;
  }
  if (tenant_name == nullptr) return std::nullopt;
  auto it = tenants_.find(*tenant_name);
  if (it == tenants_.end()) return std::nullopt;
  return it->second.fingerprint;
}

std::optional<Server::ComputeWork> Server::PrepareCompute(
    const Request& request, std::string* out) {
  if (const auto* query = std::get_if<QueryRequest>(&request)) {
    StatusOr<Tenant*> found = FindTenant(query->tenant);
    if (!found.ok()) {
      EmitError(ErrorCode::kNoTenant, found.status().message(), out);
      return std::nullopt;
    }
    StatusOr<datalog::Program> program =
        datalog::ParseProgram(query->program, found.value()->signature);
    if (!program.ok()) {
      EmitError(ErrorCode::kParse, program.status().message(), out);
      return std::nullopt;
    }
    StatusOr<SessionPool::Lease> lease = AcquireFor(*found.value());
    if (!lease.ok()) {
      EmitStatus(lease.status(), out);
      return std::nullopt;
    }
    ComputeWork work;
    work.request = request;
    work.lease = std::move(lease).value();
    work.program = std::move(program).value();
    work.deadline = deadline_units_;
    return work;
  }
  if (const auto* mso = std::get_if<MsoRequest>(&request)) {
    StatusOr<Tenant*> found = FindTenant(mso->tenant);
    if (!found.ok()) {
      EmitError(ErrorCode::kNoTenant, found.status().message(), out);
      return std::nullopt;
    }
    StatusOr<mso::FormulaPtr> formula = mso::ParseFormula(mso->formula);
    if (!formula.ok()) {
      EmitError(ErrorCode::kParse, formula.status().message(), out);
      return std::nullopt;
    }
    StatusOr<SessionPool::Lease> lease = AcquireFor(*found.value());
    if (!lease.ok()) {
      EmitStatus(lease.status(), out);
      return std::nullopt;
    }
    ComputeWork work;
    work.request = request;
    work.lease = std::move(lease).value();
    work.formula = std::move(formula).value();
    work.deadline = deadline_units_;
    return work;
  }
  const std::string* tenant_name = nullptr;
  if (const auto* solve = std::get_if<SolveRequest>(&request)) {
    tenant_name = &solve->tenant;
  } else if (const auto* all = std::get_if<SolveAllRequest>(&request)) {
    tenant_name = &all->tenant;
  }
  if (tenant_name == nullptr) return std::nullopt;  // not a compute request
  StatusOr<Tenant*> found = FindTenant(*tenant_name);
  if (!found.ok()) {
    EmitError(ErrorCode::kNoTenant, found.status().message(), out);
    return std::nullopt;
  }
  StatusOr<SessionPool::Lease> lease = AcquireFor(*found.value());
  if (!lease.ok()) {
    EmitStatus(lease.status(), out);
    return std::nullopt;
  }
  ComputeWork work;
  work.request = request;
  work.lease = std::move(lease).value();
  work.deadline = deadline_units_;
  return work;
}

void Server::ExecuteCompute(ComputeWork& work, std::string* out) {
  if (std::holds_alternative<QueryRequest>(work.request)) {
    ExecuteQuery(work, out);
  } else if (std::holds_alternative<SolveRequest>(work.request)) {
    ExecuteSolve(work, out);
  } else if (std::holds_alternative<SolveAllRequest>(work.request)) {
    ExecuteSolveAll(work, out);
  } else if (std::holds_alternative<MsoRequest>(work.request)) {
    ExecuteMso(work, out);
  }
}

WorkBudget* Server::ArmBudget(const ComputeWork& work,
                              WorkBudget* budget) const {
  bool armed = false;
  if (work.deadline.has_value()) {
    budget->SetDeadline(*work.deadline);
    armed = true;
  }
  if (options_.table_memory_budget > 0) {
    budget->SetTableBytesLimit(options_.table_memory_budget);
    armed = true;
  }
  return armed ? budget : nullptr;
}

StatusOr<Server::Tenant*> Server::FindTenant(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    return Status::NotFound("tenant '" + name + "' has no loaded structure");
  }
  return &it->second;
}

StatusOr<SessionPool::Lease> Server::AcquireFor(const Tenant& tenant) {
  return pool_->Acquire(tenant.structure);
}

std::string Server::FinishRun(uint64_t fingerprint, const RunStats& run) {
  pool_->RefreshCharge(fingerprint);
  size_t peak = stats_.peak_table_bytes.load(std::memory_order_relaxed);
  while (run.dp_peak_table_bytes > peak &&
         !stats_.peak_table_bytes.compare_exchange_weak(
             peak, run.dp_peak_table_bytes, std::memory_order_relaxed)) {
  }
  if (!options_.echo_stats) return "";
  std::string echo = " ";
  echo += KeyValue("encode", run.encode_builds);
  echo += ' ';
  echo += KeyValue("td", run.td_builds);
  echo += ' ';
  echo += KeyValue("normalize", run.normalize_builds);
  echo += ' ';
  echo += KeyValue("cache_hits", run.cache_hits);
  return echo;
}

void Server::HandleLoad(const LoadRequest& request, std::string* out) {
  StatusOr<Signature> signature = Signature::Make(request.predicates);
  if (!signature.ok()) {
    EmitError(ErrorCode::kBadArgument, signature.status().message(), out);
    return;
  }
  StatusOr<Structure> structure =
      ParseStructure(signature.value(), request.facts);
  if (!structure.ok()) {
    EmitError(ErrorCode::kParse, structure.status().message(), out);
    return;
  }
  StatusOr<SessionPool::Lease> lease = pool_->Acquire(structure.value());
  if (!lease.ok()) {
    EmitStatus(lease.status(), out);
    return;
  }
  Tenant tenant{std::move(signature).value(), request.facts,
                std::move(structure).value(), lease.value().fingerprint};
  size_t elements = tenant.structure.NumElements();
  size_t facts = tenant.structure.NumFacts();
  tenants_.insert_or_assign(request.tenant, std::move(tenant));
  std::string details = "tenant=" + request.tenant +
                        " fingerprint=" + Hex16(lease.value().fingerprint) +
                        " " + KeyValue("elements", elements) + " " +
                        KeyValue("facts", facts) +
                        " pool=" + PoolLabel(lease.value());
  if (lease.value().warm_loaded) {
    details += " " + KeyValue("loads", lease.value().artifact_loads);
  }
  pool_->RefreshCharge(lease.value().fingerprint);
  EmitOk("LOAD", details, out);
}

void Server::HandleAssert(const AssertRequest& request, std::string* out) {
  StatusOr<Tenant*> found = FindTenant(request.tenant);
  if (!found.ok()) {
    EmitError(ErrorCode::kNoTenant, found.status().message(), out);
    return;
  }
  Tenant* tenant = found.value();
  std::string combined = tenant->facts_text;
  if (!combined.empty()) combined += '\n';
  combined += request.facts;
  StatusOr<Structure> structure = ParseStructure(tenant->signature, combined);
  if (!structure.ok()) {
    EmitError(ErrorCode::kParse, structure.status().message(), out);
    return;
  }
  tenant->facts_text = std::move(combined);
  tenant->structure = std::move(structure).value();
  tenant->fingerprint = Engine::FingerprintOf(tenant->structure);
  EmitOk("ASSERT",
         "tenant=" + request.tenant + " " +
             KeyValue("facts", tenant->structure.NumFacts()) +
             " fingerprint=" + Hex16(tenant->fingerprint),
         out);
}

void Server::ExecuteQuery(ComputeWork& work, std::string* out) {
  const QueryRequest& request = std::get<QueryRequest>(work.request);
  RunStats run;
  WorkBudget budget;
  StatusOr<Structure> result = work.lease.engine->EvaluateDatalog(
      work.program, &run, ArmBudget(work, &budget));
  if (!result.ok()) {
    EmitStatus(result.status(), out);
    return;
  }
  // Render the derived (intensional) facts, predicate-major in signature
  // order, tuples in derivation order — deterministic.
  StatusOr<datalog::ProgramInfo> info = datalog::AnalyzeProgram(work.program);
  std::vector<std::string> rows;
  if (info.ok()) {
    const Signature& signature = result.value().signature();
    for (PredicateId p = 0; p < static_cast<PredicateId>(signature.size());
         ++p) {
      if (static_cast<size_t>(p) >= info.value().intensional.size() ||
          !info.value().intensional[static_cast<size_t>(p)]) {
        continue;
      }
      for (const Tuple& tuple : result.value().Relation(p)) {
        std::string row = signature.name(p) + "(";
        for (size_t i = 0; i < tuple.size(); ++i) {
          if (i > 0) row += ", ";
          row += result.value().ElementName(tuple[i]);
        }
        row += ").";
        rows.push_back(std::move(row));
      }
    }
  }
  std::string details = "tenant=" + request.tenant + " " +
                        KeyValue("data", rows.size()) + " " +
                        KeyValue("derived", run.derived_facts) +
                        " pool=" + std::string(PoolLabel(work.lease)) +
                        FinishRun(work.lease.fingerprint, run);
  EmitOk("QUERY", details, out);
  for (const std::string& row : rows) EmitData(row, out);
}

void Server::ExecuteSolve(ComputeWork& work, std::string* out) {
  const SolveRequest& request = std::get<SolveRequest>(work.request);
  RunStats run;
  WorkBudget budget;
  StatusOr<Engine::SolveResult> result = work.lease.engine->Solve(
      request.problem, &run, ArmBudget(work, &budget));
  if (!result.ok()) {
    EmitStatus(result.status(), out);
    return;
  }
  std::string details = "tenant=" + request.tenant +
                        " problem=" + ProblemName(request.problem);
  switch (request.problem) {
    case Engine::Problem::kThreeColor:
      details += " " + KeyValue("feasible", result.value().feasible ? 1 : 0);
      break;
    case Engine::Problem::kThreeColorCount:
      details +=
          " " + KeyValue("count", static_cast<size_t>(result.value().count));
      break;
    default:
      details += " " + KeyValue("optimum", result.value().optimum);
      break;
  }
  details += " pool=" + std::string(PoolLabel(work.lease)) +
             FinishRun(work.lease.fingerprint, run);
  EmitOk("SOLVE", details, out);
}

void Server::ExecuteSolveAll(ComputeWork& work, std::string* out) {
  const SolveAllRequest& request = std::get<SolveAllRequest>(work.request);
  RunStats run;
  WorkBudget budget;
  StatusOr<Engine::SolveAllResult> result =
      work.lease.engine->SolveAll(&run, ArmBudget(work, &budget));
  if (!result.ok()) {
    EmitStatus(result.status(), out);
    return;
  }
  const Engine::SolveAllResult& all = result.value();
  std::string details =
      "tenant=" + request.tenant + " " +
      KeyValue("three_colorable", all.three_colorable ? 1 : 0) + " " +
      KeyValue("colorings", static_cast<size_t>(all.three_colorings)) + " " +
      KeyValue("vc", all.min_vertex_cover) + " " +
      KeyValue("is", all.max_independent_set) + " " +
      KeyValue("ds", all.min_dominating_set) +
      " pool=" + std::string(PoolLabel(work.lease)) +
      FinishRun(work.lease.fingerprint, run);
  EmitOk("SOLVEALL", details, out);
}

void Server::ExecuteMso(ComputeWork& work, std::string* out) {
  const MsoRequest& request = std::get<MsoRequest>(work.request);
  RunStats run;
  WorkBudget budget;
  StatusOr<bool> holds = work.lease.engine->EvaluateMso(
      work.formula, &run, ArmBudget(work, &budget));
  if (!holds.ok()) {
    EmitStatus(holds.status(), out);
    return;
  }
  std::string details = "tenant=" + request.tenant + " " +
                        KeyValue("holds", holds.value() ? 1 : 0) +
                        " pool=" + std::string(PoolLabel(work.lease)) +
                        FinishRun(work.lease.fingerprint, run);
  EmitOk("MSO", details, out);
}

void Server::HandleSave(const SaveRequest& request, std::string* out) {
  StatusOr<Tenant*> found = FindTenant(request.tenant);
  if (!found.ok()) {
    EmitError(ErrorCode::kNoTenant, found.status().message(), out);
    return;
  }
  Tenant* tenant = found.value();
  // Make sure the session is resident (SAVE after eviction re-admits it).
  StatusOr<SessionPool::Lease> lease = AcquireFor(*tenant);
  if (!lease.ok()) {
    EmitStatus(lease.status(), out);
    return;
  }
  RunStats run;
  Status saved = TREEDL_FAULT_POINT("server.save");
  if (saved.ok()) saved = pool_->Save(lease.value().fingerprint, &run);
  if (!saved.ok()) {
    EmitError(ErrorCode::kIo, saved.message(), out);
    return;
  }
  EmitOk("SAVE",
         "tenant=" + request.tenant + " " +
             KeyValue("artifacts", run.artifact_saves) +
             " fingerprint=" + Hex16(lease.value().fingerprint),
         out);
}

void Server::HandleOpen(const OpenRequest& request, std::string* out) {
  StatusOr<Tenant*> found = FindTenant(request.tenant);
  if (!found.ok()) {
    EmitError(ErrorCode::kNoTenant, found.status().message(), out);
    return;
  }
  if (options_.session_dir.empty()) {
    EmitError(ErrorCode::kIo,
              "OPEN requires the server to run with a session directory", out);
    return;
  }
  StatusOr<SessionPool::Lease> lease = AcquireFor(*found.value());
  if (!lease.ok()) {
    EmitStatus(lease.status(), out);
    return;
  }
  size_t loads = lease.value().artifact_loads;
  RunStats run;
  if (!lease.value().warm_loaded) {
    // Explicit warm start of an already-resident (or cold-constructed)
    // session; already-built slots keep their in-memory artifacts.
    std::string path = pool_->SessionFilePath(lease.value().fingerprint);
    Status loaded = lease.value().engine->LoadSession(path, &run);
    if (!loaded.ok()) {
      EmitError(ErrorCode::kIo, loaded.message(), out);
      return;
    }
    loads = run.artifact_loads;
  }
  pool_->RefreshCharge(lease.value().fingerprint);
  EmitOk("OPEN",
         "tenant=" + request.tenant + " " + KeyValue("loads", loads) +
             " pool=" + PoolLabel(lease.value()),
         out);
}

void Server::HandleStats(const StatsRequest& request, std::string* out) {
  if (!request.tenant.has_value()) {
    SessionPoolCounters pool_counters = pool_->counters();
    ServerStats snapshot = stats();
    std::string details =
        KeyValue("requests", snapshot.requests) + " " +
        KeyValue("ok", snapshot.replies_ok) + " " +
        KeyValue("err", snapshot.replies_error) + " " +
        KeyValue("data", snapshot.data_lines) + " " +
        KeyValue("tenants", tenants_.size()) + " " +
        KeyValue("resident", pool_->NumResident()) + " " +
        KeyValue("hits", pool_counters.hits) + " " +
        KeyValue("misses", pool_counters.misses) + " " +
        KeyValue("evictions", pool_counters.evictions) + " " +
        KeyValue("warm_loads", pool_counters.warm_loads) + " " +
        KeyValue("quarantines", pool_counters.quarantines) + " " +
        KeyValue("rejections", pool_counters.rejections) + " " +
        KeyValue("charged_bytes", pool_->ChargedBytes()) + " " +
        KeyValue("peak_table_bytes", snapshot.peak_table_bytes) + " " +
        KeyValue("budget", options_.table_memory_budget);
    EmitOk("STATS", details, out);
    return;
  }
  StatusOr<Tenant*> found = FindTenant(*request.tenant);
  if (!found.ok()) {
    EmitError(ErrorCode::kNoTenant, found.status().message(), out);
    return;
  }
  Tenant* tenant = found.value();
  std::string details = "tenant=" + *request.tenant +
                        " fingerprint=" + Hex16(tenant->fingerprint);
  std::shared_ptr<Engine> engine = pool_->Peek(tenant->fingerprint);
  details += " " + KeyValue("resident", engine != nullptr ? 1 : 0);
  if (engine != nullptr) {
    RunStats cumulative = engine->CumulativeStats();
    details += " " + KeyValue("encode_builds", cumulative.encode_builds) +
               " " + KeyValue("td_builds", cumulative.td_builds) + " " +
               KeyValue("normalize_builds", cumulative.normalize_builds) +
               " " + KeyValue("cache_hits", cumulative.cache_hits) + " " +
               KeyValue("artifact_loads", cumulative.artifact_loads) + " " +
               KeyValue("dp_states", cumulative.dp_states) + " " +
               KeyValue("resident_bytes", engine->ResidentArtifactBytes());
  }
  EmitOk("STATS", details, out);
}

void Server::HandleDeadline(const DeadlineRequest& request, std::string* out) {
  deadline_units_ = request.units;
  if (deadline_units_.has_value()) {
    EmitOk("DEADLINE", "units=" + std::to_string(*deadline_units_), out);
  } else {
    EmitOk("DEADLINE", "off", out);
  }
}

void Server::HandleReopt(const ReoptRequest& request, std::string* out) {
  StatusOr<Tenant*> found = FindTenant(request.tenant);
  if (!found.ok()) {
    EmitError(ErrorCode::kNoTenant, found.status().message(), out);
    return;
  }
  StatusOr<SessionPool::Lease> lease = AcquireFor(*found.value());
  if (!lease.ok()) {
    EmitStatus(lease.status(), out);
    return;
  }
  // A fresh per-request budget, one unit per local-search round; exhaustion
  // is the normal stop, never an error reply. REOPT deliberately does not
  // touch the connection's DEADLINE state or the session's own budget. As a
  // non-compute request this always runs on the dispatch thread with the
  // pipeline drained — exactly the quiescence Engine::ImproveDecomposition
  // requires for the one artifact-mutating operation.
  WorkBudget budget;
  budget.SetDeadline(request.units);
  RunStats run;
  StatusOr<Engine::ImproveResult> improved =
      lease.value().engine->ImproveDecomposition(&run, &budget);
  if (!improved.ok()) {
    EmitStatus(improved.status(), out);
    return;
  }
  const Engine::ImproveResult& r = improved.value();
  std::string details =
      "tenant=" + request.tenant +
      " fingerprint=" + Hex16(lease.value().fingerprint) + " " +
      KeyValue("improved", r.improved ? 1 : 0) + " " +
      KeyValue("width_before", static_cast<size_t>(r.width_before)) + " " +
      KeyValue("width_after", static_cast<size_t>(r.width_after)) + " " +
      KeyValue("cost_before", r.cost_before) + " " +
      KeyValue("cost_after", r.cost_after) + " " +
      KeyValue("rounds", r.rounds) + " pool=" + PoolLabel(lease.value()) +
      FinishRun(lease.value().fingerprint, run);
  EmitOk("REOPT", details, out);
}

void Server::HandleClose(const CloseRequest& request, std::string* out) {
  auto it = tenants_.find(request.tenant);
  if (it == tenants_.end()) {
    EmitError(ErrorCode::kNoTenant,
              "tenant '" + request.tenant + "' has no loaded structure", out);
    return;
  }
  // The pooled session (if any) stays resident for other tenants with the
  // same structure; LRU eviction reclaims it naturally.
  tenants_.erase(it);
  EmitOk("CLOSE", "tenant=" + request.tenant, out);
}

ServerStats Server::stats() const {
  ServerStats snapshot;
  snapshot.requests = stats_.requests.load(std::memory_order_relaxed);
  snapshot.replies_ok = stats_.replies_ok.load(std::memory_order_relaxed);
  snapshot.replies_error = stats_.replies_error.load(std::memory_order_relaxed);
  snapshot.data_lines = stats_.data_lines.load(std::memory_order_relaxed);
  snapshot.peak_table_bytes =
      stats_.peak_table_bytes.load(std::memory_order_relaxed);
  return snapshot;
}

void Server::EmitOk(std::string_view command, std::string_view details,
                    std::string* out) {
  stats_.replies_ok.fetch_add(1, std::memory_order_relaxed);
  *out += OkReply(command, details);
  *out += '\n';
}

void Server::EmitData(std::string_view payload, std::string* out) {
  stats_.data_lines.fetch_add(1, std::memory_order_relaxed);
  *out += DataReply(payload);
  *out += '\n';
}

void Server::EmitError(ErrorCode code, std::string_view message,
                       std::string* out) {
  stats_.replies_error.fetch_add(1, std::memory_order_relaxed);
  *out += ErrorReply(code, message);
  *out += '\n';
}

void Server::EmitStatus(const Status& status, std::string* out) {
  EmitError(ErrorCodeFor(status), status.message(), out);
}

}  // namespace treedl::server
