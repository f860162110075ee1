// server_mix: a server::Server driven through the concurrent
// server::Frontend, the way `treedl_server --script` serves a script.
//
// Sixteen tenants (partial 4-trees) fill a 16-session pool. Set-up
// sends LOAD plus one SOLVEALL per tenant. The timed part serves chunks of
// four rounds — per tenant a SOLVEALL, a SOLVE DS and a monadic reachability
// QUERY — followed by one ASSERT of a pendant edge, which changes that
// tenant's fingerprint and forces a cold rebuild plus an LRU eviction.
//
// Request latency runs from the moment the dispatch thread starts reading
// the request line until its reply line is written; both instants are
// stamped by this file's stream buffers. Every reply is checked after the
// timed part against a sequential Engine on the same tenant state.
#include <cstdio>
#include <istream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "datalog/eval.hpp"
#include "datalog/parser.hpp"
#include "engine/engine.hpp"
#include "graph/gaifman.hpp"
#include "graph/generators.hpp"
#include "perfbench.hpp"
#include "server/frontend.hpp"
#include "server/server.hpp"
#include "structure/structure_io.hpp"

namespace perfbench {

using treedl::Engine;
using treedl::Graph;
using treedl::StatusOr;

namespace {

// Sixteen tenants on a sixteen-session pool: the request cost of one round
// sums over sixteen independently generated graphs, which keeps it steady
// from seed to seed.
constexpr size_t kTenants = 16;
constexpr size_t kTenantVertices = 250;
constexpr int kTenantTreewidth = 4;
constexpr double kKeepProbability = 0.55;
constexpr size_t kRoundsPerChunk = 4;
constexpr int kSetupRepeats = 3;
const char kQuery[] = "reach(X) :- e(v0, X). reach(Y) :- reach(X), e(X, Y).";

/// Stream timestamps: when the reader starts consuming each request line,
/// and when each reply (its OK/ERR line plus any DATA lines) is written.
struct StreamLog {
  struct Reply {
    Clock::time_point at;
    std::string text;
  };
  std::vector<Clock::time_point> read_at;
  std::vector<Reply> replies;
};

/// Hands the reader one line per underflow, stamping the moment it starts
/// reading that line.
class LineSource : public std::streambuf {
 public:
  LineSource(const std::vector<std::string>* lines, StreamLog* log)
      : lines_(lines), log_(log) {}

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ >= lines_->size()) return traits_type::eof();
    current_ = (*lines_)[next_++] + "\n";
    log_->read_at.push_back(Clock::now());
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  const std::vector<std::string>* lines_;
  StreamLog* log_;
  size_t next_ = 0;
  std::string current_;
};

/// Collects reply lines, stamping each OK/ERR line as it is written. The
/// front-end calls it under its sequencer lock, one reply at a time.
class ReplySink : public std::streambuf {
 public:
  explicit ReplySink(StreamLog* log) : log_(log) {}

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      Put(traits_type::to_char_type(ch));
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) Put(s[i]);
    return n;
  }

 private:
  void Put(char c) {
    line_ += c;
    if (c != '\n') return;
    if (line_.rfind("DATA ", 0) == 0 && !log_->replies.empty()) {
      log_->replies.back().text += line_;
    } else {
      log_->replies.push_back({Clock::now(), line_});
    }
    line_.clear();
  }

  StreamLog* log_;
  std::string line_;
};

enum class Kind { kLoad, kAssert, kSolveAll, kSolveDs, kQuery };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kLoad: return "server.load";
    case Kind::kAssert: return "server.assert";
    case Kind::kSolveAll: return "server.solveall";
    case Kind::kSolveDs: return "server.solve";
    case Kind::kQuery: return "server.query";
  }
  return "server.unknown";
}

/// One request of the script, with the tenant state it must be answered on.
struct RequestInfo {
  Kind kind = Kind::kLoad;
  size_t tenant = 0;
  size_t version = 0;
  /// 0 = set-up, 1 = untraced timed part, 2 = traced timed part.
  int phase = 0;
};

/// A tenant's graph: the generated partial 4-tree plus the pendant edges
/// ASSERTed so far. Version v is the base plus the first v pendant edges.
struct Tenant {
  Graph base;
  std::vector<std::pair<treedl::VertexId, treedl::VertexId>> added;

  Graph At(size_t version) const {
    Graph graph = base;
    for (size_t i = 0; i < version; ++i) {
      treedl::VertexId v = graph.AddVertex();
      graph.AddEdge(v, added[i].second);
    }
    return graph;
  }
};

std::string TenantName(size_t t) { return "t" + std::to_string(t); }

std::string Flatten(const std::string& text) {
  std::string flat;
  for (char c : text) flat += c == '\n' ? ' ' : c;
  while (!flat.empty() && flat.back() == ' ') flat.pop_back();
  return flat;
}

std::map<std::string, std::string> KeyValues(const std::string& line) {
  std::map<std::string, std::string> out;
  std::istringstream words(line);
  std::string word;
  while (words >> word) {
    size_t eq = word.find('=');
    if (eq != std::string::npos) out[word.substr(0, eq)] = word.substr(eq + 1);
  }
  return out;
}

/// The answers a sequential Engine gives on one tenant state.
struct Expected {
  Engine::SolveAllResult all;
  std::set<std::string> reach;
};

Expected ComputeExpected(const Graph& graph) {
  treedl::EngineOptions options;
  options.heuristic = treedl::TdHeuristic::kMinDegree;
  options.num_threads = 1;
  Engine engine = Engine::FromGraph(graph, options);
  Expected out;
  StatusOr<Engine::SolveAllResult> all = engine.SolveAll();
  if (!all.ok()) throw std::runtime_error("reference SolveAll failed");
  out.all = all.value();
  StatusOr<const treedl::Structure*> structure = engine.structure();
  StatusOr<treedl::datalog::Program> program = treedl::datalog::ParseProgram(
      kQuery, structure.value()->signature());
  if (!program.ok()) throw std::runtime_error("reference query parse failed");
  StatusOr<treedl::Structure> derived = engine.EvaluateDatalog(program.value());
  if (!derived.ok()) throw std::runtime_error("reference query failed");
  StatusOr<treedl::PredicateId> reach =
      derived.value().signature().PredicateIdOf("reach");
  if (reach.ok()) {
    for (const treedl::Tuple& tuple : derived.value().Relation(reach.value())) {
      out.reach.insert(derived.value().ElementName(tuple[0]));
    }
  }
  return out;
}

/// A server, its front-end, and the script state of one set-up.
class Rig {
 public:
  explicit Rig(uint64_t seed) : rng_(seed) {
    treedl::server::ServerOptions options;
    options.echo_stats = false;
    options.max_sessions = kTenants;
    server_ = std::make_unique<treedl::server::Server>(options);
    treedl::server::FrontendOptions frontend_options;
    frontend_options.num_threads = Nproc() > 1 ? Nproc() - 1 : 1;
    frontend_ = std::make_unique<treedl::server::Frontend>(server_.get(),
                                                           frontend_options);
    for (size_t t = 0; t < kTenants; ++t) {
      tenants_.push_back({treedl::RandomPartialKTree(
                              kTenantVertices, kTenantTreewidth,
                              kKeepProbability, &rng_),
                          {}});
    }
  }

  /// LOAD plus one SOLVEALL per tenant.
  void ServeSetup() {
    std::vector<std::string> lines;
    for (size_t t = 0; t < kTenants; ++t) {
      lines.push_back("LOAD " + TenantName(t) + " SIG e/2 FACTS " +
                      Flatten(treedl::FormatStructure(
                          treedl::GraphToStructure(tenants_[t].base))));
      requests_.push_back({Kind::kLoad, t, 0, 0});
    }
    for (size_t t = 0; t < kTenants; ++t) {
      lines.push_back("SOLVEALL " + TenantName(t));
      requests_.push_back({Kind::kSolveAll, t, 0, 0});
    }
    Serve(lines);
  }

  /// Four rounds of SOLVEALL / SOLVE DS / QUERY per tenant, then one ASSERT
  /// of a pendant edge on the next tenant in turn. Returns the requests
  /// served.
  size_t ServeChunk(int phase) {
    std::vector<std::string> lines;
    for (size_t round = 0; round < kRoundsPerChunk; ++round) {
      for (size_t t = 0; t < kTenants; ++t) {
        size_t version = tenants_[t].added.size();
        lines.push_back("SOLVEALL " + TenantName(t));
        requests_.push_back({Kind::kSolveAll, t, version, phase});
        lines.push_back("SOLVE " + TenantName(t) + " DS");
        requests_.push_back({Kind::kSolveDs, t, version, phase});
        lines.push_back("QUERY " + TenantName(t) + " " + kQuery);
        requests_.push_back({Kind::kQuery, t, version, phase});
      }
    }
    size_t t = asserts_++ % kTenants;
    Tenant& tenant = tenants_[t];
    size_t vertex = tenant.base.NumVertices() + tenant.added.size();
    treedl::VertexId anchor = static_cast<treedl::VertexId>(
        rng_.UniformIndex(vertex));
    std::string a = "v" + std::to_string(vertex);
    std::string b = "v" + std::to_string(anchor);
    lines.push_back("ASSERT " + TenantName(t) + " e(" + a + ", " + b +
                    "). e(" + b + ", " + a + ").");
    tenant.added.push_back({static_cast<treedl::VertexId>(vertex), anchor});
    requests_.push_back({Kind::kAssert, t, tenant.added.size(), phase});
    Serve(lines);
    return lines.size();
  }

  /// Request latencies (read → reply) of `kind` in `phase`.
  std::vector<double> Latencies(Kind kind, int phase) const {
    std::vector<double> out;
    for (size_t i = 0; i < requests_.size(); ++i) {
      if (requests_[i].kind == kind && requests_[i].phase == phase) {
        out.push_back(MillisBetween(log_.read_at[i], log_.replies[i].at));
      }
    }
    return out;
  }

  /// Checks every reply against a sequential Engine on the same tenant
  /// state; returns the number of requests checked.
  size_t Verify(Outcome* out) const {
    std::map<std::pair<size_t, size_t>, Expected> expected;
    for (size_t i = 0; i < requests_.size(); ++i) {
      const RequestInfo& request = requests_[i];
      const std::string& reply = log_.replies[i].text;
      std::string what = std::string(KindName(request.kind)) + " on " +
                         TenantName(request.tenant);
      if (reply.rfind("OK ", 0) != 0) {
        out->Fail(what + ": " + reply.substr(0, reply.find('\n')));
        continue;
      }
      if (request.kind == Kind::kLoad || request.kind == Kind::kAssert) {
        continue;
      }
      auto key = std::make_pair(request.tenant, request.version);
      auto it = expected.find(key);
      if (it == expected.end()) {
        it = expected
                 .emplace(key, ComputeExpected(
                                   tenants_[request.tenant].At(
                                       request.version)))
                 .first;
      }
      const Expected& want = it->second;
      std::map<std::string, std::string> got = KeyValues(
          reply.substr(0, reply.find('\n')));
      bool ok = true;
      if (request.kind == Kind::kSolveAll) {
        ok = got["three_colorable"] ==
                 (want.all.three_colorable ? "1" : "0") &&
             got["colorings"] == std::to_string(want.all.three_colorings) &&
             got["vc"] == std::to_string(want.all.min_vertex_cover) &&
             got["is"] == std::to_string(want.all.max_independent_set) &&
             got["ds"] == std::to_string(want.all.min_dominating_set);
      } else if (request.kind == Kind::kSolveDs) {
        ok = got["optimum"] == std::to_string(want.all.min_dominating_set);
      } else {
        std::set<std::string> rows;
        std::istringstream lines(reply);
        std::string line;
        while (std::getline(lines, line)) {
          // DATA reach(v12).
          if (line.rfind("DATA reach(", 0) == 0 && line.size() > 13) {
            rows.insert(line.substr(11, line.size() - 13));
          }
        }
        ok = got["data"] == std::to_string(want.reach.size()) &&
             rows == want.reach;
      }
      if (!ok) out->Fail(what + " differs from a sequential Engine");
    }
    return requests_.size();
  }

  treedl::server::Server& server() { return *server_; }
  treedl::server::Frontend& frontend() { return *frontend_; }
  const std::vector<RequestInfo>& requests() const { return requests_; }
  const StreamLog& log() const { return log_; }
  const Tenant& tenant(size_t t) const { return tenants_[t]; }

 private:
  void Serve(const std::vector<std::string>& lines) {
    LineSource source(&lines, &log_);
    ReplySink sink(&log_);
    std::istream in(&source);
    std::ostream out(&sink);
    frontend_->Serve(in, out);
    if (log_.read_at.size() != requests_.size() ||
        log_.replies.size() != requests_.size()) {
      throw std::runtime_error("server replies out of step with requests");
    }
  }

  treedl::Rng rng_;
  std::vector<Tenant> tenants_;
  std::vector<RequestInfo> requests_;
  StreamLog log_;
  size_t asserts_ = 0;
  // Declared after the state they read; the front-end goes first.
  std::unique_ptr<treedl::server::Server> server_;
  std::unique_ptr<treedl::server::Frontend> frontend_;
};

/// The traced mode's out-of-band measurements: per-command latency spans,
/// sequential service times (for frontend.wait_ms), the datalog fixpoint on
/// each tenant, the first-query chain on each tenant graph, and the serving
/// counters.
void MeasureLayers(Rig* rig, Tracer* tracer, Outcome* out) {
  const StreamLog& log = rig->log();
  std::vector<double> compute_latency;
  for (size_t i = 0; i < rig->requests().size(); ++i) {
    const RequestInfo& request = rig->requests()[i];
    bool last_setup_load = request.phase == 0 && request.kind == Kind::kLoad;
    if (request.phase != 2 && !last_setup_load) continue;
    tracer->Record(KindName(request.kind), log.read_at[i],
                   log.replies[i].at);
    if (request.phase == 2 && request.kind != Kind::kAssert) {
      compute_latency.push_back(
          MillisBetween(log.read_at[i], log.replies[i].at));
    }
  }
  for (Kind kind : {Kind::kLoad, Kind::kAssert, Kind::kSolveAll,
                    Kind::kSolveDs, Kind::kQuery}) {
    out->Set(std::string(KindName(kind)) + "_ms",
             Median(tracer->Durations(KindName(kind))), "ms");
  }

  // Service time of each compute request type, one at a time on the idle
  // server (its sessions are resident): the queueing-free part of latency.
  std::vector<double> service;
  for (size_t t = 0; t < kTenants; ++t) {
    for (const std::string& line :
         {"SOLVEALL " + TenantName(t), "SOLVE " + TenantName(t) + " DS",
          "QUERY " + TenantName(t) + " " + kQuery}) {
      std::string reply;
      tracer->BeginOp();
      Clock::time_point start = Clock::now();
      {
        Tracer::Scope span(tracer, "server.service");
        rig->server().HandleLine(line, &reply);
      }
      service.push_back(MillisSince(start));
      if (reply.rfind("OK ", 0) != 0) out->Fail("service probe: " + reply);
    }
  }
  out->Set("frontend.wait_ms", Median(compute_latency) - Median(service),
           "ms");

  std::vector<double> rounds, dispatches, derived;
  GraphChainResult chain;
  for (size_t t = 0; t < kTenants; ++t) {
    const Tenant& tenant = rig->tenant(t);
    Graph graph = tenant.At(tenant.added.size());
    treedl::Structure structure = treedl::GraphToStructure(graph);
    StatusOr<treedl::datalog::Program> program =
        treedl::datalog::ParseProgram(kQuery, structure.signature());
    if (!program.ok()) throw std::runtime_error("query parse failed");
    treedl::RunStats stats;
    tracer->BeginOp();
    {
      Tracer::Scope span(tracer, "datalog.query");
      if (!treedl::datalog::SemiNaiveEvaluate(program.value(), structure,
                                              &stats)
               .ok()) {
        out->Fail("datalog probe failed");
      }
    }
    rounds.push_back(static_cast<double>(stats.fixpoint_rounds));
    dispatches.push_back(static_cast<double>(stats.executor_dispatches));
    derived.push_back(static_cast<double>(stats.derived_facts));

    // Pooled sessions are sequential (no engine pool), so the chain runs
    // without one too.
    tracer->BeginOp();
    treedl::EngineOptions sequential;
    sequential.num_threads = 1;
    sequential.extract_witness = false;
    bool colorable = false;
    {
      Tracer::Scope span(tracer, "engine.first_3col");
      Engine engine = Engine::FromGraph(graph, sequential);
      StatusOr<Engine::SolveResult> result =
          engine.Solve(Engine::Problem::kThreeColor);
      colorable = result.ok() && result.value().feasible;
    }
    chain = RunGraphChain(graph, nullptr, tracer);
    if (chain.colorable != colorable) {
      out->Fail("layer chain and Engine disagree on a tenant");
    }
  }
  out->Set("datalog.query_ms", Median(tracer->Durations("datalog.query")),
           "ms");
  out->Set("datalog.fixpoint_rounds", Median(rounds), "count");
  out->Set("datalog.executor_dispatches", Median(dispatches), "count");
  out->Set("datalog.derived_facts", Median(derived), "count");
  SetGraphChainMetrics(*tracer, chain, out);
}

void SetServingCounters(Rig* rig, Outcome* out) {
  treedl::server::SessionPoolCounters pool = rig->server().pool().counters();
  treedl::server::FrontendCounters frontend = rig->frontend().counters();
  treedl::server::ServerStats stats = rig->server().stats();
  size_t acquires = pool.hits + pool.misses;
  out->Set("session_pool.hits", static_cast<double>(pool.hits), "count");
  out->Set("session_pool.misses", static_cast<double>(pool.misses), "count");
  out->Set("session_pool.evictions", static_cast<double>(pool.evictions),
           "count");
  out->Set("session_pool.build_waits", static_cast<double>(pool.build_waits),
           "count");
  out->Set("session_pool.rejections", static_cast<double>(pool.rejections),
           "count");
  out->Set("session_pool.hit_ratio",
           acquires == 0 ? 0
                         : static_cast<double>(pool.hits) /
                               static_cast<double>(acquires),
           "ratio");
  out->Set("server.errors", static_cast<double>(stats.replies_error), "count");
  out->Set("frontend.barriers", static_cast<double>(frontend.barriers),
           "count");
  out->Set("frontend.dispatched_compute",
           static_cast<double>(frontend.dispatched_compute), "count");
  out->Set("frontend.barrier_share",
           static_cast<double>(frontend.barriers) /
               static_cast<double>(rig->requests().size()),
           "ratio");
  char line[200];
  std::snprintf(line, sizeof(line),
                "session_pool: hits=%zu misses=%zu evictions=%zu; frontend: "
                "barriers=%zu dispatched=%zu",
                pool.hits, pool.misses, pool.evictions, frontend.barriers,
                frontend.dispatched_compute);
  out->Note(line);
}

}  // namespace

Outcome RunServerMix(const Options& options, Tracer* tracer) {
  Outcome out;
  std::vector<double> setup_seconds;
  std::unique_ptr<Rig> rig;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    Clock::time_point start = Clock::now();
    rig.reset();
    rig = std::make_unique<Rig>(options.seed);
    rig->ServeSetup();
    setup_seconds.push_back(MillisSince(start) / 1e3);
  }

  auto run_loop = [&](double seconds, int phase) {
    Clock::time_point start = Clock::now();
    size_t requests = 0;
    while (requests == 0 || MillisSince(start) < seconds * 1e3) {
      requests += rig->ServeChunk(phase);
    }
    return std::make_pair(requests, MillisSince(start) / 1e3);
  };
  double timed_seconds = tracer != nullptr ? options.seconds / 2
                                           : options.seconds;
  auto [requests, wall] = run_loop(timed_seconds, 1);
  std::vector<double> solve_ms = rig->Latencies(Kind::kSolveAll, 1);
  for (double ms : rig->Latencies(Kind::kSolveDs, 1)) solve_ms.push_back(ms);
  std::vector<double> query_ms = rig->Latencies(Kind::kQuery, 1);
  out.SetLatency("solve", "compute(SOLVEALL, SOLVE)", solve_ms);
  out.SetLatency("query", "compute(QUERY)", query_ms);
  out.Set("ops_per_s", static_cast<double>(requests) / wall, "1/s");
  out.Set("setup_s", Median(setup_seconds), "s");

  if (tracer != nullptr) {
    run_loop(timed_seconds, 2);
    std::vector<double> traced_solve = rig->Latencies(Kind::kSolveAll, 2);
    for (double ms : rig->Latencies(Kind::kSolveDs, 2)) {
      traced_solve.push_back(ms);
    }
    out.Set("trace.overhead.solve_ms",
            Median(traced_solve) - Median(solve_ms), "ms");
    out.Set("trace.overhead.query_ms",
            Median(rig->Latencies(Kind::kQuery, 2)) - Median(query_ms), "ms");
    SetServingCounters(rig.get(), &out);
    MeasureLayers(rig.get(), tracer, &out);
  } else {
    SetServingCounters(rig.get(), &out);
  }
  out.attempted += rig->Verify(&out);
  char line[200];
  std::snprintf(line, sizeof(line),
                "ops_per_s: %zu requests in %.3f s; setup_s: median of %d "
                "set-ups",
                requests, wall, kSetupRepeats);
  out.Note(line);
  return out;
}

}  // namespace perfbench
