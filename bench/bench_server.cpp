// The multi-tenant serving bench: replay a deterministic workload (N random
// partial k-trees x M interleaved request rounds) through treedl::Server and
// measure what the session pool buys.
//
// Four phases, each its own Server:
//   cold     — LOAD every structure, then M rounds of SOLVEALL/SOLVE/#3COL
//              per tenant; after the first round every request is a pool hit,
//              so the hit rate converges to (requests - N) / requests. Ends
//              with SAVE per tenant into a session directory.
//   warm     — a fresh Server over the same session directory. LOAD+SOLVEALL
//              per tenant must do ZERO encode/TD/normalize builds (checked
//              via the GlobalEngineCounters delta): the amortization story of
//              the paper's §5.3, across process restarts.
//   churn    — max_sessions=2, tenants round-robin twice: deterministic LRU
//              eviction traffic.
//   admission— a 1KiB shared budget; the LOAD must be rejected (E_ADMISSION),
//              never crash.
//
// Flags: --quick shrinks the workload for CI; --json <path> writes the
// deterministic counters (requests, hits, evictions, warm builds, table
// bytes — no wall-clock) for the BENCH gate.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "common/timer.hpp"
#include "graph/gaifman.hpp"
#include "graph/generators.hpp"
#include "server/frontend.hpp"
#include "server/server.hpp"
#include "structure/structure_io.hpp"

namespace treedl {
namespace {

struct BenchConfig {
  size_t structures = 6;
  size_t vertices = 160;
  int treewidth = 4;
  double keep_probability = 0.6;
  size_t rounds = 4;
  size_t budget = 32 * 1024 * 1024;
  uint64_t seed = 20260808;
  const char* json_path = nullptr;
};

/// Protocol requests are one line each: drop '%' comments, join with spaces.
std::string Flatten(const std::string& text) {
  std::string flat;
  for (const std::string& line : Split(text, '\n')) {
    std::string_view piece(line);
    size_t comment = piece.find('%');
    if (comment != std::string_view::npos) piece = piece.substr(0, comment);
    piece = Trim(piece);
    if (piece.empty()) continue;
    if (!flat.empty()) flat += ' ';
    flat += piece;
  }
  return flat;
}

std::vector<std::string> MakeLoadLines(const BenchConfig& config) {
  Rng rng(config.seed);
  std::vector<std::string> lines;
  for (size_t i = 0; i < config.structures; ++i) {
    Graph graph = RandomPartialKTree(config.vertices, config.treewidth,
                                     config.keep_probability, &rng);
    Structure structure = GraphToStructure(graph);
    lines.push_back("LOAD g" + std::to_string(i) + " SIG e/2 FACTS " +
                    Flatten(FormatStructure(structure)));
  }
  return lines;
}

size_t RunScript(server::Server* server, const std::string& script,
                 std::string* transcript) {
  std::istringstream in(script);
  std::ostringstream out;
  size_t requests = server->Serve(in, out);
  if (transcript != nullptr) *transcript = out.str();
  return requests;
}

struct ColdResult {
  size_t requests = 0;
  server::SessionPoolCounters pool;
  size_t peak_table_bytes = 0;
  size_t charged_bytes = 0;
  size_t errors = 0;
  double millis = 0;
};

ColdResult RunColdPhase(const BenchConfig& config,
                        const std::vector<std::string>& loads,
                        const std::string& session_dir) {
  server::ServerOptions options;
  options.max_sessions = config.structures;
  options.table_memory_budget = config.budget;
  options.session_dir = session_dir;
  options.echo_stats = false;
  server::Server server(options);

  std::string script;
  for (const std::string& load : loads) script += load + "\n";
  for (size_t round = 0; round < config.rounds; ++round) {
    for (size_t i = 0; i < config.structures; ++i) {
      const std::string tenant = "g" + std::to_string(i);
      script += "SOLVEALL " + tenant + "\n";
      script += "SOLVE " + tenant + " VC\n";
      script += "SOLVE " + tenant + " #3COL\n";
    }
  }
  for (size_t i = 0; i < config.structures; ++i) {
    script += "SAVE g" + std::to_string(i) + "\n";
  }
  script += "STATS\nQUIT\n";

  Timer timer;
  ColdResult result;
  result.requests = RunScript(&server, script, nullptr);
  result.millis = timer.ElapsedMillis();
  result.pool = server.pool().counters();
  result.peak_table_bytes = server.stats().peak_table_bytes;
  result.charged_bytes = server.pool().ChargedBytes();
  result.errors = server.stats().replies_error;
  return result;
}

struct WarmResult {
  size_t warm_loads = 0;
  size_t encode_builds = 0;
  size_t td_builds = 0;
  size_t normalize_builds = 0;
  size_t errors = 0;
};

WarmResult RunWarmPhase(const BenchConfig& config,
                        const std::vector<std::string>& loads,
                        const std::string& session_dir) {
  server::ServerOptions options;
  options.max_sessions = config.structures;
  options.table_memory_budget = config.budget;
  options.session_dir = session_dir;
  options.echo_stats = false;
  server::Server server(options);

  std::string script;
  for (size_t i = 0; i < config.structures; ++i) {
    script += loads[i] + "\n";
    script += "SOLVEALL g" + std::to_string(i) + "\n";
  }
  script += "QUIT\n";

  EngineCounters& global = GlobalEngineCounters();
  size_t encode_before = global.encode_builds.load();
  size_t td_before = global.td_builds.load();
  size_t normalize_before = global.normalize_builds.load();
  RunScript(&server, script, nullptr);

  WarmResult result;
  result.warm_loads = server.pool().counters().warm_loads;
  result.encode_builds = global.encode_builds.load() - encode_before;
  result.td_builds = global.td_builds.load() - td_before;
  result.normalize_builds = global.normalize_builds.load() - normalize_before;
  result.errors = server.stats().replies_error;
  return result;
}

server::SessionPoolCounters RunChurnPhase(const BenchConfig& config,
                                  const std::vector<std::string>& loads) {
  server::ServerOptions options;
  options.max_sessions = 2;
  options.echo_stats = false;
  server::Server server(options);

  std::string script;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < config.structures; ++i) {
      script += loads[i] + "\n";
    }
  }
  script += "QUIT\n";
  RunScript(&server, script, nullptr);
  TREEDL_CHECK(server.stats().replies_error == 0);
  return server.pool().counters();
}

size_t RunAdmissionPhase(const std::vector<std::string>& loads) {
  server::ServerOptions options;
  options.table_memory_budget = 1024;  // far below any structure estimate
  options.echo_stats = false;
  server::Server server(options);
  std::string transcript;
  RunScript(&server, loads[0] + "\nQUIT\n", &transcript);
  TREEDL_CHECK(transcript.find("ERR E_ADMISSION") != std::string::npos)
      << "expected an admission rejection, got: " << transcript;
  return server.pool().counters().rejections;
}

struct ContendedResult {
  size_t requests = 0;       // requests per driver run
  size_t dispatched = 0;     // compute requests executed on workers (4t run)
  size_t barriers = 0;       // pipeline drains (4t run)
  bool identical = false;    // 1t / frontend-2t / frontend-4t transcripts
  double millis_plain = 0;
  double millis_4t = 0;
};

/// The contended phase: the cold workload again, driven through the
/// concurrent front-end at several thread counts. The payoff being measured
/// is correctness under contention — every driver must produce the same
/// transcript byte for byte — plus the deterministic pipeline counters.
ContendedResult RunContendedPhase(const BenchConfig& config,
                                  const std::vector<std::string>& loads) {
  std::string script;
  for (const std::string& load : loads) script += load + "\n";
  for (size_t round = 0; round < config.rounds; ++round) {
    for (size_t i = 0; i < config.structures; ++i) {
      const std::string tenant = "g" + std::to_string(i);
      script += "SOLVEALL " + tenant + "\n";
      script += "SOLVE " + tenant + " VC\n";
      script += "SOLVE " + tenant + " #3COL\n";
    }
  }
  script += "STATS\nQUIT\n";

  server::ServerOptions options;
  options.max_sessions = config.structures;
  options.table_memory_budget = config.budget;
  options.echo_stats = false;

  ContendedResult result;
  std::string reference;
  {
    server::Server server(options);
    Timer timer;
    result.requests = RunScript(&server, script, &reference);
    result.millis_plain = timer.ElapsedMillis();
  }

  auto run_frontend = [&](size_t threads, std::string* transcript,
                          double* millis) {
    server::Server server(options);
    server::FrontendOptions frontend_options;
    frontend_options.num_threads = threads;
    server::Frontend frontend(&server, frontend_options);
    std::istringstream in(script);
    std::ostringstream out;
    Timer timer;
    frontend.Serve(in, out);
    if (millis != nullptr) *millis = timer.ElapsedMillis();
    *transcript = out.str();
    return frontend.counters();
  };

  std::string two_threads;
  run_frontend(2, &two_threads, nullptr);
  std::string four_threads;
  server::FrontendCounters counters =
      run_frontend(4, &four_threads, &result.millis_4t);
  result.dispatched = counters.dispatched_compute;
  result.barriers = counters.barriers;
  result.identical = two_threads == reference && four_threads == reference;
  return result;
}

struct ShedResult {
  size_t dispatched = 0;
  size_t rejections = 0;
  size_t max_queue_depth = 0;
};

/// Deterministic back-pressure: workers gated, one session, a burst beyond
/// queue_capacity with reject_when_full — the shed set is exact, not a
/// timing artifact.
ShedResult RunShedPhase(const std::vector<std::string>& loads) {
  constexpr size_t kBurst = 8;
  constexpr size_t kCapacity = 2;
  server::ServerOptions options;
  options.echo_stats = false;
  server::Server server(options);
  server::FrontendOptions frontend_options;
  frontend_options.num_threads = 2;
  frontend_options.queue_capacity = kCapacity;
  frontend_options.reject_when_full = true;
  frontend_options.hold_workers = true;
  server::Frontend frontend(&server, frontend_options);

  std::string script = loads[0] + "\n";
  for (size_t i = 0; i < kBurst; ++i) script += "SOLVE g0 VC\n";
  std::istringstream in(script);
  std::ostringstream out;
  std::thread driver([&] { frontend.Serve(in, out); });
  while (frontend.counters().queue_full_rejections < kBurst - kCapacity) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  frontend.ReleaseWorkers();
  driver.join();

  TREEDL_CHECK(out.str().find("ERR E_ADMISSION") != std::string::npos);
  server::FrontendCounters counters = frontend.counters();
  ShedResult result;
  result.dispatched = counters.dispatched_compute;
  result.rejections = counters.queue_full_rejections;
  result.max_queue_depth = counters.max_queue_depth;
  return result;
}

struct ChaosResult {
  size_t faults_injected = 0;  // across both chaos servers
  size_t deadline_sheds = 0;   // ERR E_DEADLINE replies
  size_t quarantines = 0;      // session files renamed to .corrupt
  size_t errors = 0;           // total ERR replies (every one fault-typed)
  bool recovered = false;      // every tenant answered after its fault
};

/// The chaos phase: a fixed fault schedule (failed session-file write,
/// failed cold build), deadline shedding, and a quarantined warm start —
/// every injected fault must surface as a typed ERR reply, every tenant must
/// answer correctly on its next request, and the counters are deterministic.
ChaosResult RunChaosPhase(const std::vector<std::string>& loads) {
  const std::string dir = "bench_server_chaos_sessions";
  std::filesystem::create_directories(dir);
  server::ServerOptions options;
  options.echo_stats = false;
  options.session_dir = dir;

  ChaosResult result;
  std::string transcript;
  {
    TREEDL_CHECK(FaultInjector::Global()
                     .SetSchedule("session_io.write@0,session_pool.build@1")
                     .ok());
    server::Server server(options);
    std::string script = loads[0] + "\n" +
                         "SAVE g0\n"    // write hit 0: injected E_IO
                         "SAVE g0\n" +  // recovery write lands on disk
                         loads[1] + "\n" +  // build hit 1: injected failure
                         loads[1] + "\n" +  // exactly-once retry builds
                         "DEADLINE 1\n"
                         "SOLVE g0 VC\n"  // shed
                         "SOLVE g1 VC\n"  // shed
                         "DEADLINE OFF\n"
                         "SOLVE g0 VC\n"  // recovered compute
                         "SOLVE g1 VC\n"
                         "QUIT\n";
    RunScript(&server, script, &transcript);
    result.faults_injected += FaultInjector::Global().FaultsInjected();
    result.errors += server.stats().replies_error;
  }
  for (size_t pos = transcript.find("ERR E_DEADLINE");
       pos != std::string::npos;
       pos = transcript.find("ERR E_DEADLINE", pos + 1)) {
    ++result.deadline_sheds;
  }
  size_t solves = 0;
  for (size_t pos = transcript.find("OK SOLVE"); pos != std::string::npos;
       pos = transcript.find("OK SOLVE", pos + 1)) {
    ++solves;
  }
  result.recovered = solves == 2 &&
                     transcript.find("OK SAVE") != std::string::npos;

  {
    // A fresh server over the same session directory, with the warm-start
    // read scheduled to fail: the file is quarantined, the session rebuilds
    // cold, and the tenant still answers — degradation, not an error.
    TREEDL_CHECK(
        FaultInjector::Global().SetSchedule("session_io.read@0").ok());
    server::Server degraded(options);
    std::string script = loads[0] + "\nSOLVE g0 VC\nQUIT\n";
    std::string degraded_transcript;
    RunScript(&degraded, script, &degraded_transcript);
    result.faults_injected += FaultInjector::Global().FaultsInjected();
    result.quarantines = degraded.pool().counters().quarantines;
    result.errors += degraded.stats().replies_error;
    result.recovered = result.recovered &&
                       degraded_transcript.find("OK SOLVE") !=
                           std::string::npos;
  }
  FaultInjector::Global().Disable();
  std::filesystem::remove_all(dir);
  return result;
}

void RunServerBench(const BenchConfig& config) {
  const std::string session_dir = "bench_server_sessions";
  std::filesystem::create_directories(session_dir);
  std::vector<std::string> loads = MakeLoadLines(config);

  std::printf(
      "Server workload: %zu partial %d-trees, n=%zu, %zu rounds x 3 requests "
      "per tenant, budget %zuMiB\n",
      config.structures, config.treewidth, config.vertices, config.rounds,
      config.budget >> 20);

  ColdResult cold = RunColdPhase(config, loads, session_dir);
  size_t lookups = cold.pool.hits + cold.pool.misses;
  std::printf(
      "  cold: %zu requests in %.2f ms (%.0f req/s)  pool %zu/%zu hits "
      "(%.1f%%)  peak_tables=%zuB  charged=%zuB  errors=%zu\n",
      cold.requests, cold.millis, 1000.0 * cold.requests / cold.millis,
      cold.pool.hits, lookups, 100.0 * cold.pool.hits / lookups,
      cold.peak_table_bytes, cold.charged_bytes, cold.errors);
  TREEDL_CHECK(cold.errors == 0);
  TREEDL_CHECK(cold.peak_table_bytes < config.budget)
      << cold.peak_table_bytes << " >= " << config.budget;
  TREEDL_CHECK(cold.charged_bytes < config.budget);

  WarmResult warm = RunWarmPhase(config, loads, session_dir);
  // Session files persist the decomposition only: a warm restart decomposes
  // nothing and derives one normal form per restored structure.
  std::printf(
      "  warm restart: %zu/%zu sessions warm-loaded, encode/td/normalize "
      "builds = %zu/%zu/%zu (must be 0/0/%zu)\n",
      warm.warm_loads, config.structures, warm.encode_builds, warm.td_builds,
      warm.normalize_builds, config.structures);
  TREEDL_CHECK(warm.errors == 0);
  TREEDL_CHECK(warm.warm_loads == config.structures);
  TREEDL_CHECK(warm.encode_builds == 0);
  TREEDL_CHECK(warm.td_builds == 0);
  TREEDL_CHECK(warm.normalize_builds == config.structures);

  server::SessionPoolCounters churn = RunChurnPhase(config, loads);
  std::printf("  churn (max_sessions=2): %zu misses, %zu evictions\n",
              churn.misses, churn.evictions);

  size_t rejections = RunAdmissionPhase(loads);
  std::printf("  admission (budget 1KiB): %zu rejection(s), no crash\n",
              rejections);
  TREEDL_CHECK(rejections == 1);

  ContendedResult contended = RunContendedPhase(config, loads);
  std::printf(
      "  contended: %zu requests, plain %.2f ms vs frontend(4) %.2f ms, "
      "%zu dispatched, %zu barriers, transcripts identical=%d\n",
      contended.requests, contended.millis_plain, contended.millis_4t,
      contended.dispatched, contended.barriers, contended.identical ? 1 : 0);
  TREEDL_CHECK(contended.identical)
      << "front-end transcript diverged from the single-threaded driver";
  TREEDL_CHECK(contended.dispatched ==
               config.rounds * config.structures * 3);

  ShedResult shed = RunShedPhase(loads);
  std::printf(
      "  shed (capacity 2, workers held): %zu dispatched, %zu rejected, "
      "max depth %zu\n",
      shed.dispatched, shed.rejections, shed.max_queue_depth);
  TREEDL_CHECK(shed.dispatched == 2 && shed.rejections == 6);

  ChaosResult chaos = RunChaosPhase(loads);
  std::printf(
      "  chaos: %zu faults injected, %zu deadline sheds, %zu quarantine(s), "
      "%zu typed errors, recovered=%d\n",
      chaos.faults_injected, chaos.deadline_sheds, chaos.quarantines,
      chaos.errors, chaos.recovered ? 1 : 0);
  TREEDL_CHECK(chaos.faults_injected == 3);
  TREEDL_CHECK(chaos.deadline_sheds == 2);
  TREEDL_CHECK(chaos.quarantines == 1);
  // Every ERR reply is accounted for: two injected faults surfaced on the
  // first server, two deadline sheds; the quarantined warm start degrades
  // without erroring.
  TREEDL_CHECK(chaos.errors == 4) << chaos.errors;
  TREEDL_CHECK(chaos.recovered);

  std::filesystem::remove_all(session_dir);

  if (config.json_path != nullptr) {
    FILE* out = std::fopen(config.json_path, "w");
    TREEDL_CHECK(out != nullptr) << "cannot open " << config.json_path;
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"server\",\n"
                 "  \"structures\": %zu,\n"
                 "  \"vertices\": %zu,\n"
                 "  \"treewidth\": %d,\n"
                 "  \"seed\": %llu,\n"
                 "  \"requests\": %zu,\n"
                 "  \"pool_hits\": %zu,\n"
                 "  \"pool_misses\": %zu,\n"
                 "  \"hit_rate_permille\": %zu,\n"
                 "  \"peak_table_bytes\": %zu,\n"
                 "  \"charged_bytes\": %zu,\n"
                 "  \"warm_loads\": %zu,\n"
                 "  \"warm_encode_builds\": %zu,\n"
                 "  \"warm_td_builds\": %zu,\n"
                 "  \"warm_normalize_builds\": %zu,\n"
                 "  \"churn_evictions\": %zu,\n"
                 "  \"admission_rejections\": %zu,\n"
                 "  \"contended_requests\": %zu,\n"
                 "  \"contended_dispatched\": %zu,\n"
                 "  \"contended_barriers\": %zu,\n"
                 "  \"contended_transcripts_identical\": %d,\n"
                 "  \"shed_dispatched\": %zu,\n"
                 "  \"shed_rejections\": %zu,\n"
                 "  \"chaos_faults_injected\": %zu,\n"
                 "  \"chaos_deadline_sheds\": %zu,\n"
                 "  \"chaos_quarantines\": %zu,\n"
                 "  \"chaos_typed_errors\": %zu,\n"
                 "  \"chaos_recovered\": %d\n"
                 "}\n",
                 config.structures, config.vertices, config.treewidth,
                 static_cast<unsigned long long>(config.seed), cold.requests,
                 cold.pool.hits, cold.pool.misses,
                 1000 * cold.pool.hits / lookups, cold.peak_table_bytes,
                 cold.charged_bytes, warm.warm_loads, warm.encode_builds,
                 warm.td_builds, warm.normalize_builds, churn.evictions,
                 rejections, contended.requests, contended.dispatched,
                 contended.barriers, contended.identical ? 1 : 0,
                 shed.dispatched, shed.rejections, chaos.faults_injected,
                 chaos.deadline_sheds, chaos.quarantines, chaos.errors,
                 chaos.recovered ? 1 : 0);
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
      config.structures = 4;
      config.vertices = 60;
      config.rounds = 3;
      config.budget = 8 * 1024 * 1024;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      config.json_path = argv[++i];
    }
  }
  treedl::RunServerBench(config);
  return 0;
}
