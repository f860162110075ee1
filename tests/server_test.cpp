// treedl::server — protocol parsing, end-to-end request handling, tenant
// errors, admission via the protocol, and a garbage-line fuzz pass that must
// never crash the driver.
#include "server/server.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "server/frontend.hpp"
#include "server/protocol.hpp"
#include "test_util.hpp"

namespace treedl::server {
namespace {

constexpr const char* kTriangleLoad =
    "LOAD g SIG e/2 FACTS e(a, b). e(b, c). e(c, a).";

/// Runs one line through a stats-free server and returns the raw reply text.
std::string Reply(Server* server, std::string_view line) {
  std::string out;
  server->HandleLine(line, &out);
  return out;
}

ServerOptions QuietOptions() {
  ServerOptions options;
  options.echo_stats = false;
  return options;
}

/// The facts of an n x n grid graph (n <= 10), vertices named v<row><col>.
std::string GridFacts(int n) {
  std::string facts;
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      if (c + 1 < n) {
        facts += "e(v" + std::to_string(r) + std::to_string(c) + ", v" +
                 std::to_string(r) + std::to_string(c + 1) + "). ";
      }
      if (r + 1 < n) {
        facts += "e(v" + std::to_string(r) + std::to_string(c) + ", v" +
                 std::to_string(r + 1) + std::to_string(c) + "). ";
      }
    }
  }
  return facts;
}

TEST(ProtocolTest, BlankAndCommentLinesParseToNothing) {
  for (const char* line : {"", "   ", "% a comment", "  % indented comment"}) {
    auto request = ParseRequest(line);
    ASSERT_TRUE(request.ok()) << line;
    EXPECT_FALSE(request.value().has_value()) << line;
  }
}

TEST(ProtocolTest, ParsesTypedRequests) {
  auto load = ParseRequest("LOAD t SIG e/2 p/1 FACTS e(a, b). p(a).");
  ASSERT_TRUE(load.ok());
  const auto* load_request = std::get_if<LoadRequest>(&load.value().value());
  ASSERT_NE(load_request, nullptr);
  EXPECT_EQ(load_request->tenant, "t");
  ASSERT_EQ(load_request->predicates.size(), 2u);
  EXPECT_EQ(load_request->predicates[0], (std::pair<std::string, int>{"e", 2}));
  EXPECT_EQ(load_request->predicates[1], (std::pair<std::string, int>{"p", 1}));
  EXPECT_EQ(load_request->facts, "e(a, b). p(a).");

  auto solve = ParseRequest("SOLVE t #3COL");
  ASSERT_TRUE(solve.ok());
  const auto* solve_request = std::get_if<SolveRequest>(&solve.value().value());
  ASSERT_NE(solve_request, nullptr);
  EXPECT_EQ(solve_request->problem, Engine::Problem::kThreeColorCount);

  auto stats = ParseRequest("STATS");
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(std::get<StatsRequest>(stats.value().value()).tenant);
  auto tenant_stats = ParseRequest("STATS t");
  ASSERT_TRUE(tenant_stats.ok());
  EXPECT_EQ(std::get<StatsRequest>(tenant_stats.value().value()).tenant, "t");
}

TEST(ProtocolTest, ParseFailuresMapToTypedErrorCodes) {
  auto unknown = ParseRequest("FROB t");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(ErrorCodeFor(unknown.status()), ErrorCode::kUnknownCommand);

  auto bad_problem = ParseRequest("SOLVE t XYZ");
  ASSERT_FALSE(bad_problem.ok());
  EXPECT_EQ(ErrorCodeFor(bad_problem.status()), ErrorCode::kBadArgument);

  for (const char* line : {"LOAD t", "LOAD t SIG", "LOAD t SIG e", "QUERY t",
                           "SOLVE t", "QUIT extra"}) {
    EXPECT_FALSE(ParseRequest(line).ok()) << line;
  }
}

TEST(ProtocolTest, ReplyRenderersAreSingleLine) {
  EXPECT_EQ(OkReply("LOAD", "tenant=t"), "OK LOAD tenant=t");
  EXPECT_EQ(DataReply("e(a, b)."), "DATA e(a, b).");
  std::string err = ErrorReply(ErrorCode::kParse, "multi\nline\rmessage");
  EXPECT_EQ(err.find('\n'), std::string::npos);
  EXPECT_EQ(err.find('\r'), std::string::npos);
  EXPECT_EQ(err.rfind("ERR E_PARSE ", 0), 0u);
}

TEST(ServerTest, TriangleEndToEnd) {
  Server server(QuietOptions());
  std::string load = Reply(&server, kTriangleLoad);
  EXPECT_NE(load.find("OK LOAD tenant=g"), std::string::npos) << load;
  EXPECT_NE(load.find("elements=3 facts=3 pool=cold"), std::string::npos)
      << load;

  EXPECT_NE(Reply(&server, "SOLVE g 3COL").find("feasible=1"),
            std::string::npos);
  EXPECT_NE(Reply(&server, "SOLVE g #3COL").find("count=6"),
            std::string::npos);
  EXPECT_NE(Reply(&server, "SOLVE g VC").find("optimum=2"), std::string::npos);
  std::string all = Reply(&server, "SOLVEALL g");
  EXPECT_NE(all.find("three_colorable=1"), std::string::npos) << all;
  EXPECT_NE(all.find("vc=2"), std::string::npos) << all;
  EXPECT_NE(all.find("pool=hit"), std::string::npos) << all;

  // MSO over a width-0 tenant takes the direct evaluation route (the Thm 4.5
  // compile needs width >= 1 and saturates on binary-atom formulas).
  ASSERT_NE(Reply(&server, "LOAD m SIG p/1 FACTS p(a). p(b).").find("OK LOAD"),
            std::string::npos);
  std::string mso = Reply(&server, "MSO m ex1 x: p(x)");
  EXPECT_NE(mso.find("holds=1"), std::string::npos) << mso;
  std::string refuted = Reply(&server, "MSO m all1 x: ~p(x)");
  EXPECT_NE(refuted.find("holds=0"), std::string::npos) << refuted;

  std::string query =
      Reply(&server, "QUERY g reach(X, Y) :- e(X, Y). "
                     "reach(X, Y) :- e(X, Z), reach(Z, Y).");
  EXPECT_NE(query.find("OK QUERY tenant=g data=9 derived=9"),
            std::string::npos)
      << query;
  // 9 DATA rows: reach is the full 3x3 relation on a directed triangle.
  size_t data_rows = 0;
  for (size_t pos = 0; (pos = query.find("DATA reach(", pos)) !=
                       std::string::npos;
       ++pos) {
    ++data_rows;
  }
  EXPECT_EQ(data_rows, 9u);

  EXPECT_EQ(server.stats().replies_error, 0u);
}

TEST(ServerTest, SecondTenantWithEqualStructureSharesTheSession) {
  Server server(QuietOptions());
  EXPECT_NE(Reply(&server, kTriangleLoad).find("pool=cold"),
            std::string::npos);
  std::string second = Reply(
      &server, "LOAD h SIG e/2 FACTS e(a, b). e(b, c). e(c, a).");
  EXPECT_NE(second.find("pool=hit"), std::string::npos) << second;
  EXPECT_EQ(server.pool().counters().hits, 1u);
  EXPECT_EQ(server.pool().NumResident(), 1u);
}

TEST(ServerTest, TenantAndArgumentErrors) {
  Server server(QuietOptions());
  EXPECT_EQ(Reply(&server, "SOLVE nope VC").rfind("ERR E_TENANT ", 0), 0u);
  EXPECT_EQ(Reply(&server, "FROB x").rfind("ERR E_CMD ", 0), 0u);
  EXPECT_EQ(Reply(&server, "LOAD t SIG e/2 FACTS e(a").rfind("ERR E_PARSE", 0),
            0u);
  EXPECT_EQ(Reply(&server, "SAVE t").rfind("ERR E_TENANT ", 0), 0u);

  ASSERT_NE(Reply(&server, kTriangleLoad).find("OK LOAD"), std::string::npos);
  EXPECT_EQ(Reply(&server, "MSO g not a formula").rfind("ERR E_PARSE", 0), 0u);
  // SAVE without a session directory is an IO error, not a crash.
  EXPECT_EQ(Reply(&server, "SAVE g").rfind("ERR ", 0), 0u);
  EXPECT_NE(Reply(&server, "CLOSE g").find("OK CLOSE"), std::string::npos);
  EXPECT_EQ(Reply(&server, "SOLVE g VC").rfind("ERR E_TENANT ", 0), 0u);
  EXPECT_GT(server.stats().replies_error, 0u);
}

TEST(ServerTest, TinyBudgetRejectsLoadViaProtocol) {
  ServerOptions options = QuietOptions();
  options.table_memory_budget = 32;  // below the triangle's estimate
  Server server(options);
  std::string reply = Reply(&server, kTriangleLoad);
  EXPECT_EQ(reply.rfind("ERR E_ADMISSION ", 0), 0u) << reply;
  EXPECT_EQ(server.pool().counters().rejections, 1u);
}

TEST(ServerTest, ServeCountsRequestsAndStopsAtQuit) {
  Server server(QuietOptions());
  std::istringstream in(
      "% transcript\n\n" + std::string(kTriangleLoad) +
      "\nSOLVE g VC\nQUIT\nSOLVE g VC\n");  // after QUIT: never handled
  std::ostringstream out;
  EXPECT_EQ(server.Serve(in, out), 3u);  // LOAD, SOLVE, QUIT
  EXPECT_NE(out.str().find("OK QUIT"), std::string::npos);
  EXPECT_EQ(server.stats().requests, 3u);
}

TEST(ServerTest, GarbageLinesNeverCrashAndAlwaysReplyOkOrErr) {
  Server server(QuietOptions());
  ASSERT_NE(Reply(&server, kTriangleLoad).find("OK LOAD"), std::string::npos);

  // Structured near-misses first: prefixes, truncations, wrong arities.
  const std::vector<std::string> corpus = {
      "LOAD", "LOAD g", "LOAD g SIG", "LOAD g SIG e/", "LOAD g SIG e/2x",
      "LOAD g SIG /2", "LOAD g SIG e/99999", "LOAD ~!bad SIG e/2",
      "ASSERT g", "ASSERT nope e(a, b).", "QUERY g :-", "QUERY g p(X)",
      "SOLVE g", "SOLVE g vc", "SOLVE g VC extra", "SOLVEALL", "MSO g",
      "MSO g ex9 x: e(x, x)", "SAVE", "OPEN g", "STATS g extra", "CLOSE",
      "QUIT now", "load g SIG e/2", "  LOAD  x  SIG  e/2  ", "DATA x",
      "OK LOAD", "ERR E_PARSE x", std::string(4096, 'A'),
      std::string("LOAD g SIG e/2 FACTS ") + std::string(512, '('),
  };
  for (const std::string& line : corpus) {
    std::string out;
    EXPECT_TRUE(server.HandleLine(line, &out)) << line;
    if (!out.empty()) {
      EXPECT_TRUE(out.rfind("OK ", 0) == 0 || out.rfind("ERR ", 0) == 0)
          << line << " -> " << out;
    }
  }

  // Then raw fuzz: deterministic random byte soup (no '\n', no leading '%').
  Rng rng(TestSeed());
  for (int i = 0; i < 300; ++i) {
    std::string line;
    size_t length = rng.UniformIndex(64);
    for (size_t j = 0; j < length; ++j) {
      line.push_back(static_cast<char>(rng.UniformInt(1, 126)));
    }
    std::string out;
    bool keep_going = server.HandleLine(line, &out);
    if (!keep_going) continue;  // a lucky "QUIT" draw is still a valid reply
    if (!out.empty()) {
      EXPECT_TRUE(out.rfind("OK ", 0) == 0 || out.rfind("ERR ", 0) == 0)
          << "line " << i << " -> " << out;
    }
  }

  // The driver is still coherent after the fuzz pass.
  EXPECT_NE(Reply(&server, "SOLVE g VC").find("optimum=2"), std::string::npos);
  EXPECT_NE(Reply(&server, "STATS").find("OK STATS"), std::string::npos);
}

TEST(ProtocolTest, ParsesReoptAndRejectsBadUnits) {
  auto reopt = ParseRequest("REOPT g 64");
  ASSERT_TRUE(reopt.ok()) << reopt.status();
  const auto* request = std::get_if<ReoptRequest>(&reopt.value().value());
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->tenant, "g");
  EXPECT_EQ(request->units, 64u);

  for (const char* line : {"REOPT", "REOPT g", "REOPT g ten", "REOPT g -5",
                           "REOPT g 64 extra", "REOPT g 99999999999999999999",
                           "REOPT g 64.5"}) {
    auto bad = ParseRequest(line);
    EXPECT_FALSE(bad.ok()) << line;
  }
}

TEST(ServerTest, ReoptImprovesSessionAndPreservesAnswers) {
  Server server(QuietOptions());
  // A 4x4 grid tenant: enough structure for the local search to have room.
  std::string facts = GridFacts(4);
  ASSERT_NE(Reply(&server, "LOAD grid SIG e/2 FACTS " + facts).find("OK LOAD"),
            std::string::npos);
  std::string before = Reply(&server, "SOLVEALL grid");

  EXPECT_EQ(Reply(&server, "REOPT nope 8").rfind("ERR E_TENANT ", 0), 0u);
  std::string reopt = Reply(&server, "REOPT grid 32");
  EXPECT_EQ(reopt.rfind("OK REOPT tenant=grid", 0), 0u) << reopt;
  EXPECT_NE(reopt.find("width_before="), std::string::npos) << reopt;
  EXPECT_NE(reopt.find("rounds="), std::string::npos) << reopt;

  // Budget exhaustion is the normal stop, never an error, and the swap (if
  // any) must not change a single answer.
  std::string after = Reply(&server, "SOLVEALL grid");
  EXPECT_EQ(before, after);

  // The whole exchange is deterministic: a fresh server reproduces the REOPT
  // reply byte for byte.
  Server replay(QuietOptions());
  ASSERT_NE(Reply(&replay, "LOAD grid SIG e/2 FACTS " + facts).find("OK LOAD"),
            std::string::npos);
  ASSERT_NE(Reply(&replay, "SOLVEALL grid").find("OK SOLVEALL"),
            std::string::npos);
  EXPECT_EQ(Reply(&replay, "REOPT nope 8"), Reply(&server, "REOPT nope 8"));
  EXPECT_EQ(Reply(&replay, "REOPT grid 32"), reopt);
}

TEST(ServerTest, ReoptZeroUnitsIsANoOp) {
  Server server(QuietOptions());
  ASSERT_NE(Reply(&server, kTriangleLoad).find("OK LOAD"), std::string::npos);
  std::string reopt = Reply(&server, "REOPT g 0");
  EXPECT_EQ(reopt.rfind("OK REOPT tenant=g", 0), 0u) << reopt;
  EXPECT_NE(reopt.find("rounds=0"), std::string::npos) << reopt;
  EXPECT_NE(Reply(&server, "SOLVE g VC").find("optimum=2"), std::string::npos);
}

// Requests are the server's unit of parallelism: pooled engines run each
// request sequentially, so a request never spreads its walks across threads
// the front-end's workers already use.
TEST(ServerTest, PooledEnginesRunSequentially) {
  Server server(QuietOptions());
  FrontendOptions frontend_options;
  frontend_options.num_threads = 4;
  Frontend frontend(&server, frontend_options);
  std::istringstream in("LOAD grid SIG e/2 FACTS " + GridFacts(6) +
                        "\nSOLVEALL grid\nSOLVEALL grid\nQUIT\n");
  std::ostringstream out;
  frontend.Serve(in, out);
  EXPECT_EQ(server.stats().replies_error, 0u) << out.str();
  EXPECT_NE(out.str().find("OK SOLVEALL tenant=grid"), std::string::npos)
      << out.str();

  std::vector<uint64_t> resident = server.pool().LruFingerprints();
  ASSERT_EQ(resident.size(), 1u);
  std::shared_ptr<Engine> engine = server.pool().Peek(resident[0]);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->options().num_threads, 1u);
  RunStats session = engine->CumulativeStats();
  EXPECT_EQ(session.dp_traversals, 10u);  // two SOLVEALLs, five walks each
  EXPECT_EQ(session.dp_shards, 0u);
}

}  // namespace
}  // namespace treedl::server
