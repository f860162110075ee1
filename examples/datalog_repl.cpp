// Datalog runner: evaluate a program against a fact base and print the
// derived facts.
//
// Usage: datalog_repl [program.dl facts.txt]
// Without arguments, runs a built-in transitive-closure demo.
//
// A thin client of the serving layer: the program and facts become LOAD +
// QUERY lines of the server protocol (server/protocol.hpp), executed by an
// in-process treedl::server::Server — what this prints is exactly what a
// treedl_server transcript would contain, plus a human-readable program
// summary.
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/status.hpp"
#include "common/string_util.hpp"
#include "datalog/analysis.hpp"
#include "datalog/parser.hpp"
#include "server/server.hpp"

namespace {

constexpr const char* kDemoProgram = R"(
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
cyclic(X) :- path(X, X).
)";

constexpr const char* kDemoFacts = R"(
edge(a, b). edge(b, c). edge(c, d). edge(d, b).
)";

treedl::StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return treedl::Status::NotFound("cannot read file '" + path + "'");
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Protocol requests are one line each: strip '%' comments (which run to end
// of line and would swallow the rest of a flattened payload), then join the
// remaining lines with spaces.
std::string FlattenPayload(const std::string& text) {
  std::string flat;
  for (const std::string& line : treedl::Split(text, '\n')) {
    std::string_view piece(line);
    size_t comment = piece.find('%');
    if (comment != std::string_view::npos) piece = piece.substr(0, comment);
    piece = treedl::Trim(piece);
    if (piece.empty()) continue;
    if (!flat.empty()) flat += ' ';
    flat += piece;
  }
  return flat;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace treedl;
  using namespace treedl::datalog;

  std::string program_text = kDemoProgram;
  std::string facts_text = kDemoFacts;
  if (argc == 2 || argc > 3) {
    std::cerr << "usage: datalog_repl [program.dl facts.txt]\n";
    return 1;
  }
  if (argc == 3) {
    auto program_file = ReadFile(argv[1]);
    if (!program_file.ok()) {
      std::cerr << "datalog_repl: " << program_file.status() << "\n";
      return 1;
    }
    auto facts_file = ReadFile(argv[2]);
    if (!facts_file.ok()) {
      std::cerr << "datalog_repl: " << facts_file.status() << "\n";
      return 1;
    }
    program_text = std::move(program_file).value();
    facts_text = std::move(facts_file).value();
  }

  // Client-side parse: print the program summary and derive the EDB
  // signature (extensional predicates) for the LOAD request.
  auto program = ParseProgram(program_text);
  if (!program.ok()) {
    std::cerr << "program parse error: " << program.status() << "\n";
    return 1;
  }
  auto info = AnalyzeProgram(*program);
  if (!info.ok()) {
    std::cerr << "program analysis error: " << info.status() << "\n";
    return 1;
  }
  std::string load_line = "LOAD repl SIG";
  size_t edb_predicates = 0;
  for (PredicateId p = 0; p < program->signature().size(); ++p) {
    if (info->intensional[static_cast<size_t>(p)]) continue;
    load_line += " " + program->signature().name(p) + "/" +
                 std::to_string(program->signature().arity(p));
    ++edb_predicates;
  }
  if (edb_predicates == 0) {
    std::cerr << "datalog_repl: program has no extensional predicates\n";
    return 1;
  }
  std::string facts_flat = FlattenPayload(facts_text);
  if (!facts_flat.empty()) load_line += " FACTS " + facts_flat;

  std::cout << "Program (" << program->NumRules() << " rules, "
            << (info->is_monadic ? "monadic" : "non-monadic") << ", "
            << (CheckQuasiGuarded(*program).ok() ? "quasi-guarded"
                                                 : "not quasi-guarded")
            << "):\n"
            << program->ToString() << "\n";

  server::Server session(server::ServerOptions{});
  std::istringstream requests(load_line + "\nQUERY repl " +
                              FlattenPayload(program_text) + "\nQUIT\n");
  std::cout << "Transcript:\n";
  session.Serve(requests, std::cout);
  return session.stats().replies_error == 0 ? 0 : 1;
}
