// The line-oriented text protocol of treedl::server.
//
// One request per line, one-or-more reply lines per request; blank lines and
// '%' comments are ignored. The same grammar serves interactive stdin, replay
// scripts (examples/treedl_server.cpp --script) and the multi-tenant bench —
// no sockets, so every transcript is deterministic and diffable.
//
// Requests (docs/SERVER_PROTOCOL.md has the full grammar):
//
//   LOAD <tenant> SIG <name/arity>... [FACTS <facts...>]   commit a structure
//   ASSERT <tenant> <facts...>                             append facts
//   QUERY <tenant> <datalog program>                       evaluate datalog
//   SOLVE <tenant> 3COL|#3COL|VC|IS|DS                     one graph problem
//   SOLVEALL <tenant>                                      all five problems
//   MSO <tenant> <sentence>                                MSO evaluation
//   SAVE <tenant>                                          persist session
//   OPEN <tenant>                                          warm-start session
//   STATS [<tenant>]                                       counters
//   DEADLINE <units>|OFF                                   arm work budget
//   REOPT <tenant> <units>                                 improve the TD
//   CLOSE <tenant>                                         drop the tenant
//   QUIT                                                   stop the driver
//
// Replies:
//
//   OK <COMMAND> key=value ...      success, one line
//   DATA <payload>                  extra result rows (count framed by the
//                                   preceding OK line's data=N)
//   ERR <E_CODE> <message>          failure, one line
//
// This header is pure parsing and rendering: requests become typed objects,
// errors become typed codes. Execution lives in server/server.{hpp,cpp}.
#ifndef TREEDL_SERVER_PROTOCOL_HPP_
#define TREEDL_SERVER_PROTOCOL_HPP_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.hpp"
#include "engine/engine.hpp"

namespace treedl::server {

/// Typed error codes of ERR replies. The wire names (E_PARSE, ...) are part
/// of the protocol; see ErrorCodeName.
enum class ErrorCode {
  kParse,           // E_PARSE — malformed request or payload
  kUnknownCommand,  // E_CMD — first word is not a command
  kNoTenant,        // E_TENANT — tenant has no committed structure
  kBadArgument,     // E_ARG — well-formed line, invalid arguments
  kAdmission,       // E_ADMISSION — session pool/budget rejected the request
  kEval,            // E_EVAL — the engine failed to answer
  kIo,              // E_IO — session file or script IO failed
  kDeadline,        // E_DEADLINE — the request's work-unit deadline tripped
};

const char* ErrorCodeName(ErrorCode code);

struct LoadRequest {
  std::string tenant;
  /// Predicate signature, SIG order preserved: {name, arity} pairs.
  std::vector<std::pair<std::string, int>> predicates;
  /// Facts in the structure_io text format; may be empty.
  std::string facts;
};

struct AssertRequest {
  std::string tenant;
  std::string facts;
};

struct QueryRequest {
  std::string tenant;
  std::string program;  // datalog text, one line
};

struct SolveRequest {
  std::string tenant;
  Engine::Problem problem;
};

struct SolveAllRequest {
  std::string tenant;
};

struct MsoRequest {
  std::string tenant;
  std::string formula;
};

struct SaveRequest {
  std::string tenant;
};

struct OpenRequest {
  std::string tenant;
};

struct StatsRequest {
  std::optional<std::string> tenant;  // absent = server-wide counters
};

/// DEADLINE <units> arms a per-request work-unit budget for every subsequent
/// compute request on this connection; DEADLINE OFF disarms it. Units are
/// deterministic logical work (DP nodes processed, fixpoint rule plans), so
/// "DEADLINE 100" sheds the same requests — with byte-identical E_DEADLINE
/// replies — at every thread count.
struct DeadlineRequest {
  std::optional<uint64_t> units;  // nullopt = OFF
};

/// REOPT <tenant> <units> runs the anytime decomposition-improvement hook
/// (Engine::ImproveDecomposition) for up to `units` local-search rounds —
/// one deterministic work unit per round, so the search stops at the same
/// round at every thread count. On strict width-or-cost improvement the
/// session swaps its decomposition and invalidates the derived artifacts;
/// subsequent queries lazily re-normalize and re-shard against the better
/// tree. Budget exhaustion is the normal stop, never an error.
struct ReoptRequest {
  std::string tenant;
  uint64_t units = 0;
};

struct CloseRequest {
  std::string tenant;
};

struct QuitRequest {};

using Request =
    std::variant<LoadRequest, AssertRequest, QueryRequest, SolveRequest,
                 SolveAllRequest, MsoRequest, SaveRequest, OpenRequest,
                 StatsRequest, DeadlineRequest, ReoptRequest, CloseRequest,
                 QuitRequest>;

/// The command keyword of a parsed request ("LOAD", "QUERY", ...).
const char* RequestName(const Request& request);

/// Parses one raw line. Blank lines and lines whose first non-space byte is
/// '%' yield an engaged-status std::nullopt: nothing to execute, nothing to
/// reply. Parse failures return Status (kParseError for malformed syntax,
/// kNotFound for an unknown command, kInvalidArgument for bad arguments);
/// the server maps those onto ErrorCode via ErrorCodeFor.
StatusOr<std::optional<Request>> ParseRequest(std::string_view line);

/// The ERR code a failed ParseRequest / engine Status maps to.
ErrorCode ErrorCodeFor(const Status& status);

/// Wire name of a Solve problem ("3COL", "#3COL", "VC", "IS", "DS").
const char* ProblemName(Engine::Problem problem);
StatusOr<Engine::Problem> ProblemFromName(std::string_view name);

/// Reply renderers — every server output line goes through one of these
/// (each returns the line WITHOUT a trailing newline).
std::string OkReply(std::string_view command, std::string_view details);
std::string DataReply(std::string_view payload);
std::string ErrorReply(ErrorCode code, std::string_view message);

}  // namespace treedl::server

#endif  // TREEDL_SERVER_PROTOCOL_HPP_
