// treedl_server: the protocol driver over treedl::server::Server.
//
// Reads one request per line from stdin (interactive use) or from a
// replayable script file, writes replies to stdout. No sockets: transcripts
// are deterministic, so the same binary serves interactive exploration, the
// CI smoke test (scripts/server_smoke.txt) and ad-hoc benchmarking.
//
// With --threads N > 1 requests are driven through the concurrent front-end
// (server/frontend.hpp): different sessions execute in parallel, each
// session stays strictly ordered, and replies are re-sequenced into input
// order — the transcript is byte-for-byte identical at every thread count.
//
//   ./treedl_server                          # interactive, from stdin
//   ./treedl_server --script requests.txt    # replay a request script
//   ./treedl_server --script requests.txt --threads 8   # same bytes, faster
//
// Requests are the unit of parallelism: every pooled engine runs its
// request sequentially, and --threads sets how many requests run at once.
//
// Flags:
//   --script FILE        read requests from FILE instead of stdin
//   --max-sessions N     session-pool capacity (default 8)
//   --budget BYTES       shared table_memory_budget in bytes (default 0 = off)
//   --session-dir DIR    enable SAVE/OPEN + warm start from DIR
//   --threads N          front-end worker threads (default 1 = the
//                        single-threaded driver; 0 = hardware concurrency;
//                        at most 1024)
//   --queue-capacity N   per-session front-end queue bound (default 64)
//   --no-stats           omit per-request RunStats echoes (byte-stable replies)
//   --faults SCHEDULE    deterministic fault schedule ("site[@N],..."), e.g.
//                        --faults session_io.write@0,session_pool.build
//
// Every numeric flag takes a plain unsigned decimal ("4", not "-1", "4x" or
// "+4"); anything else prints the usage line and exits 2.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "common/fault_injection.hpp"
#include "server/frontend.hpp"
#include "server/server.hpp"

namespace {

constexpr size_t kMaxThreads = 1024;

/// `text` as a size_t when it is a non-empty run of decimal digits whose
/// value fits and is at most `max`; nullopt otherwise. from_chars takes no
/// sign, no leading space and, for an unsigned type, no minus.
std::optional<size_t> ParseCount(const char* text, size_t max = SIZE_MAX) {
  const char* end = text + std::strlen(text);
  size_t value = 0;
  auto [rest, error] = std::from_chars(text, end, value);
  if (error != std::errc() || rest != end || value > max) return std::nullopt;
  return value;
}

int Usage() {
  std::fprintf(stderr,
               "usage: treedl_server [--script FILE] [--max-sessions N] "
               "[--budget BYTES] [--session-dir DIR] [--threads N] "
               "[--queue-capacity N] [--no-stats] [--faults SCHEDULE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  treedl::server::ServerOptions options;
  treedl::server::FrontendOptions frontend_options;
  const char* script_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    // The numeric flags: each names its destination and its largest value.
    size_t* count = nullptr;
    size_t max = SIZE_MAX;
    if (std::strcmp(flag, "--max-sessions") == 0) {
      count = &options.max_sessions;
    } else if (std::strcmp(flag, "--budget") == 0) {
      count = &options.table_memory_budget;
    } else if (std::strcmp(flag, "--threads") == 0) {
      count = &frontend_options.num_threads;
      max = kMaxThreads;
    } else if (std::strcmp(flag, "--queue-capacity") == 0) {
      count = &frontend_options.queue_capacity;
    }
    if (count != nullptr) {
      std::optional<size_t> parsed =
          value != nullptr ? ParseCount(value, max) : std::nullopt;
      if (!parsed.has_value()) return Usage();
      *count = *parsed;
      ++i;
    } else if (std::strcmp(flag, "--script") == 0 && value != nullptr) {
      script_path = argv[++i];
    } else if (std::strcmp(flag, "--session-dir") == 0 && value != nullptr) {
      options.session_dir = argv[++i];
    } else if (std::strcmp(flag, "--no-stats") == 0) {
      options.echo_stats = false;
    } else if (std::strcmp(flag, "--faults") == 0 && value != nullptr) {
      treedl::Status installed =
          treedl::FaultInjector::Global().SetSchedule(argv[++i]);
      if (!installed.ok()) {
        std::fprintf(stderr, "treedl_server: bad --faults schedule: %s\n",
                     std::string(installed.message()).c_str());
        return 2;
      }
    } else {
      return Usage();
    }
  }

  treedl::server::Server server(options);
  std::ifstream script;
  std::istream* in = &std::cin;
  if (script_path != nullptr) {
    script.open(script_path);
    if (!script) {
      std::fprintf(stderr, "treedl_server: cannot open script '%s'\n",
                   script_path);
      return 2;
    }
    in = &script;
  }
  if (frontend_options.num_threads != 1) {
    treedl::server::Frontend frontend(&server, frontend_options);
    frontend.Serve(*in, std::cout);
  } else {
    server.Serve(*in, std::cout);
  }
  return 0;
}
