// Entry point of the treedl wall-clock benchmark.
//
//   perfbench --workload cold_session|warm_session|server_mix --seed N
//             --seconds S --trace 0|1 [--spans FILE]
//
// Prints the environment, one report line per metric, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones of the traced mode (see README.md).
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "perfbench.hpp"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Summary Summarize(std::vector<double> values) {
  Summary out;
  out.samples = values.size();
  if (values.empty()) return out;
  out.median = Median(values);
  std::sort(values.begin(), values.end());
  // The highest order statistic with ten samples above it; with fewer than
  // eleven samples there is no such tail and the maximum stands in.
  size_t n = values.size();
  size_t index = n > 10 ? n - 11 : n - 1;
  out.tail = values[index];
  out.tail_percentile = 100.0 * static_cast<double>(index + 1) /
                        static_cast<double>(n);
  return out;
}

void Outcome::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Outcome::Fail(const std::string& why) {
  ++failed;
  if (failed <= 5) report.push_back("FAILED: " + why);
}

void Outcome::SetLatency(const std::string& prefix, const std::string& alias,
                         const std::vector<double>& millis) {
  Summary s = Summarize(millis);
  Set(prefix + "_ms", s.median, "ms");
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s_ms = %s_ms: median %.3f ms over %zu samples; %s_tail_ms: "
                "p%.1f = %.3f ms (%zu samples beyond)",
                alias.c_str(), prefix.c_str(), s.median, s.samples,
                alias.c_str(), s.tail_percentile, s.tail,
                s.samples > 10 ? size_t{10} : size_t{0});
  Note(line);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // First-query chain of a graph session (cold_session per operation;
      // warm_session and server_mix on their graphs during set-up).
      {"structure.from_graph.3col_ms", "ms"},
      {"graph.gaifman.3col_ms", "ms"},
      {"td.decompose.3col_ms", "ms"},
      {"td.width.3col", "count"},
      {"td.validate.3col_ms", "ms"},
      {"td.normalize.3col_ms", "ms"},
      {"td.shard.3col_ms", "ms"},
      {"core.dp.3col_ms", "ms"},
      {"core.dp_states.3col", "count"},
      {"engine.overhead.3col_ms", "ms"},
      // First-query chain of a schema session.
      {"schema.encode.primes_ms", "ms"},
      {"td.decompose.primes_ms", "ms"},
      {"td.width.primes", "count"},
      {"td.validate.primes_ms", "ms"},
      {"core.primes_enum_ms", "ms"},
      {"engine.overhead.primes_ms", "ms"},
      // Warm graph session.
      {"core.solve.3col_ms", "ms"},
      {"core.solve.count3col_ms", "ms"},
      {"core.solve.vc_ms", "ms"},
      {"core.solve.is_ms", "ms"},
      {"core.solve.ds_ms", "ms"},
      {"engine.fusion_ratio", "ratio"},
      {"core.solveall_1thread_ms", "ms"},
      {"core.parallel_speedup", "ratio"},
      {"core.dp_shards", "count"},
      {"core.shard_sum_ms", "ms"},
      {"core.slowest_shard_ms", "ms"},
      {"core.shard_inflation", "ratio"},
      {"core.dp_states.solveall", "count"},
      {"core.dp_peak_table_bytes", "bytes"},
      {"engine.warm_builds", "count"},
      {"engine.cache_hit_ratio", "ratio"},
      // Warm schema session.
      {"td.normalize.isprime_ms", "ms"},
      {"core.isprime_ms", "ms"},
      {"engine.isprime_normalize_builds", "count"},
      // Serving stack.
      {"server.load_ms", "ms"},
      {"server.assert_ms", "ms"},
      {"server.solveall_ms", "ms"},
      {"server.solve_ms", "ms"},
      {"server.query_ms", "ms"},
      {"frontend.wait_ms", "ms"},
      {"frontend.barriers", "count"},
      {"frontend.dispatched_compute", "count"},
      {"frontend.barrier_share", "ratio"},
      {"session_pool.hits", "count"},
      {"session_pool.misses", "count"},
      {"session_pool.evictions", "count"},
      {"session_pool.build_waits", "count"},
      {"session_pool.rejections", "count"},
      {"session_pool.hit_ratio", "ratio"},
      {"server.errors", "count"},
      {"datalog.query_ms", "ms"},
      {"datalog.fixpoint_rounds", "count"},
      {"datalog.executor_dispatches", "count"},
      {"datalog.derived_facts", "count"},
      // Traced minus untraced, per end-to-end latency.
      {"trace.overhead.solve_ms", "ms"},
      {"trace.overhead.query_ms", "ms"},
  };
  return kMetrics;
}

size_t Nproc() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

Tracer::Scope::Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = std::move(name);
  span.start_ms = tracer_->Now();
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.op = tracer_->op_;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<size_t>(index_)].end_ms = tracer_->Now();
  tracer_->open_.pop_back();
}

void Tracer::Record(const std::string& name, Clock::time_point start,
                    Clock::time_point end) {
  BeginOp();
  Span span;
  span.name = name;
  span.start_ms = MillisBetween(origin_, start);
  span.end_ms = MillisBetween(origin_, end);
  span.op = op_;
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end_ms - span.start_ms);
  }
  return out;
}

std::vector<double> Tracer::SelfTimes(const std::string& name) const {
  std::map<int, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      self[static_cast<int>(i)] = spans_[i].end_ms - spans_[i].start_ms;
    }
  }
  for (const Span& span : spans_) {
    auto it = self.find(span.parent);
    if (it != self.end()) it->second -= span.end_ms - span.start_ms;
  }
  std::vector<double> out;
  for (const auto& [index, millis] : self) out.push_back(millis);
  return out;
}

std::string Tracer::SelfTimeReport(
    const std::string& title, const std::vector<std::string>& names) const {
  std::string line = title + " self time, median ms:";
  std::string largest;
  double largest_ms = -1;
  for (const std::string& name : names) {
    double ms = Median(SelfTimes(name));
    char item[160];
    std::snprintf(item, sizeof(item), " %s %.3f", name.c_str(), ms);
    line += item;
    if (ms > largest_ms) {
      largest_ms = ms;
      largest = name;
    }
  }
  return line + "; largest: " + largest;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, "
                  "\"end_ms\": %.6f, \"parent\": %d, \"op\": %llu}%s\n",
                  i, s.name.c_str(), s.start_ms, s.end_ms, s.parent,
                  static_cast<unsigned long long>(s.op),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

namespace {

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"solve_ms", "ms"},
      {"query_ms", "ms"},
      {"ops_per_s", "1/s"},
      {"setup_s", "s"},
  };
  return kMetrics;
}

void PrintEnvironment() {
  struct utsname uts;
  std::string kernel = uname(&uts) == 0
                           ? std::string(uts.sysname) + " " + uts.release
                           : "unknown";
  std::printf("env: build_type=%s compiler=\"%s\" nproc=%u kernel=\"%s\"\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              std::thread::hardware_concurrency(), kernel.c_str());
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::printf("env: WARNING build type %s is not Release; timings are not "
                "comparable with Release numbers\n",
                PERFBENCH_BUILD_TYPE);
  }
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cold_session|warm_session|server_mix --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0) return Usage("--seconds must be positive");

  Outcome (*run)(const Options&, Tracer*) = nullptr;
  if (options.workload == "cold_session") run = RunColdSession;
  if (options.workload == "warm_session") run = RunWarmSession;
  if (options.workload == "server_mix") run = RunServerMix;
  if (run == nullptr) return Usage("unknown --workload");

  PrintEnvironment();
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  Tracer tracer;
  Outcome outcome;
  try {
    outcome = run(options, options.trace ? &tracer : nullptr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (options.trace && !options.spans_path.empty()) {
    if (tracer.Write(options.spans_path)) {
      std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                  options.spans_path.c_str());
    } else {
      outcome.Fail("cannot write spans to " + options.spans_path);
    }
  }
  for (const std::string& line : outcome.report) {
    std::printf("  %s\n", line.c_str());
  }

  const auto& wanted = options.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string json = "{";
  for (const auto& [name, unit] : wanted) {
    const Outcome::Metric* found = nullptr;
    for (const Outcome::Metric& metric : outcome.metrics) {
      if (metric.name == name) found = &metric;
    }
    // A layer the workload never reaches did no work: 0. An end-to-end
    // metric must always be measured.
    double value = found != nullptr ? found->value : 0;
    if ((found == nullptr && !options.trace) || !std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
      return 1;
    }
    char item[256];
    std::snprintf(item, sizeof(item), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  json.size() > 1 ? ", " : "", name.c_str(), value,
                  unit.c_str());
    json += item;
  }
  json += "}";
  bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", outcome.attempted, outcome.failed,
              json.c_str());
  return 0;
}
