// Shared pieces of the treedl wall-clock benchmark: run options, latency
// summaries, the result record printed as JSON, and the span recorder of the
// traced mode. Everything here measures the library from outside — it only
// calls public functions and reads public counters.
#ifndef TREEDL_PERFBENCH_PERFBENCH_HPP_
#define TREEDL_PERFBENCH_PERFBENCH_HPP_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace treedl {
class Graph;
class ThreadPool;
}  // namespace treedl

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double MillisSince(Clock::time_point from) {
  return MillisBetween(from, Clock::now());
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced mode writes its spans (empty = do not write).
  std::string spans_path;
};

/// Median plus the highest percentile that still has at least ten samples
/// beyond it (the tail), with the sample count behind both.
struct Summary {
  double median = 0;
  double tail = 0;
  double tail_percentile = 0;
  size_t samples = 0;
};
Summary Summarize(std::vector<double> values);
double Median(std::vector<double> values);

/// What one workload run reports: attempted/failed operation counts, the
/// metrics of the JSON line, and human-readable report lines printed above
/// it.
struct Outcome {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };

  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> report;

  /// Sets (or overwrites) a metric.
  void Set(const std::string& name, double value, const std::string& unit);
  /// Counts one failed operation and keeps the first few reasons.
  void Fail(const std::string& why);
  void Note(const std::string& line) { report.push_back(line); }
  /// Sets `<prefix>_ms` to the median of the samples and reports it, with
  /// the tail, under the name it has in this workload.
  void SetLatency(const std::string& prefix, const std::string& alias,
                  const std::vector<double>& millis);
};

/// Per-layer metrics of the traced mode. Every workload reports every one of
/// them; a metric of a layer the workload never reaches reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Hardware threads, at least 1.
size_t Nproc();

/// In-memory span recorder of the traced mode. A span has a name, start,
/// end, parent span and the id of the operation it belongs to; spans are
/// recorded from one thread, around calls into the library, and written out
/// when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = 0;
    int parent = -1;
    uint64_t op = 0;
  };

  /// Opens a span on construction and closes it on destruction. A disabled
  /// tracer (or a null one) records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  Tracer() : origin_(Clock::now()) {}

  /// Starts a new operation: spans opened from now on share its id.
  void BeginOp() { ++op_; }
  /// Records a finished top-level span timed elsewhere (for example by the
  /// stream buffers of the server workload) as an operation of its own.
  void Record(const std::string& name, Clock::time_point start,
              Clock::time_point end);
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Self times (duration minus direct children) of every span called
  /// `name`.
  std::vector<double> SelfTimes(const std::string& name) const;
  /// A report line with the median self time of each named span, naming
  /// the largest.
  std::string SelfTimeReport(const std::string& title,
                             const std::vector<std::string>& names) const;
  /// Writes every span as one JSON array.
  bool Write(const std::string& path) const;

 private:
  double Now() const { return MillisSince(origin_); }

  Clock::time_point origin_;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The explicit chain of public layer calls a graph session's first
/// Solve(kThreeColor) makes: GraphToStructure → GaifmanGraph → Decompose →
/// ValidateForStructure → Normalize → ComputeBagShardingByCost (with a pool)
/// → SolveThreeColorNormalized, each in a span named after its per-layer
/// metric. Throws std::runtime_error when a layer call fails.
struct GraphChainResult {
  bool colorable = false;
  int width = 0;
  size_t dp_states = 0;
};
GraphChainResult RunGraphChain(const treedl::Graph& graph,
                               treedl::ThreadPool* pool, Tracer* tracer);

/// Moves the per-layer metrics of the graph chain — medians of its spans,
/// and engine overhead as the "engine.first_3col" spans minus the chain's —
/// from the tracer into `outcome`.
void SetGraphChainMetrics(const Tracer& tracer, const GraphChainResult& last,
                          Outcome* outcome);

Outcome RunColdSession(const Options& options, Tracer* tracer);
Outcome RunWarmSession(const Options& options, Tracer* tracer);
Outcome RunServerMix(const Options& options, Tracer* tracer);

}  // namespace perfbench

#endif  // TREEDL_PERFBENCH_PERFBENCH_HPP_
