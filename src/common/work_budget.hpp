// WorkBudget: a cooperative cancellation token with two deterministic limits.
//
// The paper's cost model makes work predictable — DP cost is ~3^|bag| per
// node, fixpoint cost is round-bounded — so a request limit can be expressed
// in *logical work units* (DP nodes processed per pass, fixpoint rule plans
// per round, rules grounded) instead of wall-clock. Logical units are the point: the total
// number of units a computation attempts is a pure function of the input,
// never of the thread count or schedule, so "abort after N units" yields the
// SAME abort decision — and therefore the same protocol reply — in a
// sequential run and in any parallel run.
//
// Two independent limits share one sticky abort flag:
//
//   deadline_units   every worker claims one unit per quantum of work via
//                    ConsumeUnit(); the claim whose index reaches the limit
//                    trips the flag. Because every unit is attempted until
//                    the flag trips, "cumulative units > limit" is
//                    schedule-invariant even though WHICH worker trips is
//                    not. DEADLINE 0 means zero allowed units (the first
//                    claim trips), not "disabled".
//
//   table_bytes_limit  a hard ceiling on live DP table bytes, checked after
//                    each table lands (CheckTableBytes). Walks that do not
//                    retain their tables evict dead ones as they go and
//                    stay near the traversal frontier; the hard cap fires
//                    on passes that retain tables (witness extraction),
//                    where eviction is off by design. Peak overshoot is
//                    bounded by the one table that tripped the check (per
//                    concurrently stepping worker).
//
// Aborting is sticky and one-way. Drivers stay infallible: a cancelled chunk
// still runs its scheduling epilogue (dependency countdowns, WaitGroup) and
// simply skips node processing; the CALLER converts Aborted() into a Status
// before touching any finalizer that assumes complete tables. AbortStatus()
// messages mention only schedule-invariant values (the limits), never
// bytes-at-trip or unit counts, so transcripts diff byte-for-byte.
#ifndef TREEDL_COMMON_WORK_BUDGET_HPP_
#define TREEDL_COMMON_WORK_BUDGET_HPP_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.hpp"

namespace treedl {

class WorkBudget {
 public:
  WorkBudget() = default;
  WorkBudget(const WorkBudget&) = delete;
  WorkBudget& operator=(const WorkBudget&) = delete;

  /// Arms the deadline: at most `units` work units may run. 0 is a real
  /// limit (the very first unit aborts).
  void SetDeadline(uint64_t units) {
    has_deadline_ = true;
    deadline_units_ = units;
  }

  /// Arms the hard live-table ceiling (0 leaves it disarmed).
  void SetTableBytesLimit(size_t bytes) { table_bytes_limit_ = bytes; }

  bool HasDeadline() const { return has_deadline_; }
  uint64_t DeadlineUnits() const { return deadline_units_; }
  size_t TableBytesLimit() const { return table_bytes_limit_; }

  /// Claims one work unit. Returns false when the budget is exhausted (this
  /// claim or an earlier one tripped a limit) — the caller skips the unit's
  /// work but still runs its scheduling epilogue.
  bool ConsumeUnit() {
    if (state_.load(std::memory_order_relaxed) != kOk) return false;
    if (!has_deadline_) return true;
    uint64_t index = units_.fetch_add(1, std::memory_order_relaxed);
    if (index < deadline_units_) return true;
    Trip(kDeadline);
    return false;
  }

  /// Hard-cap check after a table landed: `live_bytes` is the tracker's
  /// current total. Trips the memory abort when the ceiling is armed and
  /// exceeded. Returns false once aborted (by any limit).
  bool CheckTableBytes(size_t live_bytes) {
    if (state_.load(std::memory_order_relaxed) != kOk) return false;
    if (table_bytes_limit_ > 0 && live_bytes > table_bytes_limit_) {
      Trip(kMemory);
      return false;
    }
    return true;
  }

  bool Aborted() const {
    return state_.load(std::memory_order_acquire) != kOk;
  }

  /// The Status a caller surfaces instead of a partial result. The message
  /// carries only the configured limits — never live counters — so it is
  /// byte-identical across schedules.
  Status AbortStatus() const {
    switch (state_.load(std::memory_order_acquire)) {
      case kDeadline:
        return Status::DeadlineExceeded(
            "deadline of " + std::to_string(deadline_units_) +
            " work units exceeded");
      case kMemory:
        return Status::ResourceExhausted(
            "live DP tables exceed the table_memory_budget of " +
            std::to_string(table_bytes_limit_) + "B");
      default:
        return Status::OK();
    }
  }

  /// Re-arms the budget for another request (single-threaded context only —
  /// servers build one WorkBudget per request instead).
  void Reset() {
    state_.store(kOk, std::memory_order_relaxed);
    units_.store(0, std::memory_order_relaxed);
  }

 private:
  enum AbortState : int { kOk = 0, kDeadline = 1, kMemory = 2 };

  void Trip(AbortState why) {
    int expected = kOk;
    state_.compare_exchange_strong(expected, why, std::memory_order_acq_rel);
  }

  bool has_deadline_ = false;
  uint64_t deadline_units_ = 0;
  size_t table_bytes_limit_ = 0;
  std::atomic<uint64_t> units_{0};
  std::atomic<int> state_{kOk};
};

}  // namespace treedl

#endif  // TREEDL_COMMON_WORK_BUDGET_HPP_
