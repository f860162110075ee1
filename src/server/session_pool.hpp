// SessionPool: the fingerprint-keyed Engine cache of treedl::Server.
//
// The paper's amortization story (§5.3: one decomposition, many linear-time
// queries) only pays off when requests for the same structure land on the
// same warm Engine. The pool makes that happen across tenants and requests:
//
//   Acquire(structure) — fingerprint the structure (Engine::FingerprintOf,
//   the same hash that stamps session files), return the resident Engine on
//   a hit, or construct one on a miss. Misses pass admission control first:
//   a max-sessions cap and a global table_memory_budget shared by every
//   resident session (each session is charged its deterministic
//   ResidentArtifactBytes estimate, floored by the structure estimate). When
//   full, idle least-recently-used sessions are evicted; if every resident
//   session is leased out, the request is rejected with kResourceExhausted —
//   the server's E_ADMISSION.
//
//   Warm start — on a miss, if `session_dir` holds a session file for the
//   fingerprint, it is loaded into the fresh Engine before the lease is
//   returned (zero TD builds on the first query; the normal form is derived
//   from the restored decomposition once).
//
// Concurrency: all methods are thread-safe, and the slow work of a miss —
// Engine construction plus the warm-start disk read — runs OUTSIDE the pool
// mutex, behind a per-fingerprint build latch: one cold tenant never
// head-of-line-blocks other tenants' acquires, and concurrent acquires of
// the SAME fingerprint build the session exactly once (the waiters are
// served the built session as hits; counters().build_waits counts them).
// Admission reserves the builder's slot and byte estimate up front, so
// concurrent misses cannot overshoot the budget while a build is in flight.
//
// A Lease pins its session with an explicit per-entry lease count (NOT
// shared_ptr::use_count, which also counts Peek copies and is unreliable
// under concurrent lease copies): the count is incremented under the pool
// lock in Acquire and decremented exactly once when the last copy of the
// lease is destroyed (or Release()d). Only sessions with a zero lease count
// are evicted — a leased Engine is never destroyed mid-request.
#ifndef TREEDL_SERVER_SESSION_POOL_HPP_
#define TREEDL_SERVER_SESSION_POOL_HPP_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "engine/engine.hpp"

namespace treedl::server {

struct SessionPoolOptions {
  /// Most sessions resident at once (clamped to >= 1); sessions still being
  /// built count against the cap.
  size_t max_sessions = 8;
  /// Global byte budget shared by all resident sessions (0 = unlimited).
  /// Each session is charged max(structure estimate, resident artifacts);
  /// the server also makes it each request's hard cap on live DP table
  /// bytes (WorkBudget::SetTableBytesLimit).
  size_t table_memory_budget = 0;
  /// Directory of session files ("<16-hex-fingerprint>.tdls"). Empty
  /// disables warm start and Save.
  std::string session_dir;
};

struct SessionPoolCounters {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;
  size_t warm_loads = 0;
  size_t rejections = 0;
  /// Acquires that waited for another thread's in-flight build of the same
  /// fingerprint instead of building a second copy.
  size_t build_waits = 0;
  /// Session files that failed to load (corrupt, truncated, or
  /// fault-injected) and were renamed to "<path>.corrupt"; each quarantined
  /// acquire fell back to a cold build.
  size_t quarantines = 0;
};

class SessionPool {
 public:
  /// What Acquire returns: a shared lease on a resident Engine plus how the
  /// pool satisfied it. Copies share one lease pin; the pool's per-entry
  /// lease count drops when the last copy dies.
  struct Lease {
    std::shared_ptr<Engine> engine;
    uint64_t fingerprint = 0;
    bool hit = false;          // the session was already resident
    bool warm_loaded = false;  // a miss restored from a session file
    size_t artifact_loads = 0;  // artifacts the warm start restored
    /// Drops the lease early: the engine reference and the pool's lease pin
    /// both go, so the session becomes evictable before the Lease object
    /// itself dies.
    void Release() {
      engine.reset();
      pin.reset();
    }
    /// Decrements the entry's lease count when the last copy is destroyed.
    std::shared_ptr<void> pin;
  };

  explicit SessionPool(SessionPoolOptions options);

  /// Hit, warm start, or cold construction — or kResourceExhausted when
  /// admission control cannot make room. Construction and warm-start I/O of
  /// a miss run outside the pool lock (see the header comment).
  StatusOr<Lease> Acquire(const Structure& structure);

  /// Re-measures the budget charge of a resident session against its
  /// engine's ResidentArtifactBytes (call after running requests, which may
  /// have built artifacts). The charge is recomputed, not ratcheted: a
  /// session whose artifacts shrank gives the budget back, with the
  /// admission-time structure estimate as a permanent floor.
  void RefreshCharge(uint64_t fingerprint);

  /// Writes the resident session's artifacts to SessionFilePath(fingerprint).
  Status Save(uint64_t fingerprint, RunStats* stats = nullptr);

  /// The resident engine for `fingerprint`, or null. Does not touch LRU
  /// order, counters, or the lease count (STATS must not perturb eviction).
  std::shared_ptr<Engine> Peek(uint64_t fingerprint) const;

  /// True when `fingerprint` is resident right now — an immediate Acquire of
  /// the same structure would hit without evicting. Side-effect free.
  bool IsResident(uint64_t fingerprint) const;

  /// Outstanding leases on a resident session (0 when idle or not resident).
  size_t ActiveLeases(uint64_t fingerprint) const;

  /// "<session_dir>/<16-hex-fingerprint>.tdls" ("" without a session_dir).
  std::string SessionFilePath(uint64_t fingerprint) const;

  SessionPoolCounters counters() const;
  size_t NumResident() const;
  /// Sum of resident session charges against the global budget.
  size_t ChargedBytes() const;
  /// Resident fingerprints, least recently used first.
  std::vector<uint64_t> LruFingerprints() const;

  const SessionPoolOptions& options() const { return options_; }

 private:
  struct Entry {
    std::shared_ptr<Engine> engine;
    /// Outstanding leases; shared with every Lease pin so the count survives
    /// pool-side eviction races without back-pointers into the pool.
    std::shared_ptr<std::atomic<size_t>> leases;
    size_t estimate = 0;     // admission-time structure estimate (charge floor)
    size_t charge = 0;       // max(estimate, last measured resident bytes)
    uint64_t last_used = 0;  // logical clock tick of the last Acquire
  };

  /// Builds a pinned lease for `entry` (caller holds mu_).
  Lease MakeLeaseLocked(Entry& entry, uint64_t fingerprint, bool hit,
                        bool warm_loaded, size_t artifact_loads);
  size_t ChargedBytesLocked() const;
  /// Evicts the least-recently-used idle session; false when every resident
  /// session is leased out.
  bool EvictOneLocked();

  /// One in-flight cold build. An entry holds a session slot and its byte
  /// estimate against the budget while the builder runs unlocked; `waiters`
  /// counts the distinct acquires blocked on this build so a failure can be
  /// delivered to exactly that many threads.
  struct BuildState {
    size_t estimate = 0;
    size_t waiters = 0;
  };
  /// A failed build's status, owed to the `remaining` threads that were
  /// waiting when it failed. Waiters consume one share each and return the
  /// failure; acquires that never waited skip the record entirely — so a
  /// fresh request retries the build exactly once, and nobody hangs or
  /// retry-storms.
  struct BuildFailure {
    Status status = Status::OK();
    size_t remaining = 0;
  };

  SessionPoolOptions options_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> sessions_;
  std::unordered_map<uint64_t, BuildState> builds_;
  std::unordered_map<uint64_t, BuildFailure> build_failures_;
  std::condition_variable build_cv_;
  uint64_t clock_ = 0;
  SessionPoolCounters counters_;
};

}  // namespace treedl::server

#endif  // TREEDL_SERVER_SESSION_POOL_HPP_
