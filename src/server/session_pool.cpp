#include "server/session_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/fault_injection.hpp"
#include "common/string_util.hpp"

namespace treedl::server {

namespace {

/// Pooled engines run sequentially (requests are the server's unit of
/// parallelism) and keep evictable tables rather than coloring witnesses.
const EngineOptions kPooledEngineOptions = [] {
  EngineOptions options;
  options.extract_witness = false;
  options.num_threads = 1;
  return options;
}();

bool FileExists(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  std::fclose(file);
  return true;
}

}  // namespace

SessionPool::SessionPool(SessionPoolOptions options)
    : options_(std::move(options)) {
  if (options_.max_sessions == 0) options_.max_sessions = 1;
}

SessionPool::Lease SessionPool::MakeLeaseLocked(Entry& entry,
                                                uint64_t fingerprint, bool hit,
                                                bool warm_loaded,
                                                size_t artifact_loads) {
  entry.leases->fetch_add(1, std::memory_order_acq_rel);
  Lease lease{entry.engine, fingerprint, hit, warm_loaded, artifact_loads,
              /*pin=*/nullptr};
  std::shared_ptr<std::atomic<size_t>> count = entry.leases;
  // The pin's deleter runs exactly once, when the last copy of the lease
  // dies. It captures the counter by shared_ptr, not the pool, so a lease
  // outliving the pool (or its entry's eviction) stays safe.
  lease.pin = std::shared_ptr<void>(
      static_cast<void*>(nullptr), [count](void*) {
        count->fetch_sub(1, std::memory_order_acq_rel);
      });
  return lease;
}

StatusOr<SessionPool::Lease> SessionPool::Acquire(const Structure& structure) {
  uint64_t fingerprint = Engine::FingerprintOf(structure);
  size_t estimate = Engine::EstimateStructureBytes(structure);
  std::unique_lock<std::mutex> lock(mu_);

  bool waited = false;
  while (true) {
    if (waited) {
      // The build this thread waited on may have failed: consume one share
      // of the recorded failure and return it. Only threads that actually
      // waited consume shares — a fresh Acquire skips the record and retries
      // the build itself, so a transient failure costs exactly one retry.
      auto failed = build_failures_.find(fingerprint);
      if (failed != build_failures_.end()) {
        Status failure = failed->second.status;
        if (--failed->second.remaining == 0) build_failures_.erase(failed);
        return failure;
      }
    }
    auto it = sessions_.find(fingerprint);
    if (it != sessions_.end()) {
      ++counters_.hits;
      it->second.last_used = ++clock_;
      return MakeLeaseLocked(it->second, fingerprint, /*hit=*/true,
                             /*warm_loaded=*/false, /*artifact_loads=*/0);
    }
    auto build = builds_.find(fingerprint);
    if (build == builds_.end()) break;
    // Another thread is building this very session: wait for its insert
    // rather than building a second copy.
    if (!waited) {
      waited = true;
      ++counters_.build_waits;
      ++build->second.waiters;
    }
    build_cv_.wait(lock);
  }

  ++counters_.misses;
  if (options_.table_memory_budget > 0 &&
      estimate > options_.table_memory_budget) {
    ++counters_.rejections;
    return Status::ResourceExhausted(
        "structure estimate " + std::to_string(estimate) +
        "B exceeds the shared table_memory_budget " +
        std::to_string(options_.table_memory_budget) + "B");
  }
  while (sessions_.size() + builds_.size() >= options_.max_sessions ||
         (options_.table_memory_budget > 0 &&
          ChargedBytesLocked() + estimate > options_.table_memory_budget)) {
    if (!EvictOneLocked()) {
      ++counters_.rejections;
      return Status::ResourceExhausted(
          "session pool: every resident session is in use (" +
          std::to_string(sessions_.size()) + " resident, " +
          std::to_string(ChargedBytesLocked()) + "B charged)");
    }
  }

  // Reserve the slot and the byte estimate, then build OUTSIDE the lock: one
  // cold tenant's construction + warm-load I/O must not block every other
  // tenant's Acquire. The builds_ latch keeps concurrent acquires of this
  // fingerprint from building twice.
  builds_.emplace(fingerprint, BuildState{estimate, /*waiters=*/0});
  lock.unlock();

  Status build_status = TREEDL_FAULT_POINT("session_pool.build");
  std::shared_ptr<Engine> engine;
  bool warm_loaded = false;
  bool quarantined = false;
  size_t artifact_loads = 0;
  if (build_status.ok()) {
    engine = std::make_shared<Engine>(structure, kPooledEngineOptions);
    if (!options_.session_dir.empty()) {
      std::string path = SessionFilePath(fingerprint);
      if (FileExists(path)) {
        RunStats load_stats;
        Status loaded = engine->LoadSession(path, &load_stats);
        if (loaded.ok()) {
          warm_loaded = true;
          artifact_loads = load_stats.artifact_loads;
        } else {
          // A corrupt, truncated, or fault-injected file must not fail the
          // request — the session starts cold and rebuilds. Quarantine the
          // file to "<path>.corrupt" so the damage is kept for inspection
          // and the next acquire does not re-read it (a later SAVE writes a
          // fresh, healthy file at the original path).
          std::rename(path.c_str(), (path + ".corrupt").c_str());
          quarantined = true;
        }
      }
    }
  }

  if (!build_status.ok()) {
    // Failed build: release the reserved slot and hand the failure to every
    // thread that waited on this latch — each consumes one share, so nobody
    // hangs on the condition variable and nobody re-runs the failed build on
    // this request's behalf. The next fresh Acquire retries exactly once.
    lock.lock();
    auto build = builds_.find(fingerprint);
    size_t waiters = build != builds_.end() ? build->second.waiters : 0;
    if (build != builds_.end()) builds_.erase(build);
    if (waiters > 0) {
      BuildFailure& failure = build_failures_[fingerprint];
      failure.status = build_status;
      failure.remaining += waiters;
    }
    build_cv_.notify_all();
    return build_status;
  }

  size_t resident_bytes = engine->ResidentArtifactBytes();

  lock.lock();
  builds_.erase(fingerprint);
  if (warm_loaded) ++counters_.warm_loads;
  if (quarantined) ++counters_.quarantines;
  Entry entry;
  entry.engine = std::move(engine);
  entry.leases = std::make_shared<std::atomic<size_t>>(0);
  entry.estimate = estimate;
  entry.charge = std::max(estimate, resident_bytes);
  entry.last_used = ++clock_;
  auto [pos, inserted] = sessions_.emplace(fingerprint, std::move(entry));
  build_cv_.notify_all();
  return MakeLeaseLocked(pos->second, fingerprint, /*hit=*/false, warm_loaded,
                         artifact_loads);
}

void SessionPool::RefreshCharge(uint64_t fingerprint) {
  std::shared_ptr<Engine> engine;
  size_t estimate = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(fingerprint);
    if (it == sessions_.end()) return;
    engine = it->second.engine;
    estimate = it->second.estimate;
  }
  // Measure outside the pool lock: ResidentArtifactBytes takes the engine's
  // cache mutex, which a long build may hold — the pool must stay responsive.
  size_t resident = engine->ResidentArtifactBytes();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(fingerprint);
  if (it == sessions_.end() || it->second.engine != engine) return;
  // Recompute, never ratchet: a session whose tables were evicted gives its
  // charge back to the admission budget (the estimate stays a floor).
  it->second.charge = std::max(estimate, resident);
}

Status SessionPool::Save(uint64_t fingerprint, RunStats* stats) {
  std::shared_ptr<Engine> engine;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(fingerprint);
    if (it != sessions_.end()) engine = it->second.engine;
  }
  if (engine == nullptr) {
    return Status::NotFound("no resident session for fingerprint " +
                            Hex16(fingerprint));
  }
  if (options_.session_dir.empty()) {
    return Status::InvalidArgument(
        "SAVE requires the server to run with a session directory");
  }
  return engine->SaveSession(SessionFilePath(fingerprint), stats);
}

std::shared_ptr<Engine> SessionPool::Peek(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(fingerprint);
  return it == sessions_.end() ? nullptr : it->second.engine;
}

bool SessionPool::IsResident(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.find(fingerprint) != sessions_.end();
}

size_t SessionPool::ActiveLeases(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(fingerprint);
  if (it == sessions_.end()) return 0;
  return it->second.leases->load(std::memory_order_acquire);
}

std::string SessionPool::SessionFilePath(uint64_t fingerprint) const {
  if (options_.session_dir.empty()) return "";
  return options_.session_dir + "/" + Hex16(fingerprint) + ".tdls";
}

SessionPoolCounters SessionPool::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

size_t SessionPool::NumResident() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

size_t SessionPool::ChargedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ChargedBytesLocked();
}

std::vector<uint64_t> SessionPool::LruFingerprints() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<uint64_t, uint64_t>> order;  // {last_used, fp}
  order.reserve(sessions_.size());
  for (const auto& [fingerprint, entry] : sessions_) {
    order.emplace_back(entry.last_used, fingerprint);
  }
  std::sort(order.begin(), order.end());
  std::vector<uint64_t> fingerprints;
  fingerprints.reserve(order.size());
  for (const auto& [used, fingerprint] : order) {
    fingerprints.push_back(fingerprint);
  }
  return fingerprints;
}

size_t SessionPool::ChargedBytesLocked() const {
  size_t total = 0;
  for (const auto& [fingerprint, entry] : sessions_) total += entry.charge;
  // Builds in flight have reserved their estimate against the budget.
  for (const auto& [fingerprint, build] : builds_) total += build.estimate;
  return total;
}

bool SessionPool::EvictOneLocked() {
  auto victim = sessions_.end();
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    // A zero lease count means no Acquire is outstanding — the session is
    // idle. Leased sessions are never evicted mid-request. (use_count on the
    // engine pointer would also count Peek copies and lease copies on other
    // threads, so it is not the lease truth.)
    if (it->second.leases->load(std::memory_order_acquire) > 0) continue;
    if (victim == sessions_.end() ||
        it->second.last_used < victim->second.last_used) {
      victim = it;
    }
  }
  if (victim == sessions_.end()) return false;
  sessions_.erase(victim);
  ++counters_.evictions;
  return true;
}

}  // namespace treedl::server
