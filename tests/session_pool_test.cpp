// SessionPool: fingerprint-keyed reuse, LRU eviction order, warm start from
// session files, and shared-budget admission control.
#include "server/session_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "engine/engine.hpp"
#include "structure/structure_io.hpp"
#include "test_util.hpp"

namespace treedl::server {
namespace {

/// A path graph a -> b -> c -> ... with `n` vertices over the e/2 signature.
Structure PathStructure(size_t n) {
  auto signature = Signature::Make({{"e", 2}});
  EXPECT_TRUE(signature.ok());
  std::string text;
  for (size_t i = 0; i + 1 < n; ++i) {
    text += "e(v" + std::to_string(i) + ", v" + std::to_string(i + 1) + ").\n";
  }
  if (n == 1) text = "element(v0).\n";
  auto structure = ParseStructure(*signature, text);
  EXPECT_TRUE(structure.ok()) << structure.status();
  return *std::move(structure);
}

TEST(SessionPoolTest, HitIsKeyedByFingerprintNotIdentity) {
  SessionPool pool(SessionPoolOptions{});
  Structure first = PathStructure(4);
  Structure second = PathStructure(4);  // equal content, distinct object

  auto miss = pool.Acquire(first);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.value().hit);
  auto hit = pool.Acquire(second);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().hit);
  EXPECT_EQ(hit.value().engine.get(), miss.value().engine.get());
  EXPECT_EQ(hit.value().fingerprint, Engine::FingerprintOf(first));

  SessionPoolCounters counters = pool.counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(pool.NumResident(), 1u);
}

TEST(SessionPoolTest, LruEvictionOrder) {
  SessionPoolOptions options;
  options.max_sessions = 2;
  SessionPool pool(options);
  Structure s1 = PathStructure(3);
  Structure s2 = PathStructure(4);
  Structure s3 = PathStructure(5);
  uint64_t fp1 = Engine::FingerprintOf(s1);
  uint64_t fp2 = Engine::FingerprintOf(s2);
  uint64_t fp3 = Engine::FingerprintOf(s3);

  ASSERT_TRUE(pool.Acquire(s1).ok());
  ASSERT_TRUE(pool.Acquire(s2).ok());
  EXPECT_EQ(pool.LruFingerprints(), (std::vector<uint64_t>{fp1, fp2}));

  // Touch s1: s2 becomes the eviction victim.
  ASSERT_TRUE(pool.Acquire(s1).ok());
  EXPECT_EQ(pool.LruFingerprints(), (std::vector<uint64_t>{fp2, fp1}));

  ASSERT_TRUE(pool.Acquire(s3).ok());
  EXPECT_EQ(pool.NumResident(), 2u);
  EXPECT_EQ(pool.Peek(fp2), nullptr);
  EXPECT_NE(pool.Peek(fp1), nullptr);
  EXPECT_EQ(pool.LruFingerprints(), (std::vector<uint64_t>{fp1, fp3}));
  EXPECT_EQ(pool.counters().evictions, 1u);
}

TEST(SessionPoolTest, SecondAcquireReusesArtifactsWithZeroBuilds) {
  SessionPool pool(SessionPoolOptions{});
  Structure structure = PathStructure(6);

  {
    auto lease = pool.Acquire(structure);
    ASSERT_TRUE(lease.ok());
    RunStats cold;
    ASSERT_TRUE(lease.value().engine->SolveAll(&cold).ok());
    EXPECT_GT(cold.td_builds, 0u);
  }
  auto lease = pool.Acquire(structure);
  ASSERT_TRUE(lease.ok());
  EXPECT_TRUE(lease.value().hit);
  RunStats warm;
  ASSERT_TRUE(lease.value().engine->SolveAll(&warm).ok());
  EXPECT_EQ(warm.encode_builds, 0u);
  EXPECT_EQ(warm.td_builds, 0u);
  EXPECT_EQ(warm.normalize_builds, 0u);
  EXPECT_GT(warm.cache_hits, 0u);
}

TEST(SessionPoolTest, WarmStartFromSavedSessionFile) {
  const std::string dir =
      "session_pool_test_" + std::to_string(TestSeed() % 100000);
  std::filesystem::create_directories(dir);
  Structure structure = PathStructure(6);
  uint64_t fingerprint = Engine::FingerprintOf(structure);

  SessionPoolOptions options;
  options.session_dir = dir;
  {
    SessionPool pool(options);
    auto lease = pool.Acquire(structure);
    ASSERT_TRUE(lease.ok());
    EXPECT_FALSE(lease.value().warm_loaded);  // nothing saved yet
    ASSERT_TRUE(lease.value().engine->SolveAll(nullptr).ok());
    RunStats saved;
    ASSERT_TRUE(pool.Save(fingerprint, &saved).ok());
    EXPECT_GT(saved.artifact_saves, 0u);
  }

  SessionPool fresh(options);
  auto lease = fresh.Acquire(structure);
  ASSERT_TRUE(lease.ok());
  EXPECT_FALSE(lease.value().hit);
  EXPECT_TRUE(lease.value().warm_loaded);
  EXPECT_GT(lease.value().artifact_loads, 0u);
  EXPECT_EQ(fresh.counters().warm_loads, 1u);

  // The file restores the decomposition; the normal form is derived from it
  // once, on first use.
  RunStats warm;
  ASSERT_TRUE(lease.value().engine->SolveAll(&warm).ok());
  EXPECT_EQ(warm.encode_builds, 0u);
  EXPECT_EQ(warm.td_builds, 0u);
  EXPECT_EQ(warm.normalize_builds, 1u);
  std::filesystem::remove_all(dir);
}

TEST(SessionPoolTest, BudgetRejectsOversizedStructure) {
  SessionPoolOptions options;
  options.table_memory_budget = 64;  // below any structure estimate
  SessionPool pool(options);
  auto lease = pool.Acquire(PathStructure(8));
  EXPECT_FALSE(lease.ok());
  EXPECT_EQ(lease.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.counters().rejections, 1u);
  EXPECT_EQ(pool.NumResident(), 0u);
}

TEST(SessionPoolTest, BudgetRejectsWhenEveryResidentSessionIsLeased) {
  Structure s1 = PathStructure(4);
  Structure s2 = PathStructure(5);
  // Room for one structure charge but not two (4 elements * 48 + 3 tuples *
  // (24 + 2 * 4) = 288 bytes for s1; s2 is bigger).
  SessionPoolOptions options;
  options.table_memory_budget = 400;
  SessionPool pool(options);

  auto held = pool.Acquire(s1);
  ASSERT_TRUE(held.ok()) << held.status();
  auto rejected = pool.Acquire(s2);  // s1 is leased: nothing to evict
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.counters().rejections, 1u);

  held.value().Release();  // release the lease; s1 becomes evictable
  auto admitted = pool.Acquire(s2);
  EXPECT_TRUE(admitted.ok()) << admitted.status();
  EXPECT_EQ(pool.counters().evictions, 1u);
  EXPECT_EQ(pool.Peek(Engine::FingerprintOf(s1)), nullptr);
}

TEST(SessionPoolTest, LeaseCountBlocksEvictionUntilLastCopyDies) {
  SessionPoolOptions options;
  options.max_sessions = 1;
  SessionPool pool(options);
  Structure s1 = PathStructure(3);
  Structure s2 = PathStructure(4);
  uint64_t fp1 = Engine::FingerprintOf(s1);

  auto lease = pool.Acquire(s1);
  ASSERT_TRUE(lease.ok());
  EXPECT_EQ(pool.ActiveLeases(fp1), 1u);

  // A copy shares the pin: the count stays 1 and drops only when BOTH die.
  SessionPool::Lease copy = lease.value();
  EXPECT_EQ(pool.ActiveLeases(fp1), 1u);

  // While any copy is alive the session cannot be evicted, so a second
  // structure finds no room in the 1-slot pool.
  EXPECT_FALSE(pool.Acquire(s2).ok());
  lease.value().Release();
  EXPECT_EQ(pool.ActiveLeases(fp1), 1u);  // copy still pins it
  EXPECT_FALSE(pool.Acquire(s2).ok());
  copy.Release();
  EXPECT_EQ(pool.ActiveLeases(fp1), 0u);
  EXPECT_TRUE(pool.Acquire(s2).ok());
  EXPECT_FALSE(pool.IsResident(fp1));
}

TEST(SessionPoolTest, ConcurrentAcquiresOfOneFingerprintBuildOnce) {
  SessionPool pool(SessionPoolOptions{});
  Structure structure = PathStructure(6);

  constexpr size_t kThreads = 8;
  std::vector<std::shared_ptr<Engine>> engines(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &structure, &engines, t] {
      auto lease = pool.Acquire(structure);
      ASSERT_TRUE(lease.ok());
      engines[t] = lease.value().engine;
    });
  }
  for (std::thread& thread : threads) thread.join();

  SessionPoolCounters counters = pool.counters();
  EXPECT_EQ(counters.misses, 1u);  // the build latch admits ONE builder
  EXPECT_EQ(counters.hits, kThreads - 1);  // everyone else is served the build
  EXPECT_LE(counters.build_waits, kThreads - 1);
  EXPECT_EQ(pool.NumResident(), 1u);
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(engines[t].get(), engines[0].get()) << t;
  }
}

TEST(SessionPoolTest, RefreshChargeRecomputesInsteadOfRatcheting) {
  SessionPoolOptions options;
  options.table_memory_budget = 1 << 20;
  SessionPool pool(options);
  Structure structure = PathStructure(6);
  uint64_t fingerprint = Engine::FingerprintOf(structure);
  size_t estimate = Engine::EstimateStructureBytes(structure);

  auto lease = pool.Acquire(structure);
  ASSERT_TRUE(lease.ok());
  EXPECT_EQ(pool.ChargedBytes(), estimate);  // nothing built yet

  ASSERT_TRUE(lease.value().engine->SolveAll(nullptr).ok());
  pool.RefreshCharge(fingerprint);
  size_t resident = lease.value().engine->ResidentArtifactBytes();
  // Exact recomputation, not a high-water mark: the charge IS the formula.
  EXPECT_EQ(pool.ChargedBytes(), std::max(estimate, resident));

  // Refreshing again without new work must not drift the charge upward.
  pool.RefreshCharge(fingerprint);
  pool.RefreshCharge(fingerprint);
  EXPECT_EQ(pool.ChargedBytes(), std::max(estimate, resident));
}

TEST(SessionPoolTest, ContendedAcquireReleaseEvictStress) {
  SessionPoolOptions options;
  options.max_sessions = 2;  // forces constant eviction pressure
  SessionPool pool(options);
  std::vector<Structure> structures;
  for (size_t n = 3; n < 7; ++n) structures.push_back(PathStructure(n));

  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 25;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        const Structure& structure = structures[(t + round) % structures.size()];
        auto lease = pool.Acquire(structure);
        if (!lease.ok()) {
          // Transient: every slot leased by the other threads.
          ++failures;
          continue;
        }
        EXPECT_GE(pool.ActiveLeases(lease.value().fingerprint), 1u);
        ASSERT_TRUE(lease.value().engine->SolveAll(nullptr).ok());
        pool.RefreshCharge(lease.value().fingerprint);
        lease.value().Release();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Idle pool: no lease leaked a pin, every entry is evictable again.
  for (uint64_t fingerprint : pool.LruFingerprints()) {
    EXPECT_EQ(pool.ActiveLeases(fingerprint), 0u);
  }
  SessionPoolCounters counters = pool.counters();
  // Every attempt is classified exactly once (a rejected acquire counts as a
  // miss first), so the ledger must balance.
  EXPECT_EQ(counters.hits + counters.misses, kThreads * kRounds);
  EXPECT_EQ(counters.rejections, failures.load());
  EXPECT_LE(pool.NumResident(), 2u);
}

TEST(SessionPoolTest, FailedBuildReportsOnceAndRetriesOnce) {
  ASSERT_TRUE(
      FaultInjector::Global().SetSchedule("session_pool.build@0").ok());
  SessionPool pool(SessionPoolOptions{});
  Structure structure = PathStructure(5);

  auto failed = pool.Acquire(structure);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_NE(failed.status().message().find("session_pool.build"),
            std::string::npos);
  EXPECT_EQ(pool.NumResident(), 0u);

  // A fresh Acquire retries the build exactly once — and succeeds, because
  // only hit 0 of the site is scheduled to fail.
  auto retried = pool.Acquire(structure);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_FALSE(retried.value().hit);
  EXPECT_EQ(pool.counters().misses, 2u);
  EXPECT_EQ(FaultInjector::Global().FaultsInjected(), 1u);
  FaultInjector::Global().Disable();
}

TEST(SessionPoolTest, FailedBuildUnderContentionNeverHangsOrStorms) {
  ASSERT_TRUE(
      FaultInjector::Global().SetSchedule("session_pool.build@0").ok());
  SessionPool pool(SessionPoolOptions{});
  Structure structure = PathStructure(6);

  constexpr size_t kThreads = 8;
  std::vector<Status> failures(kThreads, Status::OK());
  std::vector<std::shared_ptr<Engine>> engines(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &structure, &failures, &engines, t] {
      auto lease = pool.Acquire(structure);
      if (lease.ok()) {
        engines[t] = lease.value().engine;
      } else {
        failures[t] = lease.status();
      }
    });
  }
  // The join IS the no-hang assertion: the failed build must wake every
  // waiter with the failure (or let it retry), never strand it on the latch.
  for (std::thread& thread : threads) thread.join();

  size_t failed = 0;
  std::shared_ptr<Engine> survivor;
  for (size_t t = 0; t < kThreads; ++t) {
    if (engines[t] != nullptr) {
      if (survivor == nullptr) survivor = engines[t];
      EXPECT_EQ(engines[t].get(), survivor.get()) << t;
      continue;
    }
    ++failed;
    EXPECT_EQ(failures[t].code(), StatusCode::kInternal) << t;
    EXPECT_NE(failures[t].message().find("injected fault at"),
              std::string::npos)
        << t;
  }
  // The builder fails; every thread that waited on that build shares the
  // failure. The rest retry through the latch: ONE rebuilds (hit 1 is not
  // scheduled, so it succeeds) and the others are served that session.
  EXPECT_GE(failed, 1u);
  EXPECT_LT(failed, kThreads);  // somebody retried and succeeded
  EXPECT_EQ(FaultInjector::Global().FaultsInjected(), 1u);  // no retry storm
  EXPECT_EQ(pool.counters().misses, 2u);  // failed build + exactly one retry
  EXPECT_EQ(pool.NumResident(), 1u);
  FaultInjector::Global().Disable();
}

TEST(SessionPoolTest, CorruptSessionFileIsQuarantinedAndRebuiltCold) {
  const std::string dir =
      "session_pool_quarantine_" + std::to_string(TestSeed() % 100000);
  std::filesystem::create_directories(dir);
  Structure structure = PathStructure(6);
  uint64_t fingerprint = Engine::FingerprintOf(structure);

  SessionPoolOptions options;
  options.session_dir = dir;
  {
    SessionPool pool(options);
    ASSERT_TRUE(pool.Acquire(structure).ok());
    ASSERT_TRUE(pool.Acquire(structure).value().engine->SolveAll(nullptr).ok());
    ASSERT_TRUE(pool.Save(fingerprint).ok());
  }
  // Truncate the session file to garbage.
  SessionPool probe(options);
  std::string path = probe.SessionFilePath(fingerprint);
  {
    std::ofstream corrupt(path, std::ios::trunc | std::ios::binary);
    corrupt << "not a session file";
  }

  SessionPool fresh(options);
  auto lease = fresh.Acquire(structure);
  ASSERT_TRUE(lease.ok()) << lease.status();  // degraded, not failed
  EXPECT_FALSE(lease.value().warm_loaded);
  SessionPoolCounters counters = fresh.counters();
  EXPECT_EQ(counters.warm_loads, 0u);
  EXPECT_EQ(counters.quarantines, 1u);
  // The damage is preserved for inspection and out of the warm-start path.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  // The degraded session still answers correctly.
  auto result = lease.value().engine->SolveAll(nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().three_colorable);
  std::filesystem::remove_all(dir);
}

TEST(SessionPoolTest, SaveRequiresResidencyAndSessionDir) {
  SessionPool pool(SessionPoolOptions{});
  EXPECT_EQ(pool.Save(0x1234).code(), StatusCode::kNotFound);

  Structure structure = PathStructure(3);
  ASSERT_TRUE(pool.Acquire(structure).ok());
  Status no_dir = pool.Save(Engine::FingerprintOf(structure));
  EXPECT_EQ(no_dir.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace treedl::server
