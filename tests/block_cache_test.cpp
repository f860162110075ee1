// BlockCache: the arena blocks every DP table and datalog relation is built
// from are recycled — within a thread after Reset, across threads through
// the depot, and at thread exit — and the front-cache and depot caps hold.
// The tests share one process-wide depot, so each one measures what it
// changes rather than absolute depot contents, and the depot-cap test runs
// last.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "common/block_cache.hpp"
#include "common/flat_table.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TREEDL_TEST_ASAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define TREEDL_TEST_ASAN 1
#endif
#ifdef TREEDL_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace treedl {
namespace {

struct Key {
  uint64_t word = 0;
  bool operator==(const Key&) const = default;
  size_t hash() const { return word * 0x9e3779b97f4a7c15ULL; }
};

TEST(BlockCacheTest, ClassesArePowersOfTwo) {
  EXPECT_EQ(BlockCache::ClassBytes(1), BlockCache::kMinBlockBytes);
  EXPECT_EQ(BlockCache::ClassBytes(256), 256u);
  EXPECT_EQ(BlockCache::ClassBytes(257), 512u);
  EXPECT_EQ(BlockCache::ClassBytes(5000), 8192u);
  // A request that outgrows the doubling jumps to its own class, not to
  // exactly its size.
  Arena arena;
  arena.Allocate(100, 8);
  arena.Allocate(3000, 64);
  EXPECT_EQ(arena.TotalBytes(), 256u + 4096u);

  // Above kMaxCachedBytes, which the cache never keeps, a block is exactly
  // the request.
  constexpr size_t kLarge = BlockCache::kMaxCachedBytes + (size_t{1} << 20);
  EXPECT_EQ(BlockCache::ClassBytes(kLarge), kLarge);
  Arena large;
  large.Allocate(kLarge, 8);
  EXPECT_EQ(large.TotalBytes(), kLarge + 8);
}

TEST(BlockCacheTest, BlockIsReusedAfterReset) {
  Arena arena;
  void* first = arena.Allocate(100, 8);
  arena.Reset();
  EXPECT_EQ(arena.TotalBytes(), 0u);
  EXPECT_EQ(arena.Allocate(100, 8), first);

  // A released table's storage is the next table's storage.
  auto keep = [](const int& a, const int&) { return a; };
  FlatTable<Key, int> table;
  table.Emplace(Key{1}, 1, keep);
  const void* records = &*table.begin();
  table.Release();
  FlatTable<Key, int> next;
  next.Emplace(Key{2}, 2, keep);
  EXPECT_EQ(static_cast<const void*>(&*next.begin()), records);
}

TEST(BlockCacheTest, BlockFreedOnAnotherThreadIsReusedThroughTheDepot) {
  // Taken here, freed by a thread that then exits, taken again by a third
  // thread, whose empty front cache refills from the depot.
  constexpr size_t kBytes = size_t{64} << 10;
  void* block = BlockCache::Take(kBytes);
  std::thread([block] { BlockCache::Give(block, kBytes); }).join();
  void* reused = nullptr;
  std::thread([&reused] {
    EXPECT_EQ(BlockCache::ThreadCachedBytes(), 0u);
    reused = BlockCache::Take(kBytes);
    BlockCache::Give(reused, kBytes);
  }).join();
  EXPECT_EQ(reused, block);
}

TEST(BlockCacheTest, ThreadExitFlushesItsCacheToTheDepot) {
  size_t held = 0;
  size_t depot_at_exit = 0;
  std::thread([&] {
    std::vector<void*> blocks;
    for (size_t bytes : {size_t{512}, size_t{4096}, size_t{4096}}) {
      blocks.push_back(BlockCache::Take(bytes));
    }
    BlockCache::Give(blocks[0], 512);
    BlockCache::Give(blocks[1], 4096);
    BlockCache::Give(blocks[2], 4096);
    held = BlockCache::ThreadCachedBytes();
    depot_at_exit = BlockCache::DepotCachedBytes();
  }).join();
  EXPECT_GE(held, 512u + 2 * 4096u);
  ASSERT_LE(depot_at_exit + held, BlockCache::kDepotBytes);
  EXPECT_EQ(BlockCache::DepotCachedBytes(), depot_at_exit + held);
}

TEST(BlockCacheTest, PoisonedWhileCached) {
#ifdef TREEDL_TEST_ASAN
  // An evicted table's storage is poisoned while its blocks wait in a
  // cache, so a read of the dead table is still reported.
  auto keep = [](const int& a, const int&) { return a; };
  FlatTable<Key, int> table;
  table.Emplace(Key{7}, 7, keep);
  const void* entry = &*table.begin();
  EXPECT_FALSE(__asan_address_is_poisoned(entry));
  table.Release();
  EXPECT_TRUE(__asan_address_is_poisoned(entry));
  table.Emplace(Key{8}, 8, keep);
  EXPECT_EQ(static_cast<const void*>(&*table.begin()), entry);
  EXPECT_FALSE(__asan_address_is_poisoned(entry));
#else
  GTEST_SKIP() << "poisoning is compiled in under AddressSanitizer only";
#endif
}

// Fills the depot past its cap, so it runs last.
TEST(BlockCacheTest, CapsHold) {
  std::thread([] {
    // Per class: at most kFrontSlots blocks stay with the thread.
    std::vector<void*> blocks;
    for (size_t i = 0; i < 2 * BlockCache::kFrontSlots; ++i) {
      blocks.push_back(BlockCache::Take(256));
    }
    for (void* block : blocks) BlockCache::Give(block, 256);
    EXPECT_LE(BlockCache::ThreadCachedBytes(),
              BlockCache::kFrontSlots * size_t{256});
    EXPECT_GT(BlockCache::ThreadCachedBytes(), 0u);

    // In bytes: at most kFrontBytes in all, the largest blocks leaving
    // first.
    constexpr size_t kMiB = size_t{1} << 20;
    blocks.clear();
    for (int i = 0; i < 8; ++i) blocks.push_back(BlockCache::Take(kMiB));
    for (void* block : blocks) BlockCache::Give(block, kMiB);
    EXPECT_LE(BlockCache::ThreadCachedBytes(), BlockCache::kFrontBytes);

    // The depot keeps at most kDepotBytes; the rest is deleted. Blocks
    // above kMaxCachedBytes are never cached.
    blocks.clear();
    size_t given = 0;
    while (given <= BlockCache::kDepotBytes) {
      blocks.push_back(BlockCache::Take(BlockCache::kMaxCachedBytes));
      given += BlockCache::kMaxCachedBytes;
    }
    for (void* block : blocks) {
      BlockCache::Give(block, BlockCache::kMaxCachedBytes);
    }
    EXPECT_LE(BlockCache::DepotCachedBytes(), BlockCache::kDepotBytes);
    size_t depot = BlockCache::DepotCachedBytes();
    size_t front = BlockCache::ThreadCachedBytes();
    BlockCache::Give(BlockCache::Take(2 * BlockCache::kMaxCachedBytes),
                     2 * BlockCache::kMaxCachedBytes);
    EXPECT_EQ(BlockCache::DepotCachedBytes(), depot);
    EXPECT_EQ(BlockCache::ThreadCachedBytes(), front);
  }).join();
  EXPECT_LE(BlockCache::DepotCachedBytes(), BlockCache::kDepotBytes);
}

}  // namespace
}  // namespace treedl
