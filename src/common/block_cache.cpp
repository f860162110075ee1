#include "common/block_cache.hpp"

#include <algorithm>
#include <mutex>
#include <new>
#include <vector>

#if defined(__has_include)
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace treedl {

namespace {

int ClassOf(size_t bytes) {
  return std::countr_zero(bytes) - std::countr_zero(BlockCache::kMinBlockBytes);
}

void FreeBlock(void* block, size_t bytes) {
  ASAN_UNPOISON_MEMORY_REGION(block, bytes);
  ::operator delete(block);
}

struct Depot {
  std::mutex mu;
  std::vector<void*> blocks[BlockCache::kNumClasses];  // guarded by mu
  size_t bytes = 0;                                     // guarded by mu

  /// Stores blocks[0..n) of class `c` (each `size` bytes) up to the cap and
  /// frees the rest.
  void Put(int c, void* const* blocks_in, size_t n, size_t size) {
    size_t kept = 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      while (kept < n && bytes + size <= BlockCache::kDepotBytes) {
        blocks[c].push_back(blocks_in[kept++]);
        bytes += size;
      }
    }
    for (size_t i = kept; i < n; ++i) FreeBlock(blocks_in[i], size);
  }
};

// Never destroyed: a thread that exits during static destruction still
// flushes into it.
Depot& TheDepot() {
  static Depot* depot = new Depot;
  return *depot;
}

struct FrontCache {
  void* slots[BlockCache::kNumClasses][BlockCache::kFrontSlots];
  size_t count[BlockCache::kNumClasses] = {};
  size_t bytes = 0;

  ~FrontCache();

  /// Moves up to kBatch of the depot's most recently stored class-`c`
  /// blocks here, keeping their order, so the next pop is the depot's top.
  /// Takes one block more than the byte cap leaves room for: Take hands it
  /// out at once.
  void Refill(int c, size_t size) {
    Depot& depot = TheDepot();
    std::lock_guard<std::mutex> lock(depot.mu);
    std::vector<void*>& stock = depot.blocks[c];
    size_t room = 1 + (BlockCache::kFrontBytes - bytes) / size;
    size_t n = std::min({BlockCache::kBatch, stock.size(), room});
    std::copy(stock.end() - static_cast<std::ptrdiff_t>(n), stock.end(),
              slots[c]);
    stock.resize(stock.size() - n);
    depot.bytes -= n * size;
    count[c] = n;
    bytes += n * size;
  }

  /// Moves the kBatch least recently freed class-`c` blocks to the depot.
  void Spill(int c, size_t size) {
    size_t n = std::min(BlockCache::kBatch, count[c]);
    if (n == 0) return;
    TheDepot().Put(c, slots[c], n, size);
    std::copy(slots[c] + n, slots[c] + count[c], slots[c]);
    count[c] -= n;
    bytes -= n * size;
  }

  void Flush() {
    for (int c = 0; c < BlockCache::kNumClasses; ++c) {
      size_t size = BlockCache::kMinBlockBytes << c;
      TheDepot().Put(c, slots[c], count[c], size);
      bytes -= count[c] * size;
      count[c] = 0;
    }
  }
};

// Set once this thread's front cache is destroyed: an arena freed later in
// the thread's exit goes to the depot directly.
thread_local bool front_gone = false;

FrontCache::~FrontCache() {
  Flush();
  front_gone = true;
}

FrontCache* ThisThreadFront() {
  if (front_gone) return nullptr;
  thread_local FrontCache front;
  return &front;
}

}  // namespace

void* BlockCache::Take(size_t bytes) {
  if (bytes <= kMaxCachedBytes) {
    if (FrontCache* front = ThisThreadFront()) {
      int c = ClassOf(bytes);
      if (front->count[c] == 0) front->Refill(c, bytes);
      if (front->count[c] > 0) {
        void* block = front->slots[c][--front->count[c]];
        front->bytes -= bytes;
        ASAN_UNPOISON_MEMORY_REGION(block, bytes);
        return block;
      }
    }
  }
  return ::operator new(bytes);
}

void BlockCache::Give(void* block, size_t bytes) {
  if (bytes > kMaxCachedBytes) {
    FreeBlock(block, bytes);
    return;
  }
  ASAN_POISON_MEMORY_REGION(block, bytes);
  int c = ClassOf(bytes);
  FrontCache* front = ThisThreadFront();
  if (front == nullptr || bytes > kFrontBytes) {
    TheDepot().Put(c, &block, 1, bytes);
    return;
  }
  if (front->count[c] == kFrontSlots) front->Spill(c, bytes);
  // Over the byte cap, the largest blocks leave first: the small classes
  // every table starts with stay thread-local.
  int big = kNumClasses - 1;
  while (front->bytes + bytes > kFrontBytes) {
    while (front->count[big] == 0) --big;
    front->Spill(big, kMinBlockBytes << big);
  }
  front->slots[c][front->count[c]++] = block;
  front->bytes += bytes;
}

size_t BlockCache::ThreadCachedBytes() {
  FrontCache* front = ThisThreadFront();
  return front == nullptr ? 0 : front->bytes;
}

size_t BlockCache::DepotCachedBytes() {
  Depot& depot = TheDepot();
  std::lock_guard<std::mutex> lock(depot.mu);
  return depot.bytes;
}

}  // namespace treedl
