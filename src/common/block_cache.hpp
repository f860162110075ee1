// BlockCache: the recycled memory under every Arena (common/arena.hpp).
//
// A DP walk builds and frees thousands of node tables, each one to a few
// arena blocks, and a query repeats the same block sizes as the one before
// it. Handing those blocks to malloc and back costs more than the
// transitions: glibc returns freed memory to the OS, so every query faults
// its pages in again. The library therefore keeps its own blocks:
//
//   size classes  every block up to kMaxCachedBytes is a power of two, at
//                 least kMinBlockBytes; larger blocks are sized exactly and
//                 bypass the cache.
//   front cache   each thread keeps a bounded LIFO stack per class
//                 (kFrontSlots blocks, kFrontBytes in all). Take and Give
//                 touch only it in the common case: no lock, and the block
//                 handed out is the one freed last, still in cache.
//   depot         one mutex-guarded store shared by all threads. A front
//                 cache refills from it when a class runs empty and spills
//                 to it when a class is full, kBatch blocks at a time, and
//                 moves everything into it when its thread exits — so blocks
//                 freed by one thread (a parent shard, a short-lived pool
//                 worker) reach the others. Above kDepotBytes, blocks go
//                 back through operator delete.
//
// That cap is the only way cached memory leaves: nothing trims the cache,
// and dropping a session or an Engine does not release it. A process that
// has run DP walks keeps up to kDepotBytes plus kFrontBytes per live thread
// of freed blocks for its lifetime, outside every table-byte count (the
// server's admission budget charges resident artifacts only).
//
// Under AddressSanitizer a cached block is poisoned and unpoisoned when it
// is handed out again, so a read of an evicted table is still reported as
// long as its block sits in a cache.
#ifndef TREEDL_COMMON_BLOCK_CACHE_HPP_
#define TREEDL_COMMON_BLOCK_CACHE_HPP_

#include <bit>
#include <cstddef>

namespace treedl {

class BlockCache {
 public:
  static constexpr size_t kMinBlockBytes = 256;
  static constexpr int kNumClasses = 17;
  /// The largest cached block: 16 MiB.
  static constexpr size_t kMaxCachedBytes = kMinBlockBytes
                                            << (kNumClasses - 1);
  static constexpr size_t kFrontSlots = 32;
  static constexpr size_t kFrontBytes = size_t{4} << 20;
  static constexpr size_t kBatch = 8;
  static constexpr size_t kDepotBytes = size_t{64} << 20;

  /// The block size that serves a request of `bytes`: the next power of
  /// two, at least kMinBlockBytes; above kMaxCachedBytes, which the cache
  /// never keeps, `bytes` itself.
  static size_t ClassBytes(size_t bytes) {
    if (bytes <= kMinBlockBytes) return kMinBlockBytes;
    return bytes <= kMaxCachedBytes ? std::bit_ceil(bytes) : bytes;
  }

  /// A block of `bytes` (a ClassBytes value), aligned like operator new.
  static void* Take(size_t bytes);
  /// Returns a block from Take(bytes) — on any thread.
  static void Give(void* block, size_t bytes);

  /// Bytes cached by the calling thread's front cache.
  static size_t ThreadCachedBytes();
  /// Bytes cached in the depot.
  static size_t DepotCachedBytes();
};

}  // namespace treedl

#endif  // TREEDL_COMMON_BLOCK_CACHE_HPP_
