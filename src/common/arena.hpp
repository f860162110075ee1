// A bump allocator backing the flat DP state tables (common/flat_table.hpp)
// and the datalog relation storage (common/arena_vec.hpp).
//
// The tree DPs allocate in a rigid pattern: a node's table grows while the
// node is processed, is then read by the node's parent, and finally dies as a
// whole — individual states are never freed. An Arena matches that lifetime:
// Allocate() bumps a pointer inside geometrically growing blocks (one or two
// blocks for a typical node table, instead of one heap node per state), and
// Reset() returns everything at once. Nothing is destructed — callers own
// destruction of non-trivial objects placed in the arena (FlatTable does).
//
// Blocks are BlockCache size classes (powers of two up to 16 MiB, exact
// sizes above) taken from and returned to the library's BlockCache (common/block_cache.hpp), so a walk reuses the blocks
// of the tables it already evicted, and a query those of the query before
// it, instead of faulting fresh pages in.
//
// Not thread-safe; the sharded DP driver gives every node table its own
// arena, and a node is only ever touched by one thread at a time. A block
// may be returned on another thread than the one that took it.
#ifndef TREEDL_COMMON_ARENA_HPP_
#define TREEDL_COMMON_ARENA_HPP_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/block_cache.hpp"

namespace treedl {

class Arena {
 public:
  Arena() = default;
  // Moves must zero the source's byte count along with its blocks, or a
  // moved-from arena would report a phantom footprint (and keep growing it).
  Arena(Arena&& other) noexcept
      : blocks_(std::move(other.blocks_)),
        total_bytes_(std::exchange(other.total_bytes_, 0)) {
    other.blocks_.clear();
  }
  Arena& operator=(Arena&& other) noexcept {
    if (this != &other) {
      Reset();
      blocks_ = std::move(other.blocks_);
      other.blocks_.clear();
      total_bytes_ = std::exchange(other.total_bytes_, 0);
    }
    return *this;
  }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() { Reset(); }

  /// Returns `bytes` of storage aligned to `align` (a power of two). The
  /// memory lives until Reset() or destruction; it is never reused before
  /// that, so pointers into earlier allocations stay valid across later ones.
  void* Allocate(size_t bytes, size_t align) {
    if (bytes == 0) bytes = 1;
    if (!blocks_.empty()) {
      Block& block = blocks_.back();
      // Align the absolute address, not the offset — the block base itself
      // is only aligned to the default new alignment.
      uintptr_t base = reinterpret_cast<uintptr_t>(block.data);
      size_t aligned = static_cast<size_t>(
          ((base + block.used + align - 1) & ~uintptr_t{align - 1}) - base);
      if (aligned + bytes <= block.size) {
        block.used = aligned + bytes;
        return block.data + aligned;
      }
    }
    // New block: geometric growth keeps the block count (and the bump-path
    // misses) logarithmic in the table size; a request that outgrows the
    // doubling jumps to its own size class.
    size_t next = blocks_.empty() ? BlockCache::kMinBlockBytes
                                  : blocks_.back().size * 2;
    if (next < bytes + align) next = BlockCache::ClassBytes(bytes + align);
    Block block;
    block.data = static_cast<std::byte*>(BlockCache::Take(next));
    block.size = next;
    total_bytes_ += next;
    uintptr_t base = reinterpret_cast<uintptr_t>(block.data);
    size_t aligned = ((base + align - 1) & ~(align - 1)) - base;
    block.used = aligned + bytes;
    blocks_.push_back(block);
    return block.data + aligned;
  }

  /// Uninitialized storage for `n` objects of type T. The caller placement-
  /// constructs and (for non-trivial T) destroys them.
  template <typename T>
  T* AllocateArray(size_t n) {
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Total bytes of backing blocks (allocated capacity, the arena's actual
  /// memory footprint — what the DP memory accounting charges).
  size_t TotalBytes() const { return total_bytes_; }

  /// Returns every block to the BlockCache. Outstanding pointers become
  /// dangling.
  void Reset() {
    for (const Block& block : blocks_) BlockCache::Give(block.data, block.size);
    blocks_.clear();
    total_bytes_ = 0;
  }

 private:
  struct Block {
    std::byte* data = nullptr;
    size_t size = 0;
    size_t used = 0;
  };

  std::vector<Block> blocks_;
  size_t total_bytes_ = 0;
};

}  // namespace treedl

#endif  // TREEDL_COMMON_ARENA_HPP_
