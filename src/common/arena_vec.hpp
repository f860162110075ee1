// ArenaVec: a growable array of trivially-copyable elements whose storage
// lives in an external bump Arena (common/arena.hpp).
//
// The datalog FactStore keeps every per-relation array — argument columns,
// hash-index slots, bucket records, per-index row chains — in the relation's
// own arena through this type: one arena block per geometric growth step
// instead of one malloc per std::vector resize, and the whole relation is
// freed with a single Arena::Reset. Growth allocates a fresh arena block and
// copies (the FlatTable tradeoff: superseded blocks stay until Reset, a
// bounded ~2x overhead that MemoryBytes/TotalBytes reports honestly).
//
// Deliberately minimal: no destructors run (T must be trivially copyable and
// trivially destructible), no shrink, no erase. Not thread-safe — same
// contract as the Arena itself.
#ifndef TREEDL_COMMON_ARENA_VEC_HPP_
#define TREEDL_COMMON_ARENA_VEC_HPP_

#include <cstddef>
#include <cstring>
#include <type_traits>

#include "common/arena.hpp"
#include "common/logging.hpp"

namespace treedl {

template <typename T>
class ArenaVec {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ArenaVec elements live in an arena and are never destroyed");

 public:
  ArenaVec() = default;
  // Copy/move keep the raw pointer: the backing storage is owned by the
  // arena, not by this header, so default member-wise copies are correct as
  // long as both copies stop growing (the FactStore only moves whole
  // relations together with their arena).
  ArenaVec(const ArenaVec&) = default;
  ArenaVec& operator=(const ArenaVec&) = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T* data() const { return data_; }

  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  void push_back(const T& value, Arena* arena) {
    if (size_ == capacity_) Grow(arena, size_ + 1);
    data_[size_++] = value;
  }

  /// Appends `count` copies of `value` (used to zero-fill index slot arrays).
  void append_fill(size_t count, const T& value, Arena* arena) {
    if (size_ + count > capacity_) Grow(arena, size_ + count);
    for (size_t i = 0; i < count; ++i) data_[size_ + i] = value;
    size_ += count;
  }

  /// Drops every element but keeps the current storage (for index rebuilds
  /// within the same arena generation).
  void clear() { size_ = 0; }

 private:
  void Grow(Arena* arena, size_t needed) {
    size_t next = capacity_ == 0 ? 8 : capacity_ * 2;
    while (next < needed) next *= 2;
    T* grown = arena->template AllocateArray<T>(next);
    if (size_ > 0) std::memcpy(grown, data_, size_ * sizeof(T));
    data_ = grown;
    capacity_ = next;
  }

  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace treedl

#endif  // TREEDL_COMMON_ARENA_VEC_HPP_
