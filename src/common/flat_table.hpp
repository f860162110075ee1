// FlatTable: the arena-backed open-addressing state table of the tree DPs.
//
// Replaces std::unordered_map<State, Value> as the per-bag table of
// core/tree_dp.hpp. Layout:
//
//   entries_  — dense array of {hash, {State, Value}} records in insertion
//               order; this is what iteration walks, so the transition loops
//               (introduce/forget/join) stream states contiguously instead of
//               pointer-chasing hash buckets.
//   slots_    — power-of-two open-addressing index (linear probing); each
//               slot holds 1 + entry index, 0 = empty, at least two slots
//               per entry of capacity.
//
// Both arrays share one allocation in the table's own bump Arena
// (common/arena.hpp), and Release() hands the whole table's blocks back at
// once — the primitive behind the DP's dead-table eviction. Reserve(n) sizes
// that allocation for n entries up front, so a table whose size the caller
// can bound is allocated once; past its capacity a table doubles, copying
// its entries into a new allocation (the old one stays in the arena until
// Release). The blocks are recycled through the BlockCache
// (common/block_cache.hpp), so an evicted table's blocks become the next
// table's. MemoryBytes() reports the arena footprint, which the tree-DP walk
// aggregates into DpStats::peak_table_bytes.
//
// Iteration order is insertion order — deterministic given a deterministic
// emission sequence, identical between sequential and sharded walks
// (each node's transitions run on exactly one thread, in post order within a
// shard). The table is not thread-safe; the DP guarantees a node's table is
// written by one thread and read by its parent only after completion.
#ifndef TREEDL_COMMON_FLAT_TABLE_HPP_
#define TREEDL_COMMON_FLAT_TABLE_HPP_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/arena.hpp"
#include "common/logging.hpp"

namespace treedl {

template <typename State, typename Value>
class FlatTable {
 public:
  /// Iteration yields `const std::pair<State, Value>&` — the structured
  /// binding shape of the std::unordered_map it replaces.
  using Entry = std::pair<State, Value>;

  FlatTable() = default;
  FlatTable(FlatTable&& other) noexcept { *this = std::move(other); }
  FlatTable& operator=(FlatTable&& other) noexcept {
    if (this != &other) {
      DestroyEntries();
      arena_ = std::move(other.arena_);
      records_ = std::exchange(other.records_, nullptr);
      slots_ = std::exchange(other.slots_, nullptr);
      size_ = std::exchange(other.size_, 0);
      entry_capacity_ = std::exchange(other.entry_capacity_, 0);
      slot_mask_ = std::exchange(other.slot_mask_, 0);
    }
    return *this;
  }
  FlatTable(const FlatTable&) = delete;
  FlatTable& operator=(const FlatTable&) = delete;
  ~FlatTable() { DestroyEntries(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  struct Record {
    size_t hash;
    Entry entry;
  };

  // Dense, insertion-ordered iteration over the records array.
  struct Iterator {
    const Record* record;
    const Entry& operator*() const { return record->entry; }
    const Entry* operator->() const { return &record->entry; }
    Iterator& operator++() {
      ++record;
      return *this;
    }
    bool operator==(const Iterator&) const = default;
  };
  Iterator begin() const { return Iterator{records_}; }
  Iterator end() const { return Iterator{records_ + size_}; }

  /// The i-th entry in insertion order; requires i < size().
  const Entry& EntryAt(size_t i) const { return records_[i].entry; }

  /// Pointer to the value of `state`, or null.
  const Value* Find(const State& state) const {
    if (size_ == 0) return nullptr;
    size_t hash = state.hash();
    for (size_t probe = hash & slot_mask_;; probe = (probe + 1) & slot_mask_) {
      uint32_t slot = slots_[probe];
      if (slot == 0) return nullptr;
      Record& record = records_[slot - 1];
      if (record.hash == hash && record.entry.first == state) {
        return &record.entry.second;
      }
    }
  }

  size_t count(const State& state) const { return Find(state) ? 1 : 0; }

  const Value& at(const State& state) const {
    const Value* value = Find(state);
    TREEDL_CHECK(value != nullptr) << "FlatTable::at: state not present";
    return *value;
  }

  /// Makes room for `n` entries in one allocation: inserts up to that many
  /// entries never grow the table. A no-op when the capacity already
  /// suffices.
  void Reserve(size_t n) {
    if (n > entry_capacity_) Resize(n);
  }

  /// The emit/merge primitive of the DP transition loops: inserts
  /// (state, value), or folds `value` into the existing value with
  /// `merge(old, value)` when `state` is already present.
  template <typename MergeFn>
  void Emplace(State state, Value value, MergeFn&& merge) {
    size_t hash = state.hash();
    // Probe for an existing entry BEFORE growing: a merge that lands exactly
    // at the capacity boundary must not trigger a pointless reallocation.
    size_t probe = 0;
    bool have_slot = false;
    if (slots_ != nullptr) {
      for (probe = hash & slot_mask_;; probe = (probe + 1) & slot_mask_) {
        uint32_t slot = slots_[probe];
        if (slot == 0) {
          have_slot = true;
          break;
        }
        Record& record = records_[slot - 1];
        if (record.hash == hash && record.entry.first == state) {
          record.entry.second = merge(record.entry.second, value);
          return;
        }
      }
    }
    if (size_ == entry_capacity_) {
      Grow();
      have_slot = false;  // the slot array was rebuilt
    }
    if (!have_slot) {
      for (probe = hash & slot_mask_; slots_[probe] != 0;
           probe = (probe + 1) & slot_mask_) {
      }
    }
    new (&records_[size_]) Record{hash, {std::move(state), std::move(value)}};
    slots_[probe] = static_cast<uint32_t>(++size_);
  }

  /// The arena footprint in bytes — what this table charges against
  /// DpStats::peak_table_bytes and the WorkBudget table-bytes cap. The DP
  /// states are flat words, so this is all of a table's storage; only a
  /// state with heap-owning members (e.g. std::vector) would escape it.
  size_t MemoryBytes() const { return arena_.TotalBytes(); }

  /// Eviction: destroys every entry and returns the arena's blocks to the
  /// BlockCache, leaving the table empty. Safe to call on an empty table.
  void Release() {
    DestroyEntries();
    arena_.Reset();
    records_ = nullptr;
    slots_ = nullptr;
    size_ = 0;
    entry_capacity_ = 0;
    slot_mask_ = 0;
  }

 private:
  void Grow() { Resize(entry_capacity_ == 0 ? 8 : entry_capacity_ * 2); }

  // Moves the entries into one new allocation of `capacity` records and a
  // slot array of at least 2x that many slots, so the load factor never
  // exceeds 0.5 and linear probing stays short.
  void Resize(size_t capacity) {
    TREEDL_CHECK(capacity <= (size_t{1} << 32) - 1)
        << "FlatTable capacity " << capacity << " exceeds 32-bit slots";
    size_t slot_count = std::bit_ceil(capacity * 2);
    size_t record_bytes = capacity * sizeof(Record);
    static_assert(alignof(Record) % alignof(uint32_t) == 0);
    auto* block = static_cast<std::byte*>(arena_.Allocate(
        record_bytes + slot_count * sizeof(uint32_t), alignof(Record)));
    Record* new_records = reinterpret_cast<Record*>(block);
    uint32_t* new_slots = reinterpret_cast<uint32_t*>(block + record_bytes);
    for (size_t i = 0; i < size_; ++i) {
      new (&new_records[i]) Record{records_[i].hash,
                                   std::move(records_[i].entry)};
      records_[i].entry.~Entry();
    }
    for (size_t i = 0; i < slot_count; ++i) new_slots[i] = 0;
    size_t mask = slot_count - 1;
    for (size_t i = 0; i < size_; ++i) {
      size_t probe = new_records[i].hash & mask;
      while (new_slots[probe] != 0) probe = (probe + 1) & mask;
      new_slots[probe] = static_cast<uint32_t>(i + 1);
    }
    records_ = new_records;
    slots_ = new_slots;
    entry_capacity_ = capacity;
    slot_mask_ = mask;
  }

  void DestroyEntries() {
    for (size_t i = 0; i < size_; ++i) records_[i].entry.~Entry();
  }

  Arena arena_;
  Record* records_ = nullptr;
  uint32_t* slots_ = nullptr;
  size_t size_ = 0;
  size_t entry_capacity_ = 0;
  size_t slot_mask_ = 0;
};

}  // namespace treedl

#endif  // TREEDL_COMMON_FLAT_TABLE_HPP_
