// The flat-table == hash-map property at the container level: FlatTable is
// the DP's replacement for std::unordered_map<State, Value>, so a randomized
// operation stream applied to both must produce identical contents, and the
// flat table's extra contracts (insertion-order iteration, arena accounting,
// eviction via Release) must hold.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/arena.hpp"
#include "common/flat_table.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"

#include "test_util.hpp"

namespace treedl {
namespace {

// A DP-shaped state: small byte vector keyed by content, like the bag
// colorings / membership flags of the real problems.
struct VecState {
  std::vector<uint8_t> bytes;

  bool operator==(const VecState&) const = default;
  size_t hash() const { return HashRange(bytes); }
};

struct VecStateHash {
  size_t operator()(const VecState& s) const { return s.hash(); }
};

VecState RandomState(Rng* rng, size_t max_len) {
  VecState s;
  size_t len = static_cast<size_t>(rng->UniformInt(0, static_cast<int>(max_len)));
  for (size_t i = 0; i < len; ++i) {
    s.bytes.push_back(static_cast<uint8_t>(rng->UniformInt(0, 3)));
  }
  return s;
}

TEST(FlatTableTest, MatchesHashMapReferenceOnRandomMergeStreams) {
  for (uint64_t trial = 0; trial < 8; ++trial) {
    Rng rng(TestSeed(trial));
    FlatTable<VecState, uint64_t> flat;
    std::unordered_map<VecState, uint64_t, VecStateHash> reference;
    auto merge = [](const uint64_t& a, const uint64_t& b) { return a + b; };

    size_t ops = 200 + 400 * static_cast<size_t>(trial);
    for (size_t op = 0; op < ops; ++op) {
      VecState state = RandomState(&rng, 6);
      uint64_t value = static_cast<uint64_t>(rng.UniformInt(1, 100));
      flat.Emplace(state, value, merge);
      auto [it, inserted] = reference.emplace(state, value);
      if (!inserted) it->second = merge(it->second, value);

      // Point lookups agree mid-stream too.
      VecState probe = RandomState(&rng, 6);
      auto ref_it = reference.find(probe);
      const uint64_t* found = flat.Find(probe);
      ASSERT_EQ(found != nullptr, ref_it != reference.end()) << "trial " << trial;
      if (found != nullptr) {
        EXPECT_EQ(*found, ref_it->second);
      }
    }

    ASSERT_EQ(flat.size(), reference.size()) << "trial " << trial;
    size_t seen = 0;
    for (const auto& [state, value] : flat) {
      auto it = reference.find(state);
      ASSERT_NE(it, reference.end()) << "trial " << trial;
      EXPECT_EQ(value, it->second) << "trial " << trial;
      EXPECT_EQ(flat.count(state), 1u);
      EXPECT_EQ(flat.at(state), it->second);
      ++seen;
    }
    EXPECT_EQ(seen, reference.size());
    EXPECT_GT(flat.MemoryBytes(), 0u);
  }
}

TEST(FlatTableTest, IterationIsInsertionOrdered) {
  FlatTable<VecState, int> table;
  auto keep_first = [](const int& a, const int&) { return a; };
  std::vector<VecState> inserted;
  for (uint8_t i = 0; i < 50; ++i) {
    VecState s;
    s.bytes = {i, static_cast<uint8_t>(i / 3)};
    table.Emplace(s, i, keep_first);
    inserted.push_back(s);
    // Duplicate emplacements must not reorder or duplicate.
    table.Emplace(s, 99, keep_first);
  }
  ASSERT_EQ(table.size(), inserted.size());
  size_t i = 0;
  for (const auto& [state, value] : table) {
    EXPECT_EQ(state, inserted[i]) << "position " << i;
    EXPECT_EQ(value, static_cast<int>(i));
    ++i;
  }
}

// Reserve sizes the table once: inserts up to the reserved count allocate
// nothing more and keep insertion order; past it the table doubles, and
// every entry stays findable and in order.
TEST(FlatTableTest, ReserveAllocatesOnceAndOverflowKeepsEveryEntry) {
  for (size_t reserved : {1, 3, 24, 100}) {
    SCOPED_TRACE(reserved);
    FlatTable<VecState, size_t> table;
    auto keep_first = [](const size_t& a, const size_t&) { return a; };
    table.Reserve(reserved);
    const size_t reserved_bytes = table.MemoryBytes();
    EXPECT_GT(reserved_bytes, 0u);
    std::vector<VecState> inserted;
    auto state = [](size_t i) {
      return VecState{{static_cast<uint8_t>(i), static_cast<uint8_t>(i >> 8)}};
    };
    for (size_t i = 0; i < reserved; ++i) {
      inserted.push_back(state(i));
      table.Emplace(inserted.back(), i, keep_first);
      table.Emplace(inserted.back(), 999, keep_first);  // a merge, not an entry
      ASSERT_EQ(table.MemoryBytes(), reserved_bytes) << "insert " << i;
    }
    table.Reserve(reserved);  // enough capacity already: a no-op
    EXPECT_EQ(table.MemoryBytes(), reserved_bytes);
    size_t i = 0;
    for (const auto& [s, value] : table) {
      EXPECT_EQ(s, inserted[i]);
      EXPECT_EQ(value, i);
      EXPECT_EQ(&table.EntryAt(i).first, &s);
      ++i;
    }
    EXPECT_EQ(i, reserved);

    // Overflow: three times the reservation, through the doubling path.
    for (size_t j = reserved; j < 3 * reserved + 1; ++j) {
      inserted.push_back(state(j));
      table.Emplace(inserted.back(), j, keep_first);
    }
    EXPECT_GT(table.MemoryBytes(), reserved_bytes);
    ASSERT_EQ(table.size(), inserted.size());
    for (size_t j = 0; j < inserted.size(); ++j) {
      const size_t* value = table.Find(inserted[j]);
      ASSERT_NE(value, nullptr) << "entry " << j;
      EXPECT_EQ(*value, j);
      EXPECT_EQ(table.EntryAt(j).first, inserted[j]);
    }
    EXPECT_EQ(table.Find(state(5000)), nullptr);
  }
}

TEST(FlatTableTest, ReleaseFreesEverythingAndTableStaysUsable) {
  Rng rng(TestSeed());
  FlatTable<VecState, uint64_t> table;
  auto merge = [](const uint64_t& a, const uint64_t& b) { return a + b; };
  for (int i = 0; i < 300; ++i) {
    table.Emplace(RandomState(&rng, 5), 1, merge);
  }
  EXPECT_GT(table.size(), 0u);
  EXPECT_GT(table.MemoryBytes(), 0u);
  table.Release();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.MemoryBytes(), 0u);
  EXPECT_EQ(table.Find(VecState{}), nullptr);
  // Reuse after eviction: a released table accepts new states.
  table.Emplace(VecState{{1, 2}}, 7, merge);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.at(VecState{{1, 2}}), 7u);
}

TEST(FlatTableTest, MoveTransfersContentsAndZeroesTheSource) {
  FlatTable<VecState, int> a;
  auto keep_first = [](const int& x, const int&) { return x; };
  a.Emplace(VecState{{1}}, 1, keep_first);
  a.Emplace(VecState{{2}}, 2, keep_first);
  FlatTable<VecState, int> b = std::move(a);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.at(VecState{{2}}), 2);
  // The moved-from table reports no phantom memory and stays usable — the
  // eviction accounting subtracts MemoryBytes(), so a stale footprint would
  // corrupt the tracker.
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.MemoryBytes(), 0u);
  a.Emplace(VecState{{9}}, 9, keep_first);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.at(VecState{{9}}), 9);
  FlatTable<VecState, int> c;
  c = std::move(b);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.at(VecState{{1}}), 1);
  EXPECT_EQ(b.MemoryBytes(), 0u);
}

TEST(ArenaTest, AllocationsAreAlignedAndAccounted) {
  Arena arena;
  EXPECT_EQ(arena.TotalBytes(), 0u);
  for (size_t align : {size_t{1}, size_t{2}, size_t{8}, size_t{64}}) {
    for (int i = 0; i < 20; ++i) {
      void* p = arena.Allocate(static_cast<size_t>(i) * 3 + 1, align);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u)
          << "align " << align;
    }
  }
  EXPECT_GT(arena.TotalBytes(), 0u);
  // Earlier allocations stay valid while later ones grow new blocks.
  auto* first = arena.AllocateArray<uint64_t>(4);
  first[0] = 0xfeedULL;
  for (int i = 0; i < 8; ++i) arena.AllocateArray<uint64_t>(1 << i);
  EXPECT_EQ(first[0], 0xfeedULL);
  arena.Reset();
  EXPECT_EQ(arena.TotalBytes(), 0u);
}

}  // namespace
}  // namespace treedl
