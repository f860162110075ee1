#include <gtest/gtest.h>

#include <cstring>
#include <new>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/small_bitset.hpp"
#include "common/status.hpp"
#include "common/string_util.hpp"
#include "common/thread_pool.hpp"

#include "test_util.hpp"

namespace treedl {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad bag");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad bag");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad bag");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kUnimplemented, StatusCode::kInternal,
        StatusCode::kResourceExhausted, StatusCode::kParseError}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

StatusOr<int> Doubled(int x) {
  TREEDL_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return 2 * v;
}

TEST(StatusOrTest, ValueAndErrorPaths) {
  StatusOr<int> good = ParsePositive(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 21);
  EXPECT_EQ(good.value_or(-1), 21);

  StatusOr<int> bad = ParsePositive(-3);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubled(4).value(), 8);
  EXPECT_FALSE(Doubled(0).ok());
}

TEST(SmallBitsetTest, BasicOps) {
  SmallBitset s;
  EXPECT_TRUE(s.Empty());
  s.Set(3);
  s.Set(10);
  EXPECT_TRUE(s.Test(3));
  EXPECT_FALSE(s.Test(4));
  EXPECT_EQ(s.Count(), 2);
  s.Reset(3);
  EXPECT_FALSE(s.Test(3));
  EXPECT_EQ(s.Count(), 1);
}

TEST(SmallBitsetTest, SetAlgebra) {
  SmallBitset a = SmallBitset::FromIndices({1, 2, 3});
  SmallBitset b = SmallBitset::FromIndices({3, 4});
  EXPECT_EQ((a | b).ToIndices(), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ((a & b).ToIndices(), (std::vector<int>{3}));
  EXPECT_EQ((a - b).ToIndices(), (std::vector<int>{1, 2}));
  EXPECT_TRUE((a & b).IsSubsetOf(a));
  EXPECT_TRUE((a & b).IsSubsetOf(b));
  EXPECT_FALSE(a.IsSubsetOf(b));
}

TEST(SmallBitsetTest, FirstNBoundaries) {
  EXPECT_TRUE(SmallBitset::FirstN(0).Empty());
  EXPECT_EQ(SmallBitset::FirstN(5).Count(), 5);
  EXPECT_EQ(SmallBitset::FirstN(64).Count(), 64);
}

TEST(SmallBitsetTest, ToStringRendersSorted) {
  EXPECT_EQ(SmallBitset::FromIndices({5, 1}).ToString(), "{1,5}");
  EXPECT_EQ(SmallBitset().ToString(), "{}");
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(TestSeed());
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, SampleIndicesDistinctAndInRange) {
  Rng rng(TestSeed());
  auto sample = rng.SampleIndices(50, 20);
  ASSERT_EQ(sample.size(), 20u);
  std::vector<bool> seen(50, false);
  for (size_t i : sample) {
    ASSERT_LT(i, 50u);
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(TestSeed());
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(StringUtilTest, SplitAndTrimAndJoin) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Trim("  hi \t"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
}

TEST(StringUtilTest, Identifiers) {
  EXPECT_TRUE(IsIdentifier("abc_1"));
  EXPECT_TRUE(IsIdentifier("_x"));
  EXPECT_TRUE(IsIdentifier("x'"));
  EXPECT_FALSE(IsIdentifier(""));
  EXPECT_FALSE(IsIdentifier("1x"));
  EXPECT_FALSE(IsIdentifier("a b"));
}

TEST(HashTest, CombineIsOrderSensitive) {
  size_t s1 = 0, s2 = 0;
  HashCombine(&s1, 1);
  HashCombine(&s1, 2);
  HashCombine(&s2, 2);
  HashCombine(&s2, 1);
  EXPECT_NE(s1, s2);
}

TEST(HashTest, HashRangeDistinguishesLengths) {
  EXPECT_NE(HashRange<int>({1, 2}), HashRange<int>({1, 2, 0}));
}

// The waiter owns the group and ends its lifetime the moment Wait returns, as
// the sharded DP walk does with a WaitGroup on its stack. Scribbling over the
// dead group's storage stands in for the frame being reused: a Done that
// still touches the group after Wait could observe zero finds a garbage
// mutex and aborts, crashes or hangs.
TEST(WaitGroupTest, WaiterMayEndTheGroupAsSoonAsWaitReturns) {
  ThreadPool pool(8);
  alignas(WaitGroup) unsigned char storage[sizeof(WaitGroup)];
  for (int round = 0; round < 50000; ++round) {
    WaitGroup* done = new (storage) WaitGroup();
    done->Add(4);
    for (int t = 0; t < 4; ++t) pool.Submit([done] { done->Done(); });
    while (pool.RunOneTask()) {
    }
    done->Wait();
    done->~WaitGroup();
    std::memset(storage, 0xff, sizeof(storage));
  }
}

}  // namespace
}  // namespace treedl
