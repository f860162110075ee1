#include <gtest/gtest.h>

#include "core/primality_internal.hpp"
#include "engine/engine.hpp"
#include "schema/generators.hpp"
#include "schema/primality_bruteforce.hpp"
#include "td/heuristics.hpp"
#include "td/normalize.hpp"

namespace treedl::core {
namespace {

using treedl::Engine;

/// A sequential session over the caller's decomposition of the encoding.
EngineOptions SessionOver(const TreeDecomposition& td) {
  EngineOptions options;
  options.decomposition = td;
  options.num_threads = 1;
  return options;
}

TEST(PrimalityTest, PaperExampleDecision) {
  Schema schema = Schema::PaperExampleSchema();
  Engine engine(schema);
  // Ex 2.1: primes are a, b, c, d; e and g are not prime.
  for (const char* name : {"a", "b", "c", "d"}) {
    AttributeId a = schema.AttributeByName(name).value();
    auto result = engine.IsPrime(a);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(*result) << name;
  }
  for (const char* name : {"e", "g"}) {
    AttributeId a = schema.AttributeByName(name).value();
    auto result = engine.IsPrime(a);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_FALSE(*result) << name;
  }
}

TEST(PrimalityTest, PaperExampleEnumeration) {
  Schema schema = Schema::PaperExampleSchema();
  auto primes = Engine(schema).AllPrimes();
  ASSERT_TRUE(primes.ok()) << primes.status();
  EXPECT_EQ(*primes, AllPrimesBruteForce(schema));
}

TEST(PrimalityTest, TrivialSchemas) {
  // Single attribute, no FDs: the attribute is the key, hence prime.
  Schema s1;
  s1.AddAttribute("a");
  EXPECT_TRUE(Engine(s1).IsPrime(0).value());
  // a -> b: key is {a}; b is not prime.
  Schema s2;
  AttributeId a = s2.AddAttribute("a");
  AttributeId b = s2.AddAttribute("b");
  ASSERT_TRUE(s2.AddFd({a}, b).ok());
  EXPECT_TRUE(Engine(s2).IsPrime(a).value());
  EXPECT_FALSE(Engine(s2).IsPrime(b).value());
  // a -> b, b -> a: both keys {a} and {b} exist; both prime.
  Schema s3;
  a = s3.AddAttribute("a");
  b = s3.AddAttribute("b");
  ASSERT_TRUE(s3.AddFd({a}, b).ok());
  ASSERT_TRUE(s3.AddFd({b}, a).ok());
  EXPECT_TRUE(Engine(s3).IsPrime(a).value());
  EXPECT_TRUE(Engine(s3).IsPrime(b).value());
}

TEST(PrimalityTest, SelfDependency) {
  // a a -> a style trivial FDs must not break anything: a -> a.
  Schema s;
  AttributeId a = s.AddAttribute("a");
  AttributeId b = s.AddAttribute("b");
  ASSERT_TRUE(s.AddFd({a}, a).ok());
  auto primes = Engine(s).AllPrimes();
  ASSERT_TRUE(primes.ok()) << primes.status();
  EXPECT_EQ(*primes, AllPrimesBruteForce(s));
  (void)b;
}

TEST(PrimalityTest, BalancedInstanceGroundTruth) {
  for (int g : {1, 2, 3, 4}) {
    BalancedInstance inst = GenerateBalancedInstance(g);
    // x1 is prime, z1 is not — and the whole profile matches brute force.
    // The decisions run before AllPrimes, so they are not memo reads.
    Engine engine(inst.schema, SessionOver(inst.td));
    EXPECT_TRUE(engine.IsPrime(inst.query_attribute).value());
    EXPECT_FALSE(engine.IsPrime(inst.nonprime_attribute).value());
    auto primes = engine.AllPrimes();
    ASSERT_TRUE(primes.ok()) << primes.status();
    EXPECT_EQ(*primes, AllPrimesBruteForce(inst.schema)) << "g=" << g;
  }
}

TEST(PrimalityTest, LargeBalancedInstanceRuns) {
  // Far beyond brute-force reach: just verify the structural ground truth
  // (x*/y* prime, z* not) on the Table 1-sized instance.
  BalancedInstance inst = GenerateBalancedInstance(31);  // 93 attributes
  auto primes = Engine(inst.schema, SessionOver(inst.td)).AllPrimes();
  ASSERT_TRUE(primes.ok()) << primes.status();
  for (AttributeId a = 0; a < inst.schema.NumAttributes(); ++a) {
    char kind = inst.schema.AttributeName(a)[0];
    EXPECT_EQ((*primes)[static_cast<size_t>(a)], kind == 'x' || kind == 'y')
        << inst.schema.AttributeName(a);
  }
}

// Golden state counts: dp_states and dp_max_states_per_node of IsPrime and
// AllPrimes on a fixed family, as the element-id formulation of Fig. 6
// computes them. The packed transitions must reach exactly those states, so
// the counts pin reachability beyond the brute-force answer checks; they
// hold at any thread count.
struct GoldenCounts {
  const char* name;
  size_t isprime_states, isprime_max, all_states, all_max;
};

TEST(PrimalityTest, GoldenStateCounts) {
  const GoldenCounts kGolden[] = {
      {"paper", 188, 30, 395, 30},      {"balanced2", 58, 7, 137, 7},
      {"balanced3", 123, 7, 258, 7},    {"balanced4", 163, 7, 408, 7},
      {"balanced5", 228, 7, 529, 7},    {"balanced6", 266, 7, 697, 7},
      {"balanced7", 331, 7, 818, 7},    {"balanced8", 371, 7, 968, 7},
      {"balanced9", 436, 7, 1089, 7},   {"balanced10", 474, 7, 1239, 7},
      {"balanced11", 539, 7, 1360, 7},  {"balanced12", 577, 7, 1528, 7},
      {"balanced13", 642, 7, 1649, 7},  {"balanced14", 680, 7, 1799, 7},
      {"balanced15", 745, 7, 1920, 7},  {"balanced16", 785, 7, 2070, 7},
      {"random1", 377, 27, 1108, 27},   {"random2", 334, 34, 707, 34},
      {"random3", 495, 30, 1296, 30},   {"random4", 369, 34, 893, 39},
  };
  // The family, in kGolden order: (schema, IsPrime query attribute).
  std::vector<std::pair<Schema, AttributeId>> family;
  family.emplace_back(Schema::PaperExampleSchema(), 0);
  for (int g = 2; g <= 16; ++g) {
    BalancedInstance inst = GenerateBalancedInstance(g);
    family.emplace_back(inst.schema, inst.query_attribute);
  }
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    family.emplace_back(RandomWindowSchema(10, 8, 4, &rng), 0);
  }
  ASSERT_EQ(family.size(), std::size(kGolden));
  for (size_t threads : {1, 4}) {
    EngineOptions options;
    options.num_threads = threads;
    for (size_t i = 0; i < family.size(); ++i) {
      const GoldenCounts& golden = kGolden[i];
      RunStats decide;
      ASSERT_TRUE(Engine(family[i].first, options)
                      .IsPrime(family[i].second, &decide)
                      .ok());
      EXPECT_EQ(decide.dp_states, golden.isprime_states) << golden.name;
      EXPECT_EQ(decide.dp_max_states_per_node, golden.isprime_max)
          << golden.name;
      RunStats all;
      ASSERT_TRUE(Engine(family[i].first, options).AllPrimes(&all).ok());
      EXPECT_EQ(all.dp_states, golden.all_states)
          << golden.name << " threads " << threads;
      EXPECT_EQ(all.dp_max_states_per_node, golden.all_max)
          << golden.name << " threads " << threads;
    }
  }
}

// --- Packed states: position helpers and limits -----------------------------

using internal::DropBit;
using internal::kCoCapacity;
using internal::OpenBit;
using internal::PrimState;

TEST(PrimStateLayoutTest, OpenAndDropBitAtPositionsZeroAndSixtyTwo) {
  const uint64_t low62 = (uint64_t{1} << 62) - 1;  // positions 0..61
  const uint64_t full63 = (uint64_t{1} << 63) - 1;  // positions 0..62
  // Position 0: every bit moves.
  EXPECT_EQ(OpenBit(0b1011, 0), uint64_t{0b10110});
  EXPECT_EQ(OpenBit(low62, 0), low62 << 1);
  EXPECT_EQ(DropBit(0b10111, 0), uint64_t{0b1011});
  EXPECT_EQ(DropBit(full63, 0), low62);
  // Position 62, the last one of a 63-element bag: nothing above it moves.
  EXPECT_EQ(OpenBit(low62, 62), low62);
  EXPECT_EQ(DropBit(full63, 62), low62);
  EXPECT_EQ(DropBit(uint64_t{1} << 62, 62), uint64_t{0});
  // Drop undoes Open at every position.
  for (int p : {0, 1, 31, 61, 62}) {
    for (uint64_t m : {uint64_t{0}, uint64_t{0x2aaaaaaaaaaaaaaa}, low62}) {
      EXPECT_EQ(DropBit(OpenBit(m, p), p), m) << p;
      EXPECT_EQ((OpenBit(m, p) >> p) & 1, uint64_t{0}) << p;
    }
  }
}

TEST(PrimStateLayoutTest, CoInsertEraseAndShiftAtZeroLength) {
  PrimState s;
  s.Open(0);  // nothing to renumber
  s.Drop(0);
  EXPECT_EQ(s, PrimState{});
  s.CoInsert(0, 5);
  EXPECT_EQ(s.co_size, 1);
  EXPECT_EQ(s.co[0], 5);
  EXPECT_EQ(s.CoIndex(5), 0);
  EXPECT_EQ(s.CoMask(), uint64_t{1} << 5);
  s.CoErase(0);
  EXPECT_EQ(s, PrimState{});
  EXPECT_EQ(s.hash(), PrimState{}.hash());
}

TEST(PrimStateLayoutTest, CoInsertEraseAndShiftAtFullCapacity) {
  // Co holds positions 2·i + 1 in reverse derivation order, filled by
  // inserts at the front and the back.
  PrimState s;
  for (int i = 0; i < kCoCapacity; ++i) {
    if (i % 2 == 0) {
      s.CoInsert(s.co_size, 2 * i + 1);
    } else {
      s.CoInsert(0, 2 * i + 1);
    }
  }
  ASSERT_EQ(s.co_size, kCoCapacity);
  const PrimState full = s;
  EXPECT_EQ(s.y | s.fy | s.dc | s.fc, uint64_t{0});  // no spill into masks
  // Open at 0 moves every Co position up; Drop at 0 moves them back.
  s.Open(0);
  for (int i = 0; i < kCoCapacity; ++i) EXPECT_EQ(s.co[i], full.co[i] + 1);
  s.Drop(0);
  EXPECT_EQ(s, full);
  // Opening at the top position leaves every Co entry where it is.
  s.Open(62);
  EXPECT_EQ(s, full);
  // Dropping a Co member erases it and renumbers those above it.
  int index = s.CoIndex(21);
  ASSERT_GE(index, 0);
  s.Drop(21);
  EXPECT_EQ(s.co_size, kCoCapacity - 1);
  EXPECT_EQ(s.co[kCoCapacity - 1], 0);  // the freed byte is zeroed
  EXPECT_EQ(s.CoIndex(21), -1);
  EXPECT_EQ(s.CoIndex(45), -1);
  EXPECT_EQ(s.CoIndex(44), full.CoIndex(45) - (full.CoIndex(45) > index));
  s.Open(21);
  s.CoInsert(index, 21);
  EXPECT_EQ(s, full);
  EXPECT_EQ(s.hash(), full.hash());
  // Erase from a full sequence, then refill the last slot.
  s.CoErase(kCoCapacity - 1);
  EXPECT_NE(s, full);
  s.CoInsert(kCoCapacity - 1, full.co[kCoCapacity - 1]);
  EXPECT_EQ(s, full);
}

// A schema of `attributes` attributes a0, a1, … and `fds` copies of a0 -> a1:
// element ids are the attributes, then the FDs.
Schema CopiesOfOneFd(int attributes, int fds) {
  Schema s;
  for (int i = 0; i < attributes; ++i) s.AddAttribute("a" + std::to_string(i));
  for (int i = 0; i < fds; ++i) EXPECT_TRUE(s.AddFd({0}, 1).ok());
  return s;
}

std::vector<ElementId> Range(ElementId first, ElementId end) {
  std::vector<ElementId> out;
  for (ElementId e = first; e < end; ++e) out.push_back(e);
  return out;
}

// Raw decomposition: `wide` at the root above a leaf bag {a0, a1}.
TreeDecomposition WideRootOverNarrowLeaf(std::vector<ElementId> wide) {
  TreeDecomposition td;
  TdNodeId root = td.AddNode(std::move(wide));
  td.AddNode({0, 1}, root);
  return td;
}

TEST(PrimStateLayoutTest, CheckBagsEnforcesPositionCoAndLeafLimits) {
  Schema schema = CopiesOfOneFd(24, 62);  // elements 0..23 attrs, 24..85 FDs
  SchemaEncoding encoding = EncodeSchema(schema);
  internal::PrimalityContext context(schema, encoding);
  auto check = [&](std::vector<ElementId> root_bag,
                   std::vector<ElementId> leaf_bag, bool for_enumeration) {
    NormalizedTreeDecomposition ntd;
    NormNode leaf;
    leaf.bag = std::move(leaf_bag);
    NormNode root;
    root.kind = NormNodeKind::kCopy;
    root.bag = std::move(root_bag);
    root.children = {ntd.AddNode(std::move(leaf))};
    ntd.SetRoot(ntd.AddNode(std::move(root)));
    return context.CheckBags(ntd, for_enumeration).code();
  };
  std::vector<ElementId> bag63 = Range(24, 85);  // 61 FDs
  bag63.insert(bag63.begin(), {0, 1});
  std::vector<ElementId> bag64 = bag63;
  bag64.push_back(85);
  EXPECT_EQ(check(bag63, {0, 1}, false), StatusCode::kOk);
  EXPECT_EQ(check(bag64, {0, 1}, false), StatusCode::kResourceExhausted);
  EXPECT_EQ(check(Range(0, kCoCapacity), {0}, false), StatusCode::kOk);
  EXPECT_EQ(check(Range(0, kCoCapacity + 1), {0}, false),
            StatusCode::kResourceExhausted);
  // The leaf rule: every leaf, and the root when enumerating.
  EXPECT_EQ(check({0}, Range(0, 10), false), StatusCode::kOk);
  EXPECT_EQ(check({0}, Range(0, 11), false), StatusCode::kResourceExhausted);
  EXPECT_EQ(check(Range(0, 11), {0}, false), StatusCode::kOk);
  EXPECT_EQ(check(Range(0, 11), {0}, true), StatusCode::kResourceExhausted);
}

TEST(PrimStateLayoutTest, SixtyThreeElementBagRunsAndWiderBagsAreTypedErrors) {
  // a0 -> a1 (61 copies) in one 63-element bag: {a0} is the only key.
  Schema schema = CopiesOfOneFd(2, 61);
  std::vector<ElementId> bag63 = Range(0, 63);
  EngineOptions options;
  options.decomposition = WideRootOverNarrowLeaf(bag63);
  Engine engine(schema, options);
  RunStats stats;
  auto a0 = engine.IsPrime(0, &stats);
  ASSERT_TRUE(a0.ok()) << a0.status();
  EXPECT_TRUE(*a0);
  EXPECT_GT(stats.dp_states, 0u);
  auto a1 = engine.IsPrime(1);
  ASSERT_TRUE(a1.ok()) << a1.status();
  EXPECT_FALSE(*a1);

  // One more FD: 64 positions.
  Schema wider = CopiesOfOneFd(2, 62);
  options.decomposition = WideRootOverNarrowLeaf(Range(0, 64));
  auto wide = Engine(wider, options).IsPrime(0);
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().code(), StatusCode::kResourceExhausted)
      << wide.status();

  // 24 attributes in one bag: one past the Co capacity.
  Schema flat = CopiesOfOneFd(kCoCapacity + 1, 0);
  TreeDecomposition td;
  TdNodeId root = td.AddNode(Range(0, kCoCapacity + 1));
  td.AddNode({0}, root);
  options.decomposition = td;
  auto co = Engine(flat, options).IsPrime(0);
  ASSERT_FALSE(co.ok());
  EXPECT_EQ(co.status().code(), StatusCode::kResourceExhausted) << co.status();
}

class PrimalityPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PrimalityPropertyTest, DecisionMatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  Schema schema = RandomWindowSchema(7, 5, 4, &rng);
  SchemaEncoding encoding = EncodeSchema(schema);
  auto td = DecomposeStructure(encoding.structure);
  ASSERT_TRUE(td.ok());
  Engine engine(schema, SessionOver(*td));
  for (AttributeId a = 0; a < schema.NumAttributes(); ++a) {
    auto result = engine.IsPrime(a);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(*result, IsPrimeBruteForce(schema, a))
        << "seed " << GetParam() << " attr " << schema.AttributeName(a)
        << " schema " << schema.ToString();
  }
}

TEST_P(PrimalityPropertyTest, EnumerationMatchesBruteForceAndQuadratic) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 500);
  Schema schema = RandomWindowSchema(8, 5, 4, &rng);
  SchemaEncoding encoding = EncodeSchema(schema);
  auto td = DecomposeStructure(encoding.structure);
  ASSERT_TRUE(td.ok());
  auto linear = Engine(schema, SessionOver(*td)).AllPrimes();
  ASSERT_TRUE(linear.ok()) << linear.status();
  // The quadratic baseline: one re-rooted decision per attribute, on a
  // second session that never ran AllPrimes (so no answer is a memo read).
  Engine decide(schema, SessionOver(*td));
  std::vector<bool> quadratic(static_cast<size_t>(schema.NumAttributes()));
  for (AttributeId a = 0; a < schema.NumAttributes(); ++a) {
    auto prime = decide.IsPrime(a);
    ASSERT_TRUE(prime.ok()) << prime.status();
    quadratic[static_cast<size_t>(a)] = *prime;
  }
  auto brute = AllPrimesBruteForce(schema);
  EXPECT_EQ(*linear, brute) << "seed " << GetParam() << " schema "
                            << schema.ToString();
  EXPECT_EQ(quadratic, brute);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrimalityPropertyTest, ::testing::Range(0, 25));

TEST(PrimalityTest, RejectsBadInputs) {
  Schema schema = Schema::PaperExampleSchema();
  SchemaEncoding encoding = EncodeSchema(schema);
  // Out-of-range attribute.
  auto td = DecomposeStructure(encoding.structure);
  ASSERT_TRUE(td.ok());
  Engine engine(schema, SessionOver(*td));
  for (AttributeId a : {AttributeId{99}, AttributeId{-1}}) {
    auto out_of_range = engine.IsPrime(a);
    ASSERT_FALSE(out_of_range.ok());
    EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
  }
  // Invalid decomposition: it covers element 0 only.
  TreeDecomposition bad;
  bad.AddNode({0});
  auto decided = Engine(schema, SessionOver(bad)).IsPrime(0);
  ASSERT_FALSE(decided.ok());
  EXPECT_EQ(decided.status().code(), StatusCode::kInvalidArgument);
  auto enumerated = Engine(schema, SessionOver(bad)).AllPrimes();
  ASSERT_FALSE(enumerated.ok());
  EXPECT_EQ(enumerated.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace treedl::core
