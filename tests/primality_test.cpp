#include <gtest/gtest.h>

#include "core/primality.hpp"
#include "core/primality_enum.hpp"
#include "engine/engine.hpp"
#include "schema/generators.hpp"
#include "schema/primality_bruteforce.hpp"
#include "td/heuristics.hpp"

namespace treedl::core {
namespace {

using treedl::Engine;

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
    EXPECT_TRUE(IsPrimeViaTd(inst.schema, inst.encoding, inst.td,
                             inst.query_attribute)
                    .value());
    EXPECT_FALSE(IsPrimeViaTd(inst.schema, inst.encoding, inst.td,
                              inst.nonprime_attribute)
                     .value());
    auto primes = EnumeratePrimes(inst.schema, inst.encoding, inst.td);
    ASSERT_TRUE(primes.ok()) << primes.status();
    EXPECT_EQ(*primes, AllPrimesBruteForce(inst.schema)) << "g=" << g;
  }
}

TEST(PrimalityTest, LargeBalancedInstanceRuns) {
  // Far beyond brute-force reach: just verify the structural ground truth
  // (x*/y* prime, z* not) on the Table 1-sized instance.
  BalancedInstance inst = GenerateBalancedInstance(31);  // 93 attributes
  auto primes = EnumeratePrimes(inst.schema, inst.encoding, inst.td);
  ASSERT_TRUE(primes.ok()) << primes.status();
  for (AttributeId a = 0; a < inst.schema.NumAttributes(); ++a) {
    char kind = inst.schema.AttributeName(a)[0];
    EXPECT_EQ((*primes)[static_cast<size_t>(a)], kind == 'x' || kind == 'y')
        << inst.schema.AttributeName(a);
  }
}

class PrimalityPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PrimalityPropertyTest, DecisionMatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  Schema schema = RandomWindowSchema(7, 5, 4, &rng);
  SchemaEncoding encoding = EncodeSchema(schema);
  auto td = DecomposeStructure(encoding.structure);
  ASSERT_TRUE(td.ok());
  for (AttributeId a = 0; a < schema.NumAttributes(); ++a) {
    auto result = IsPrimeViaTd(schema, encoding, *td, a);
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
  auto linear = EnumeratePrimes(schema, encoding, *td);
  ASSERT_TRUE(linear.ok()) << linear.status();
  auto quadratic = EnumeratePrimesQuadratic(schema, encoding, *td);
  ASSERT_TRUE(quadratic.ok()) << quadratic.status();
  auto brute = AllPrimesBruteForce(schema);
  EXPECT_EQ(*linear, brute) << "seed " << GetParam() << " schema "
                            << schema.ToString();
  EXPECT_EQ(*quadratic, brute);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrimalityPropertyTest, ::testing::Range(0, 25));

TEST(PrimalityTest, RejectsBadInputs) {
  Schema schema = Schema::PaperExampleSchema();
  SchemaEncoding encoding = EncodeSchema(schema);
  // Out-of-range attribute.
  auto td = DecomposeStructure(encoding.structure);
  ASSERT_TRUE(td.ok());
  EXPECT_FALSE(IsPrimeViaTd(schema, encoding, *td, 99).ok());
  // Invalid decomposition.
  TreeDecomposition bad;
  bad.AddNode({0});
  EXPECT_FALSE(IsPrimeViaTd(schema, encoding, bad, 0).ok());
  EXPECT_FALSE(EnumeratePrimes(schema, encoding, bad).ok());
}

}  // namespace
}  // namespace treedl::core
