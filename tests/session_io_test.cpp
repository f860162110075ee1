// Persistent-session round trips: save → load must reproduce every answer
// bit-identically with ZERO rebuilds (the acceptance criterion of the
// session-IO work), and damaged files — truncated, bit-flipped, wrong
// fingerprint, future version — must fail with a clean error Status, never a
// crash, leaving the engine usable.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/binary_io.hpp"
#include "engine/engine.hpp"
#include "engine/session_io.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace treedl {
namespace {

constexpr Engine::Problem kAllProblems[] = {
    Engine::Problem::kThreeColor,      Engine::Problem::kThreeColorCount,
    Engine::Problem::kVertexCover,     Engine::Problem::kIndependentSet,
    Engine::Problem::kDominatingSet,
};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void ExpectSameResult(const Engine::SolveResult& a,
                      const Engine::SolveResult& b, const char* what) {
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.optimum, b.optimum) << what;
  EXPECT_EQ(a.count, b.count) << what;
  EXPECT_EQ(a.witness, b.witness) << what;
}

TEST(SessionIoTest, GraphSessionRoundTripIsBitIdenticalWithZeroRebuilds) {
  Rng rng(TestSeed());
  Graph graph = RandomPartialKTree(60, 3, 0.6, &rng);
  EngineOptions options;
  options.num_threads = 4;
  const std::string path = TempPath("graph_session.tdls");

  // Warm a session: Width + all five problems + the SolveAll batch, then save.
  Engine warm = Engine::FromGraph(graph, options);
  auto width = warm.Width();
  ASSERT_TRUE(width.ok()) << width.status();
  std::vector<Engine::SolveResult> expected;
  for (Engine::Problem problem : kAllProblems) {
    auto result = warm.Solve(problem);
    ASSERT_TRUE(result.ok()) << result.status();
    expected.push_back(*result);
  }
  auto warm_all = warm.SolveAll();
  ASSERT_TRUE(warm_all.ok()) << warm_all.status();
  RunStats save_run;
  ASSERT_TRUE(warm.SaveSession(path, &save_run).ok());
  EXPECT_GT(save_run.artifact_saves, 0u);

  // A cold engine over the same graph restores the cache from disk...
  Engine cold = Engine::FromGraph(graph, options);
  RunStats load_run;
  Status loaded = cold.LoadSession(path, &load_run);
  ASSERT_TRUE(loaded.ok()) << loaded;
  EXPECT_GT(load_run.artifact_loads, 0u);
  EXPECT_EQ(load_run.encode_builds, 0u);
  EXPECT_EQ(load_run.td_builds, 0u);
  EXPECT_EQ(load_run.normalize_builds, 0u);

  // ... and every answer is bit-identical, with zero rebuilds.
  auto cold_width = cold.Width();
  ASSERT_TRUE(cold_width.ok()) << cold_width.status();
  EXPECT_EQ(*cold_width, *width);
  for (size_t i = 0; i < std::size(kAllProblems); ++i) {
    RunStats run;
    auto result = cold.Solve(kAllProblems[i], &run);
    ASSERT_TRUE(result.ok()) << result.status();
    ExpectSameResult(*result, expected[i], "Solve after load");
    EXPECT_EQ(run.td_builds, 0u) << "problem " << i;
    EXPECT_EQ(run.normalize_builds, 0u) << "problem " << i;
    EXPECT_GT(run.cache_hits, 0u) << "problem " << i;
  }
  RunStats all_run;
  auto cold_all = cold.SolveAll(&all_run);
  ASSERT_TRUE(cold_all.ok()) << cold_all.status();
  EXPECT_EQ(cold_all->three_colorable, warm_all->three_colorable);
  EXPECT_EQ(cold_all->coloring, warm_all->coloring);
  EXPECT_EQ(cold_all->three_colorings, warm_all->three_colorings);
  EXPECT_EQ(cold_all->min_vertex_cover, warm_all->min_vertex_cover);
  EXPECT_EQ(cold_all->max_independent_set, warm_all->max_independent_set);
  EXPECT_EQ(cold_all->min_dominating_set, warm_all->min_dominating_set);
  EXPECT_EQ(all_run.td_builds, 0u);
  EXPECT_EQ(all_run.normalize_builds, 0u);

  // Session-wide: the cold engine never built anything.
  RunStats total = cold.CumulativeStats();
  EXPECT_EQ(total.encode_builds, 0u);
  EXPECT_EQ(total.td_builds, 0u);
  EXPECT_EQ(total.normalize_builds, 0u);
  std::remove(path.c_str());
}

TEST(SessionIoTest, SchemaSessionRoundTripRestoresPrimesAndEncoding) {
  Schema schema = Schema::PaperExampleSchema();
  const std::string path = TempPath("schema_session.tdls");

  Engine warm(schema);
  auto primes = warm.AllPrimes();
  ASSERT_TRUE(primes.ok()) << primes.status();
  ASSERT_TRUE(warm.SaveSession(path).ok());

  Engine cold(schema);
  RunStats load_run;
  ASSERT_TRUE(cold.LoadSession(path, &load_run).ok());
  EXPECT_GT(load_run.artifact_loads, 0u);

  // AllPrimes comes straight from the restored memo: no encode, no td, no
  // normalize — a pure cache hit.
  RunStats run;
  auto cold_primes = cold.AllPrimes(&run);
  ASSERT_TRUE(cold_primes.ok()) << cold_primes.status();
  EXPECT_EQ(*cold_primes, *primes);
  EXPECT_EQ(run.encode_builds, 0u);
  EXPECT_EQ(run.td_builds, 0u);
  EXPECT_EQ(run.normalize_builds, 0u);
  EXPECT_GT(run.cache_hits, 0u);

  // IsPrime answers O(1) from the memo too.
  for (AttributeId a = 0; a < schema.NumAttributes(); ++a) {
    RunStats is_run;
    auto is_prime = cold.IsPrime(a, &is_run);
    ASSERT_TRUE(is_prime.ok()) << is_prime.status();
    EXPECT_EQ(*is_prime, (*primes)[static_cast<size_t>(a)]);
    EXPECT_EQ(is_run.td_builds, 0u);
  }
  EXPECT_EQ(cold.CumulativeStats().encode_builds, 0u);
  EXPECT_EQ(cold.CumulativeStats().td_builds, 0u);
  std::remove(path.c_str());
}

TEST(SessionIoTest, FingerprintMismatchIsRejected) {
  Rng rng(TestSeed());
  Graph g1 = RandomPartialKTree(30, 2, 0.6, &rng);
  Graph g2 = RandomPartialKTree(31, 2, 0.6, &rng);
  const std::string path = TempPath("fingerprint.tdls");

  Engine a = Engine::FromGraph(g1);
  ASSERT_TRUE(a.Width().ok());
  ASSERT_TRUE(a.SaveSession(path).ok());

  Engine b = Engine::FromGraph(g2);
  Status status = b.LoadSession(path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("fingerprint"), std::string::npos)
      << status.message();
  // The engine is unharmed and still answers.
  EXPECT_TRUE(b.Solve(Engine::Problem::kVertexCover).ok());
  std::remove(path.c_str());
}

TEST(SessionIoTest, CorruptedAndTruncatedFilesFailCleanly) {
  Rng rng(TestSeed());
  Graph graph = RandomPartialKTree(40, 3, 0.6, &rng);
  const std::string path = TempPath("corrupt.tdls");

  Engine warm = Engine::FromGraph(graph);
  ASSERT_TRUE(warm.Solve(Engine::Problem::kThreeColor).ok());
  ASSERT_TRUE(warm.SaveSession(path).ok());
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 24u);

  // Truncations at every prefix length of the header and a sweep of body
  // prefixes: all clean errors.
  for (size_t len : {0u, 1u, 3u, 4u, 7u, 8u, 15u, 16u, 23u}) {
    WriteFileBytes(path, bytes.substr(0, len));
    Engine cold = Engine::FromGraph(graph);
    EXPECT_FALSE(cold.LoadSession(path).ok()) << "truncated at " << len;
  }
  for (size_t len = 24; len < bytes.size(); len += 13) {
    WriteFileBytes(path, bytes.substr(0, len));
    Engine cold = Engine::FromGraph(graph);
    EXPECT_FALSE(cold.LoadSession(path).ok()) << "truncated at " << len;
  }

  // Bad magic.
  {
    std::string bad = bytes;
    bad[0] = 'X';
    WriteFileBytes(path, bad);
    Engine cold = Engine::FromGraph(graph);
    Status status = cold.LoadSession(path);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("magic"), std::string::npos);
  }

  // A version from the future is refused deliberately (not a parse crash).
  {
    std::string bad = bytes;
    bad[4] = static_cast<char>(99);
    WriteFileBytes(path, bad);
    Engine cold = Engine::FromGraph(graph);
    Status status = cold.LoadSession(path);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("version"), std::string::npos)
        << status.message();
  }

  // Bit flips through the body: either a clean parse error or — when the
  // flip lands in redundantly-validated data that still decodes — a clean
  // load; never a crash. After every attempt the engine still works.
  Rng flip_rng(TestSeed(1));
  for (int trial = 0; trial < 32; ++trial) {
    std::string bad = bytes;
    size_t pos = 16 + flip_rng.UniformIndex(bad.size() - 16);
    bad[pos] = static_cast<char>(bad[pos] ^ (1 << flip_rng.UniformIndex(8)));
    WriteFileBytes(path, bad);
    Engine cold = Engine::FromGraph(graph);
    (void)cold.LoadSession(path);
    auto result = cold.Solve(Engine::Problem::kIndependentSet);
    ASSERT_TRUE(result.ok()) << result.status();
  }
  std::remove(path.c_str());
}

TEST(SessionIoTest, FailedLoadRestoresNothing) {
  // A file whose encoding section decodes fine but whose decomposition
  // carries an out-of-domain bag element must fail the load atomically: no
  // artifact (not even the valid-looking encoding) may stick.
  Schema schema = Schema::PaperExampleSchema();
  const std::string path = TempPath("partial_session.tdls");
  Engine warm(schema);
  ASSERT_TRUE(warm.AllPrimes().ok());
  ASSERT_TRUE(warm.SaveSession(path).ok());

  // Rebuild the file with a poisoned decomposition, via the public format
  // API (the fingerprint is plainly readable at offset 8).
  std::string bytes = ReadFileBytes(path);
  ASSERT_GE(bytes.size(), 16u);
  uint64_t fingerprint = 0;
  {
    BinaryReader header(bytes);
    uint32_t skip = 0;
    ASSERT_TRUE(header.U32(&skip).ok());
    ASSERT_TRUE(header.U32(&skip).ok());
    ASSERT_TRUE(header.U64(&fingerprint).ok());
  }
  auto artifacts = engine::DecodeSessionFile(bytes, fingerprint);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status();
  ASSERT_TRUE(artifacts->td.has_value());
  artifacts->td->SetBag(artifacts->td->root(), {0, 1, 999999});
  engine::SessionArtifactRefs refs;
  refs.td = &*artifacts->td;
  if (artifacts->encoding.has_value()) refs.encoding = &*artifacts->encoding;
  if (artifacts->primes.has_value()) refs.primes = &*artifacts->primes;
  WriteFileBytes(path, engine::EncodeSessionFile(fingerprint, refs));

  Engine cold(schema);
  RunStats load_run;
  Status status = cold.LoadSession(path, &load_run);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(load_run.artifact_loads, 0u);
  // Nothing file-derived stuck: the next query builds its own encoding and
  // decomposition and answers correctly.
  RunStats run;
  auto primes = cold.AllPrimes(&run);
  ASSERT_TRUE(primes.ok()) << primes.status();
  EXPECT_EQ(run.encode_builds, 1u);
  EXPECT_EQ(run.td_builds, 1u);
  EXPECT_EQ(*primes, *warm.AllPrimes());
  std::remove(path.c_str());
}

TEST(SessionIoTest, UnknownSectionsAreSkipped) {
  // A same-version file carrying a section tag this reader does not know:
  // the known sections still load (forward compatibility within a version).
  BinaryWriter payload;
  payload.Str("artifact from the future");
  BinaryWriter file;
  file.U32(engine::kSessionMagic);
  file.U32(engine::kSessionVersion);
  file.U64(0xfeedULL);
  file.U64(1);  // one section
  file.U32(999);
  file.Str(payload.buffer());
  auto artifacts = engine::DecodeSessionFile(file.buffer(), 0xfeedULL);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status();
  EXPECT_EQ(artifacts->Count(), 0u);
}

TEST(SessionIoTest, SaveBeforeAnyQueryWritesAnEmptySession) {
  Rng rng(TestSeed());
  Graph graph = RandomPartialKTree(20, 2, 0.6, &rng);
  const std::string path = TempPath("empty_session.tdls");
  Engine cold = Engine::FromGraph(graph);
  RunStats save_run;
  ASSERT_TRUE(cold.SaveSession(path, &save_run).ok());
  EXPECT_EQ(save_run.artifact_saves, 0u);

  Engine other = Engine::FromGraph(graph);
  RunStats load_run;
  ASSERT_TRUE(other.LoadSession(path, &load_run).ok());
  EXPECT_EQ(load_run.artifact_loads, 0u);
  // Nothing restored; the first query builds as usual.
  RunStats run;
  ASSERT_TRUE(other.Solve(Engine::Problem::kThreeColor, &run).ok());
  EXPECT_EQ(run.td_builds, 1u);
  std::remove(path.c_str());
}

TEST(SessionIoTest, SaveIsAtomicAndLeavesNoTempFiles) {
  namespace fs = std::filesystem;
  Rng rng(TestSeed());
  Graph graph = RandomPartialKTree(40, 3, 0.6, &rng);
  fs::path dir = fs::path(::testing::TempDir()) / "atomic_save_dir";
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directory(dir));
  const std::string path = (dir / "session.tdls").string();

  Engine warm = Engine::FromGraph(graph);
  ASSERT_TRUE(warm.Solve(Engine::Problem::kVertexCover).ok());
  ASSERT_TRUE(warm.SaveSession(path).ok());

  // Exactly the published file — the temporary sibling was renamed away.
  std::vector<std::string> entries;
  for (const auto& entry : fs::directory_iterator(dir)) {
    entries.push_back(entry.path().filename().string());
  }
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0], "session.tdls");

  // Overwriting an existing session is also atomic: the target is never
  // truncated in place, so even racing a crash there is always a complete
  // file at `path`. After the second save the file still loads cleanly.
  ASSERT_TRUE(warm.SaveSession(path).ok());
  entries.clear();
  for (const auto& entry : fs::directory_iterator(dir)) {
    entries.push_back(entry.path().filename().string());
  }
  ASSERT_EQ(entries.size(), 1u);
  Engine cold = Engine::FromGraph(graph);
  EXPECT_TRUE(cold.LoadSession(path).ok());
  fs::remove_all(dir);
}

TEST(SessionIoTest, FailedSaveCreatesNoFile) {
  Rng rng(TestSeed());
  Graph graph = RandomPartialKTree(20, 2, 0.6, &rng);
  Engine warm = Engine::FromGraph(graph);
  ASSERT_TRUE(warm.Solve(Engine::Problem::kVertexCover).ok());
  const std::string path =
      "/nonexistent_treedl_dir/no_such_subdir/session.tdls";
  Status result = warm.SaveSession(path);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace treedl
