// Persistent-session round trips: save → load must reproduce every answer
// bit-identically with ZERO decomposition builds (the derived artifacts —
// normal forms, τ_td, the schema encoding — are rebuilt once each on first
// use), and damaged files — truncated, bit-flipped, wrong fingerprint,
// future version, tampered derived sections — must fail with a clean error
// Status or load only what validates, never crash or answer wrongly.
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
#include "td/td_io.hpp"
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

// The 24-byte container header of a hand-built session file.
BinaryWriter SessionHeader(uint64_t fingerprint, uint64_t num_sections) {
  BinaryWriter file;
  file.U32(engine::kSessionMagic);
  file.U32(engine::kSessionVersion);
  file.U64(fingerprint);
  file.U64(num_sections);
  return file;
}

// Appends one section (tag + length-prefixed payload) to `file`.
void AppendRawSection(uint32_t tag, const BinaryWriter& payload,
                      BinaryWriter* file) {
  file->U32(tag);
  file->Str(payload.buffer());
}

void ExpectSameResult(const Engine::SolveResult& a,
                      const Engine::SolveResult& b, const char* what) {
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.optimum, b.optimum) << what;
  EXPECT_EQ(a.count, b.count) << what;
  EXPECT_EQ(a.witness, b.witness) << what;
}

TEST(SessionIoTest, GraphSessionRoundTripIsBitIdenticalWithZeroTdBuilds) {
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
  EXPECT_EQ(save_run.artifact_saves, 1u);  // the decomposition only

  // A cold engine over the same graph restores the decomposition...
  Engine cold = Engine::FromGraph(graph, options);
  RunStats load_run;
  Status loaded = cold.LoadSession(path, &load_run);
  ASSERT_TRUE(loaded.ok()) << loaded;
  EXPECT_EQ(load_run.artifact_loads, 1u);
  EXPECT_EQ(load_run.encode_builds, 0u);
  EXPECT_EQ(load_run.td_builds, 0u);
  EXPECT_EQ(load_run.normalize_builds, 0u);

  // ... and every answer is bit-identical. The first Solve derives the
  // normal form from the restored decomposition; nothing is rebuilt after.
  auto cold_width = cold.Width();
  ASSERT_TRUE(cold_width.ok()) << cold_width.status();
  EXPECT_EQ(*cold_width, *width);
  for (size_t i = 0; i < std::size(kAllProblems); ++i) {
    RunStats run;
    auto result = cold.Solve(kAllProblems[i], &run);
    ASSERT_TRUE(result.ok()) << result.status();
    ExpectSameResult(*result, expected[i], "Solve after load");
    EXPECT_EQ(run.td_builds, 0u) << "problem " << i;
    EXPECT_EQ(run.normalize_builds, i == 0 ? 1u : 0u) << "problem " << i;
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

  // Session-wide: the cold engine never decomposed, and normalized once.
  RunStats total = cold.CumulativeStats();
  EXPECT_EQ(total.encode_builds, 0u);
  EXPECT_EQ(total.td_builds, 0u);
  EXPECT_EQ(total.normalize_builds, 1u);
  std::remove(path.c_str());
}

TEST(SessionIoTest, SchemaSessionRoundTripRestoresPrimes) {
  Schema schema = Schema::PaperExampleSchema();
  const std::string path = TempPath("schema_session.tdls");

  Engine warm(schema);
  auto primes = warm.AllPrimes();
  ASSERT_TRUE(primes.ok()) << primes.status();
  RunStats save_run;
  ASSERT_TRUE(warm.SaveSession(path, &save_run).ok());
  EXPECT_EQ(save_run.artifact_saves, 2u);  // decomposition + primes memo

  // The load validates the decomposition against the schema's encoding, so
  // it pays the one encode build itself.
  Engine cold(schema);
  RunStats load_run;
  ASSERT_TRUE(cold.LoadSession(path, &load_run).ok());
  EXPECT_EQ(load_run.artifact_loads, 2u);
  EXPECT_EQ(load_run.encode_builds, 1u);
  EXPECT_EQ(load_run.td_builds, 0u);

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
  EXPECT_EQ(cold.CumulativeStats().encode_builds, 1u);
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
  // flip still decodes to a decomposition that validates against the graph —
  // a clean load. Never a crash, and never a wrong answer: after every
  // attempt the engine answers exactly like a fresh one.
  Engine fresh = Engine::FromGraph(graph);
  std::vector<Engine::SolveResult> truth;
  for (Engine::Problem problem : kAllProblems) {
    auto result = fresh.Solve(problem);
    ASSERT_TRUE(result.ok()) << result.status();
    truth.push_back(*result);
  }
  Rng flip_rng(TestSeed(1));
  for (int trial = 0; trial < 32; ++trial) {
    std::string bad = bytes;
    size_t pos = 16 + flip_rng.UniformIndex(bad.size() - 16);
    bad[pos] = static_cast<char>(bad[pos] ^ (1 << flip_rng.UniformIndex(8)));
    WriteFileBytes(path, bad);
    Engine cold = Engine::FromGraph(graph);
    Status loaded = cold.LoadSession(path);
    for (size_t i = 0; i < std::size(kAllProblems); ++i) {
      auto result = cold.Solve(kAllProblems[i]);
      ASSERT_TRUE(result.ok()) << result.status();
      // A different valid decomposition may pick a different optimal
      // witness; the answer itself must not change.
      EXPECT_EQ(result->feasible, truth[i].feasible)
          << "trial " << trial << " problem " << i << " load " << loaded;
      EXPECT_EQ(result->optimum, truth[i].optimum)
          << "trial " << trial << " problem " << i << " load " << loaded;
      EXPECT_EQ(result->count, truth[i].count)
          << "trial " << trial << " problem " << i << " load " << loaded;
    }
  }
  std::remove(path.c_str());
}

TEST(SessionIoTest, FailedLoadRestoresNothing) {
  // A file whose primes memo decodes fine but whose decomposition carries an
  // out-of-domain bag element must fail the load atomically: no artifact
  // (not even the valid-looking memo) may stick.
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
  ASSERT_TRUE(artifacts->primes.has_value());
  artifacts->td->SetBag(artifacts->td->root(), {0, 1, 999999});
  engine::SessionArtifactRefs refs;
  refs.td = &*artifacts->td;
  refs.primes = &*artifacts->primes;
  WriteFileBytes(path, engine::EncodeSessionFile(fingerprint, refs));

  Engine cold(schema);
  RunStats load_run;
  Status status = cold.LoadSession(path, &load_run);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(load_run.artifact_loads, 0u);
  EXPECT_EQ(load_run.encode_builds, 1u);  // built to validate against
  // Nothing file-derived stuck: the next query builds its own decomposition
  // and enumerates instead of answering from the memo.
  RunStats run;
  auto primes = cold.AllPrimes(&run);
  ASSERT_TRUE(primes.ok()) << primes.status();
  EXPECT_EQ(run.encode_builds, 0u);
  EXPECT_EQ(run.td_builds, 1u);
  EXPECT_EQ(run.normalize_builds, 1u);
  EXPECT_EQ(*primes, *warm.AllPrimes());
  std::remove(path.c_str());
}

TEST(SessionIoTest, PrimesMemoOfTheWrongLengthIsRejected) {
  Schema schema = Schema::PaperExampleSchema();
  const std::string path = TempPath("short_primes.tdls");
  std::vector<bool> short_memo(1, true);
  engine::SessionArtifactRefs refs;
  refs.primes = &short_memo;
  WriteFileBytes(path, engine::EncodeSessionFile(
                           Engine::FingerprintOf(schema), refs));

  Engine cold(schema);
  RunStats load_run;
  Status status = cold.LoadSession(path, &load_run);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("primes memo"), std::string::npos)
      << status.message();
  EXPECT_EQ(load_run.artifact_loads, 0u);
  Engine fresh(schema);
  EXPECT_EQ(*cold.AllPrimes(), *fresh.AllPrimes());
  std::remove(path.c_str());
}

TEST(SessionIoTest, UnknownSectionsAreSkipped) {
  // A same-version file carrying a section tag this reader does not know:
  // the known sections still load (forward compatibility within a version).
  {
    BinaryWriter payload;
    payload.Str("artifact from the future");
    BinaryWriter file = SessionHeader(0xfeedULL, 1);
    AppendRawSection(999, payload, &file);
    auto artifacts = engine::DecodeSessionFile(file.buffer(), 0xfeedULL);
    ASSERT_TRUE(artifacts.ok()) << artifacts.status();
    EXPECT_EQ(artifacts->Count(), 0u);
  }

  // Retired tags 2–6 (derived artifacts earlier builds wrote) are skipped
  // whatever their payload, between a decomposition and a primes memo that
  // both restore.
  TreeDecomposition td;
  TdNodeId root = td.AddNode({0, 1}, kNoTdNode);
  td.AddNode({1, 2}, root);
  const std::vector<bool> primes = {true, false, true};
  BinaryWriter file = SessionHeader(0xfeedULL, 7);
  {
    BinaryWriter payload;
    SerializeTreeDecomposition(td, &payload);
    AppendRawSection(1, payload, &file);
  }
  for (uint32_t tag = 2; tag <= 6; ++tag) {
    BinaryWriter payload;
    payload.U64(tag);
    payload.Str("retired artifact with bytes a decoder would not consume");
    AppendRawSection(tag, payload, &file);
  }
  {
    BinaryWriter payload;
    payload.U64(primes.size());
    for (bool p : primes) payload.U8(p ? 1 : 0);
    AppendRawSection(7, payload, &file);
  }
  auto artifacts = engine::DecodeSessionFile(file.buffer(), 0xfeedULL);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status();
  EXPECT_EQ(artifacts->Count(), 2u);
  ASSERT_TRUE(artifacts->td.has_value());
  EXPECT_EQ(artifacts->td->NumNodes(), 2u);
  EXPECT_EQ(artifacts->td->Bag(artifacts->td->root()),
            (std::vector<ElementId>{0, 1}));
  ASSERT_TRUE(artifacts->primes.has_value());
  EXPECT_EQ(*artifacts->primes, primes);
}

TEST(SessionIoTest, TamperedNormalFormSectionCannotChangeAnswers) {
  // K4 is not 3-colourable and its minimum vertex cover is 3. A session file
  // holding only a hand-encoded plain normal form (tag 3: one leaf, bag
  // {0, 1} — inside the domain, but no decomposition of K4) must not steer
  // the graph DPs: the section is retired, so the load skips it and the
  // session answers exactly like a fresh engine.
  Graph k4(4);
  for (int u = 0; u < 4; ++u) {
    for (int v = u + 1; v < 4; ++v) k4.AddEdge(u, v);
  }
  const std::string path = TempPath("k4_tampered.tdls");
  Engine fresh = Engine::FromGraph(k4);

  BinaryWriter ntd;
  ntd.U64(1);      // one node
  ntd.U8(0);       // NormNodeKind::kLeaf
  ntd.U32(0);      // element
  ntd.U64(2);      // bag {0, 1}
  ntd.U32(0);
  ntd.U32(1);
  ntd.U64(0);      // no children
  BinaryWriter file = SessionHeader(fresh.Fingerprint(), 1);
  AppendRawSection(
      static_cast<uint32_t>(engine::SessionSection::kRetiredPlainNormalizedTd),
      ntd, &file);
  ASSERT_EQ(file.buffer().size(), 24u + 49u);
  WriteFileBytes(path, file.buffer());

  Engine loaded = Engine::FromGraph(k4);
  RunStats load_run;
  Status status = loaded.LoadSession(path, &load_run);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(load_run.artifact_loads, 0u);
  for (Engine::Problem problem : kAllProblems) {
    auto got = loaded.Solve(problem);
    auto want = fresh.Solve(problem);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok()) << want.status();
    ExpectSameResult(*got, *want, "tampered K4 session");
  }
  auto color = loaded.Solve(Engine::Problem::kThreeColor);
  ASSERT_TRUE(color.ok());
  EXPECT_FALSE(color->feasible);
  auto cover = loaded.Solve(Engine::Problem::kVertexCover);
  ASSERT_TRUE(cover.ok());
  EXPECT_EQ(cover->optimum, 3);
  std::remove(path.c_str());
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
