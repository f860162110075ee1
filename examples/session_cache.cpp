// Persistent sessions + the SolveAll batch: warm an Engine, SaveSession()
// it, then show a "restarted" process restoring its tree decomposition with
// LoadSession() and answering all five Solve problems via one SolveAll call
// — zero decomposition builds; the normal form is derived from the restored
// decomposition once, on first use.
//
// CI runs this end-to-end (alongside quickstart); any failure exits
// non-zero.
#include <cstdio>
#include <iostream>

#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace treedl;

  // A deterministic width-3 instance standing in for "the nightly input".
  Rng rng(2007);
  Graph graph = RandomPartialKTree(/*n=*/80, /*k=*/3, /*keep_probability=*/0.7,
                                   &rng);
  EngineOptions options;
  options.num_threads = 4;
  const std::string path = "session_cache_example.tdls";

  // --- Process 1: pay for the artifacts once, batch the queries, save. ----
  Engine warm = Engine::FromGraph(graph, options);
  RunStats first;
  auto all = warm.SolveAll(&first);
  if (!all.ok()) {
    std::cerr << "SolveAll failed: " << all.status() << "\n";
    return 1;
  }
  std::cout << "SolveAll (" << first.dp_traversals << " DP walks, "
            << first.dp_shards << " shards):\n"
            << "  3-colorable:          "
            << (all->three_colorable ? "yes" : "no") << "\n"
            << "  #3-colorings:         " << all->three_colorings << "\n"
            << "  min vertex cover:     " << all->min_vertex_cover << "\n"
            << "  max independent set:  " << all->max_independent_set << "\n"
            << "  min dominating set:   " << all->min_dominating_set << "\n"
            << "  stats: " << first.ToString() << "\n\n";

  RunStats save_run;
  Status saved = warm.SaveSession(path, &save_run);
  if (!saved.ok()) {
    std::cerr << "SaveSession failed: " << saved << "\n";
    return 1;
  }
  std::cout << "Saved " << save_run.artifact_saves << " artifacts to " << path
            << "\n\n";

  // --- Process 2 (simulated restart): restore instead of rebuild. --------
  Engine cold = Engine::FromGraph(graph, options);
  RunStats load_run;
  Status loaded = cold.LoadSession(path, &load_run);
  if (!loaded.ok()) {
    std::cerr << "LoadSession failed: " << loaded << "\n";
    return 1;
  }
  std::cout << "Restored " << load_run.artifact_loads
            << " artifacts (builds during load: encode="
            << load_run.encode_builds << " td=" << load_run.td_builds
            << " normalize=" << load_run.normalize_builds << ")\n";

  RunStats second;
  auto restored = cold.SolveAll(&second);
  if (!restored.ok()) {
    std::cerr << "SolveAll after load failed: " << restored.status() << "\n";
    return 1;
  }
  std::cout << "SolveAll after restart: td_builds=" << second.td_builds
            << " normalize_builds=" << second.normalize_builds
            << " cache_hits=" << second.cache_hits << "\n";

  bool identical = restored->three_colorable == all->three_colorable &&
                   restored->three_colorings == all->three_colorings &&
                   restored->min_vertex_cover == all->min_vertex_cover &&
                   restored->max_independent_set == all->max_independent_set &&
                   restored->min_dominating_set == all->min_dominating_set;
  bool zero_td_builds = second.td_builds == 0 &&
                        second.normalize_builds == 1 &&
                        second.encode_builds == 0;
  std::remove(path.c_str());
  if (!identical || !zero_td_builds) {
    std::cerr << "FAILED: answers diverged or the restored session rebuilt "
                 "its decomposition\n";
    return 1;
  }
  std::cout << "\nOK: identical answers, zero decomposition builds after "
               "restore.\n";
  return 0;
}
