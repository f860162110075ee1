#include "engine/run_stats.hpp"

#include <sstream>


namespace treedl {

EngineCounters& GlobalEngineCounters() {
  static EngineCounters counters;
  return counters;
}

std::string RunStats::ToString() const {
  std::ostringstream out;
  out << "builds{encode=" << encode_builds << " td=" << td_builds
      << " normalize=" << normalize_builds << " cache_hits=" << cache_hits
      << "}";
  if (artifact_loads > 0 || artifact_saves > 0) {
    out << " session{loads=" << artifact_loads << " saves=" << artifact_saves
        << "}";
  }
  if (mso_compile_builds > 0) {
    out << " mso{compiles=" << mso_compile_builds << "}";
  }
  if (dp_states > 0) {
    out << " dp{states=" << dp_states
        << " max_per_node=" << dp_max_states_per_node;
    if (dp_traversals > 0) {
      out << " traversals=" << dp_traversals;
    }
    if (dp_shards > 0) {
      double slowest = dp_slowest_shard_millis;
      for (double ms : dp_shard_millis) slowest = slowest > ms ? slowest : ms;
      out << " shards=" << dp_shards << " slowest_shard=" << slowest << "ms";
    }
    if (dp_peak_table_bytes > 0) {
      out << " table_peak=" << dp_peak_table_bytes << "B";
    }
    if (dp_tables_evicted > 0) {
      out << " tables_evicted=" << dp_tables_evicted;
    }
    out << "}";
  }
  if (fixpoint_rounds > 0) {
    out << " eval{rounds=" << fixpoint_rounds << " derived=" << derived_facts
        << " rule_apps=" << rule_applications;
    if (fixpoint_rule_tasks > 0) {
      out << " rule_tasks=" << fixpoint_rule_tasks;
    }
    if (plan_compiles > 0) {
      out << " plans=" << plan_compiles
          << " dispatches=" << executor_dispatches;
    }
    out << "}";
  }
  if (primality_shards > 0) {
    out << " primality{shards=" << primality_shards << "}";
  }
  if (ground_clauses > 0) {
    out << " ground{clauses=" << ground_clauses << " atoms=" << ground_atoms
        << " guards=" << guard_instantiations << "}";
  }
  out << " total=" << total_millis << "ms";
  return out.str();
}

}  // namespace treedl
