// Differential oracles and metamorphic invariants for generated instances.
//
// Three independent answer paths are cross-checked on every instance:
//
//   1. brute force — fragments re-derived and re-tokenized from the joined
//      rows, pages re-materialized through Crawler::EvalPage from the URL
//      a result advertises, and TF/IDF recomputed from raw token counts;
//   2. the "intuitive" whole-page baseline (baseline::PageEngine);
//   3. the fragment-index engine under test (core::DashEngine).
//
// plus seven metamorphic invariants: SW crawl == INT crawl == reference,
// incremental UpdatableIndex == full rebuild, publish-then-search ==
// search-then-publish (a snapshot captured before an incremental update
// answers probes byte-identically after its successor publishes, and
// generations strictly increase), ShardedEngine == unsharded,
// serialized-then-loaded == in-memory, fragment-graph edges == the
// definition-checked empty-box combinability test, HTTP server == engine
// (a core::SearchServer over the same snapshot answers every query
// byte-identically to the direct engine call, over a real socket), and
// the replicated-shard cluster invariants: router over N shard nodes ==
// ShardedEngine byte-for-byte at zero failures, and == the exact merge
// of the survivors with f shards killed (bounded degradation). Every
// sweep query and every mixed-writes step also checks the lazily seeded
// top-k walk against the eager reference walk (reference_topk.h), byte
// for byte, on the whole snapshot and on its shard slices.
//
// Exactness boundaries (see DESIGN.md §9): top-k lists are compared
// exactly (score, URL, members) for instances with <= 1 range attribute,
// where db-pages are intervals and hence box-closed; with 2 range
// attributes the repo's documented page model is "members within the
// parameter box, connected in the graph", so the URL-replay check demands
// containment rather than equality there.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "testing/instance_gen.h"

namespace dash::testing {

struct OracleOptions {
  int queries_per_instance = 5;
  int update_ops = 3;              // UpdatableIndex insert/delete mutations
  std::vector<int> shard_counts = {2, 5};
  // Skip the O(n^3) brute-force graph check past this catalog size.
  std::size_t max_graph_brute_fragments = 400;
  bool check_crawl_equivalence = true;
  bool check_graph = true;
  bool check_search = true;
  bool check_page_engine = true;
  bool check_sharded = true;
  bool check_save_load = true;
  bool check_updates = true;
  // Sustained interleaved insert/delete/search against the segmented
  // UpdatableIndex, checking the segment-merge invariants after every op
  // (merge(A,B) ≡ rebuild(A∪B); tombstone-then-search ≡
  // search-without-doc). Off by default — it full-rebuilds per op, so
  // dash_fuzz enables it behind --mixed-writes.
  bool check_mixed_writes = false;
  int mixed_write_ops = 6;
  // HTTP server == engine over a loopback socket; skipped silently when
  // the environment forbids binding 127.0.0.1.
  bool check_server = true;
  int server_queries = 4;
  // Replicated-shard cluster (testing/chaos.h TestCluster, in-process):
  // with zero injected failures the router answers byte-identically to
  // the single-process ShardedEngine with full coverage; with f dead
  // shards the answer is exactly the merge of the surviving shards'
  // local top-k lists and the coverage header reports (t-f)/t.
  bool check_cluster = true;
  int cluster_queries = 4;
  int cluster_shards = 3;
};

struct OracleReport {
  std::vector<std::string> mismatches;  // empty == all oracles agree

  bool ok() const { return mismatches.empty(); }
  std::string ToString() const;
};

// Runs every enabled oracle on `inst`. `query_seed` drives the random
// search/update workload, independently of the instance seed so one
// instance can be probed with many workloads.
OracleReport CheckInstance(const RandomInstance& inst,
                           std::uint64_t query_seed,
                           const OracleOptions& options = {});

}  // namespace dash::testing
