// Sharded serving of the fragment index — scatter-gather top-k.
//
// Dash is built for cluster deployment (its crawl/index pipelines are
// MapReduce jobs); this is the serving-side counterpart: the fragment
// index partitioned across N shards so each node searches a slice.
//
// Partitioning is by *equality group*: fragments sharing an equality-value
// prefix are assigned to the same shard (hash of the prefix modulo N).
// That invariant is what makes sharding faithful — a db-page can only
// combine fragments within one equality group (Section VI-A), so every
// candidate page is assembled entirely inside a single shard, and merging
// the per-shard top-k lists by score reproduces the global top-k (exactly
// so whenever page scores are monotone under expansion; see the
// monotonicity note in topk_search.h for the edge case).
//
// All shards share ONE immutable IndexSnapshot — catalog, inverted index
// (and so the interned term dictionary), fragment graph, and app info —
// and a shard owns no state of its own: shard i of N is the slice of the
// snapshot whose equality groups the graph assigns to i
// (FragmentGraph::ShardOf). IndexSnapshot::GatherTerm applies that filter
// when it resolves a term, over one segment or many, so a shard's searcher
// seeds only its own fragments and, since the graph never crosses
// equality groups, stays entirely inside its slice. Scores are globally
// comparable for free: the IDF is always the snapshot's global live df.
// Constructing a view therefore builds and allocates nothing; serving
// layers make one per request.
//
// Scatter-gather runs on a persistent util::ThreadPool (per-query thread
// spawning costs more than a warm shard search). Results are independent
// of the pool size: each shard writes its own result slot and the gather
// merge is a deterministic sort. Search stays this direct in-process
// scatter rather than a SearchRouter over in-process shard nodes: it is
// what a sharded SearchServer runs per request, and a router would add a
// future, a keyword copy, a replica sort and a request render and decode
// per leg.
// The two share the gather: MergeShardResults is also the router's merge,
// over whichever shards answered.
#pragma once

#include <string>
#include <vector>

#include "core/dash_engine.h"
#include "util/analysis_annotations.h"
#include "util/thread_pool.h"

namespace dash::core {

// Per-token statistics of one shard slice (one /shardstats line).
struct ShardTermStats {
  std::string token;               // normalized query token
  std::uint64_t df = 0;            // fragments of this shard containing it
  std::uint32_t max_occurrences = 0;  // max per-fragment occurrence count
};

class ShardedEngine {
 public:
  // Partitions the build into `num_shards` shard views over one shared
  // snapshot. `pool` (default: the process-wide shared pool) serves
  // Search's scatter phase.
  ShardedEngine(webapp::WebAppInfo app, FragmentIndexBuild build,
                int num_shards, util::ThreadPool* pool = nullptr);

  // Shares an already-published snapshot: nothing is copied or built.
  explicit ShardedEngine(SnapshotPtr snapshot, int num_shards,
                         util::ThreadPool* pool = nullptr);

  std::size_t shard_count() const { return shard_count_; }
  // Shard holding `fragment` (a handle into the shared snapshot catalog).
  std::size_t shard_of(FragmentHandle fragment) const {
    return snapshot_->graph().ShardOf(fragment, shard_count_);
  }
  // Number of fragments assigned to `shard` (a walk over the catalog).
  std::size_t shard_fragment_count(std::size_t shard) const;
  // The snapshot all shards serve from.
  const SnapshotPtr& snapshot() const { return snapshot_; }

  // Exact global top-k: scatter to all shards, gather, merge by score.
  // `deadline` (optional) is shared by all shard searchers: on expiry each
  // shard contributes its safe partial list and the merged result is a
  // valid — possibly shorter — top-k.
  std::vector<SearchResult> Search(const std::vector<std::string>& keywords,
                                   int k, std::uint64_t min_page_words,
                                   SearchDeadline* deadline = nullptr) const;

  // One scatter leg: the local top-k of `shard` alone — exactly what that
  // shard contributes to Search's gather. This is the serving entry of a
  // *shard node* (a SearchService in shard-node mode, core/search_router.h):
  // nodes answering SearchShard for their own shard indexes reproduce,
  // after the router's MergeShardResults, the single-process Search byte
  // for byte. Runs on the calling thread (no scatter, no pool).
  std::vector<SearchResult> SearchShard(std::size_t shard,
                                        const std::vector<std::string>& keywords,
                                        int k, std::uint64_t min_page_words,
                                        SearchDeadline* deadline = nullptr) const;

  // Per-(token, shard) statistics, the body of a shard node's /shardstats:
  // the document frequency of the normalized `token` within `shard` (how
  // many of the shard's fragments contain it) and the maximum per-fragment
  // occurrence count, both 0 for an unknown token. A shard whose df is 0
  // for every query term has an empty local top-k — no relevant fragment
  // means no seeds. Like a Search, it reclaims the calling thread's gather
  // scratch.
  ShardTermStats TermStats(std::string token, std::size_t shard) const;

  // Gather half of Search: merges per-shard top-k lists by (score desc,
  // fragments asc) and truncates to k. Pure compute on already-materialized
  // results — dash_analyze enforces DASH_HOT_PATH purity here (the scatter
  // half blocks in ParallelFor and is deliberately outside the contract).
  static std::vector<SearchResult> MergeShardResults(
      std::vector<std::vector<SearchResult>> per_shard, int k) DASH_HOT_PATH;

  // Total fragments across shards (== the snapshot's catalog size).
  std::size_t fragment_count() const { return snapshot_->catalog().size(); }

 private:
  ShardSlice slice(std::size_t shard) const { return {shard, shard_count_}; }
  util::ThreadPool& pool() const {
    return pool_ != nullptr ? *pool_ : util::ThreadPool::Shared();
  }

  SnapshotPtr snapshot_;
  std::size_t shard_count_ = 0;
  util::ThreadPool* pool_ = nullptr;  // not owned; nullptr = shared pool
};

}  // namespace dash::core
