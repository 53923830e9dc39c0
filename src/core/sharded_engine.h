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
// (and so the interned term dictionary), fragment graph, and app info.
// Nothing is deep-copied per shard. A shard is just a view: a per-fragment
// shard assignment plus, for every (term, shard) pair, a contiguous
// fragment-ascending slice of one rearranged posting pool. A shard's
// searcher resolves each term to a TermPlan of that slice and the global
// IDF (topk_search.h). Since the graph never crosses equality groups, a
// shard's searcher can probe the global structures and still stay
// entirely inside its slice. Scores are globally comparable for free: IDF
// comes from the shared global index.
//
// Scatter-gather runs on a persistent util::ThreadPool (per-query thread
// spawning costs more than a warm shard search). Results are independent
// of the pool size: each shard writes its own result slot and the gather
// merge is a deterministic sort.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/dash_engine.h"
#include "util/analysis_annotations.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
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
  // snapshot. Shard-view construction (a counting sort of the posting
  // pool) is distributed across `pool` (default: the process-wide shared
  // pool), which also serves Search's scatter phase.
  ShardedEngine(webapp::WebAppInfo app, FragmentIndexBuild build,
                int num_shards, util::ThreadPool* pool = nullptr);

  // Shares an already-published snapshot: no index state is copied at all.
  explicit ShardedEngine(SnapshotPtr snapshot, int num_shards,
                         util::ThreadPool* pool = nullptr);

  std::size_t shard_count() const { return shard_count_; }
  // Shard holding `fragment` (a handle into the shared snapshot catalog).
  std::size_t shard_of(FragmentHandle fragment) const {
    return shard_of_[fragment];
  }
  // Number of fragments assigned to `shard`.
  std::size_t shard_fragment_count(std::size_t shard) const {
    return shard_sizes_[shard];
  }
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
  // *shard node* (core/search_router.h): a node answering SearchShard for
  // its own shard index reproduces, after the router's MergePartials, the
  // single-process Search byte for byte. Runs on the calling thread (no
  // scatter, no pool).
  std::vector<SearchResult> SearchShard(std::size_t shard,
                                        const std::vector<std::string>& keywords,
                                        int k, std::uint64_t min_page_words,
                                        SearchDeadline* deadline = nullptr) const;

  // Per-(token, shard) statistics for router-side shard selection: the
  // document frequency of the normalized `token` within `shard` (how many
  // of the shard's fragments contain it) and the maximum per-fragment
  // occurrence count, both 0 for an unknown token. A shard whose df is 0
  // for every query term can be skipped exactly — no relevant fragment
  // means no seeds and hence an empty local top-k.
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
  // Fragment-ascending postings of `term` that live in `shard`.
  std::span<const Posting> SeedSpan(util::TermId term,
                                    std::size_t shard) const;

  util::ThreadPool& pool() const {
    return pool_ != nullptr ? *pool_ : util::ThreadPool::Shared();
  }

  SnapshotPtr snapshot_;
  // Multi-segment snapshots get their live state materialized once into a
  // single merged build (handles identical to the snapshot catalog's);
  // single-segment snapshots borrow their index directly. `index_` points
  // at whichever one applies — shard views always address one flat index.
  std::unique_ptr<const FragmentIndexBuild> owned_build_;
  const InvertedFragmentIndex* index_ = nullptr;
  std::size_t shard_count_ = 0;
  std::vector<std::uint32_t> shard_of_;    // fragment -> shard
  std::vector<std::size_t> shard_sizes_;   // shard -> fragment count
  // The index's by-fragment posting pool rearranged term-major, grouped by
  // shard, fragment-ascending within each group — every (term, shard) seed
  // span is one contiguous slice. Same total size as the source pool, so
  // sharding costs one pool regardless of N.
  std::vector<Posting> seed_pool_;
  // (shard_count_ + 1) offsets per term into seed_pool_: entry s is the
  // start of term's shard-s group, entry shard_count_ its end.
  std::vector<std::uint32_t> seed_offsets_;
  util::ThreadPool* pool_ = nullptr;  // not owned; nullptr = shared pool
};

// The ShardedEngine view of the served snapshot, built lazily and cached
// per generation (a republication invalidates by generation mismatch).
// Both sharded serving shapes own one: SearchService and ShardNode.
// The build is a ParallelFor counting sort, i.e. it blocks on the shared
// pool, so For double-checks under the mutex and builds OUTSIDE it:
// dash_analyze's lock-block rule rejects holding a mutex across the
// build, and a slow build must not stall requests that could still serve
// the previous view. Several requests racing a republication may each
// build once; the newest generation wins the slot and the rest are
// dropped when their temporary refcount drains.
class ShardViewCache {
 public:
  explicit ShardViewCache(int num_shards) : num_shards_(num_shards) {}

  // The view of `snapshot`'s generation — always the caller's pinned
  // generation, even when the slot already holds a newer one, so a
  // response's X-Dash-Generation matches the snapshot it searched.
  std::shared_ptr<const ShardedEngine> For(const SnapshotPtr& snapshot)
      DASH_EXCLUDES(mutex_);

  // Installs `view` unless the slot already holds the same or a newer
  // generation. Lets a test cluster share ONE pre-built view across all
  // in-sync replicas instead of building shards×replicas identical ones.
  void Install(std::shared_ptr<const ShardedEngine> view)
      DASH_EXCLUDES(mutex_);

 private:
  const int num_shards_;
  util::Mutex mutex_;
  std::shared_ptr<const ShardedEngine> view_ DASH_GUARDED_BY(mutex_);
};

}  // namespace dash::core
