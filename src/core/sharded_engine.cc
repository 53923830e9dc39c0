#include "core/sharded_engine.h"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace dash::core {

ShardedEngine::ShardedEngine(webapp::WebAppInfo app, FragmentIndexBuild build,
                             int num_shards, util::ThreadPool* pool)
    : ShardedEngine(IndexSnapshot::Create(std::move(app), std::move(build)),
                    num_shards, pool) {}

ShardedEngine::ShardedEngine(SnapshotPtr snapshot, int num_shards,
                             util::ThreadPool* pool)
    : snapshot_(std::move(snapshot)), pool_(pool) {
  if (num_shards < 1) {
    throw std::invalid_argument("need at least one shard");
  }
  if (snapshot_ == nullptr) {
    throw std::invalid_argument("ShardedEngine: snapshot must not be null");
  }
  shard_count_ = static_cast<std::size_t>(num_shards);
}

std::size_t ShardedEngine::shard_fragment_count(std::size_t shard) const {
  std::size_t count = 0;
  for (std::size_t f = 0; f < fragment_count(); ++f) {
    if (shard_of(static_cast<FragmentHandle>(f)) == shard) ++count;
  }
  return count;
}

std::vector<SearchResult> ShardedEngine::Search(
    const std::vector<std::string>& keywords, int k,
    std::uint64_t min_page_words, SearchDeadline* deadline) const {
  // Scatter: every shard computes its local top-k against the shared
  // snapshot, restricted to its own slice. IDF needs no correction —
  // GatherTerm always reports the global live df. Each task writes only
  // per_shard[s]; ParallelFor joins before the gather reads, so the merge
  // order is thread-count-free.
  std::vector<std::vector<SearchResult>> per_shard(shard_count_);
  pool().ParallelFor(shard_count_, [&](std::size_t s) {
    per_shard[s] = SearchShard(s, keywords, k, min_page_words, deadline);
  });
  return MergeShardResults(std::move(per_shard), k);
}

std::vector<SearchResult> ShardedEngine::SearchShard(
    std::size_t shard, const std::vector<std::string>& keywords, int k,
    std::uint64_t min_page_words, SearchDeadline* deadline) const {
  return snapshot_->Search(keywords, k, min_page_words, /*max_seeds=*/0,
                           deadline, slice(shard));
}

ShardTermStats ShardedEngine::TermStats(std::string token,
                                        std::size_t shard) const {
  ShardTermStats stats;
  // The span borrows this thread's gather scratch; reclaim it first so
  // repeated probes reuse one buffer instead of growing the scratch.
  IndexSnapshot::ReclaimGatherScratch();
  std::span<const Posting> span =
      snapshot_->GatherTerm(token, slice(shard)).postings;
  stats.df = span.size();
  for (const Posting& p : span) {
    stats.max_occurrences = std::max(stats.max_occurrences, p.occurrences);
  }
  stats.token = std::move(token);
  return stats;
}

std::vector<SearchResult> ShardedEngine::MergeShardResults(
    std::vector<std::vector<SearchResult>> per_shard, int k) {
  // Merge by score and keep k. Every shard reports *global* fragment
  // handles, and ascending handles == ascending identifier rows in a
  // canonical catalog, so sorting on (score desc, fragments asc)
  // reproduces exactly what an unsharded searcher reports (its own output
  // order uses the same key). Member sets never repeat across shards —
  // shards partition the fragments — so the key is unique.
  std::vector<SearchResult> merged;
  for (std::vector<SearchResult>& shard_results : per_shard) {
    for (SearchResult& r : shard_results) merged.push_back(std::move(r));
  }
  std::sort(merged.begin(), merged.end(),
            [](const SearchResult& a, const SearchResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.fragments < b.fragments;
            });
  if (k >= 0 && merged.size() > static_cast<std::size_t>(k)) {
    merged.resize(static_cast<std::size_t>(k));
  }
  return merged;
}

}  // namespace dash::core
