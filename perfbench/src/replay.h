// Layer-by-layer replay of one /search request for the traced run.
//
// The engine has no tracing of its own, so the traced run re-issues each
// request through the public functions of every layer on the serving path,
// in the order SearchService runs them, with a span around each call:
//
//   service.parse      webapp::ParseUrl + ParseQueryParams
//   cache.lookup       core::ResultCache::Lookup            (cache on)
//   sharded.search     scatter: ShardedEngine::SearchShard per shard
//     sharded.shard_search   (one per shard, run one after another)
//     sharded.merge          ShardedEngine::MergeShardResults
//   topk.search        core::TopKSearcher::Search (plan-driven)
//     snapshot.gather        per query term: the term plan the searcher
//                            asks for (IndexSnapshot::GatherTerm on a
//                            multi-segment snapshot, the index's own span
//                            on a single-segment one)
//   service.render     SearchService::RenderResults
//
// The plan-driven searcher resolves terms exactly as IndexSnapshot::Search
// does, so its answer must be byte-identical to the server's; the caller
// checks that on every request.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/index_snapshot.h"
#include "core/result_cache.h"
#include "core/search_server.h"
#include "core/sharded_engine.h"
#include "core/topk_search.h"
#include "trace.h"
#include "util/string_util.h"
#include "webapp/http.h"

namespace perfbench {

// Deterministic work counted by one replay pass.
struct ReplayCounters {
  std::uint64_t requests = 0;
  std::uint64_t searches = 0;       // engine searches run (cache misses)
  std::uint64_t postings_read = 0;  // sum of TermPlan.postings.size()
  std::uint64_t results = 0;        // pages returned by the engine
  std::uint64_t segments_max = 0;   // snapshot segment count at query time

  bool operator==(const ReplayCounters&) const = default;
};

class Replayer {
 public:
  // `cache_capacity` 0 = no cache; `shards` 0 = unsharded.
  Replayer(Tracer& tracer, const dash::core::SnapshotPublisher& publisher,
           std::size_t cache_capacity, int shards)
      : tracer_(tracer),
        publisher_(publisher),
        shards_(shards),
        cache_(cache_capacity > 0
                   ? std::make_unique<dash::core::ResultCache>(cache_capacity)
                   : nullptr) {}

  // Replays `target` under span `parent` and returns the rendered body.
  // With `topk_beside_shards`, a sharded request also runs the unsharded
  // plan-driven search as a sibling span (off the served path) so the
  // top-k layer is timed on that workload's query mix too.
  std::string Replay(const std::string& target, std::uint64_t request,
                     std::int32_t parent, bool topk_beside_shards) {
    ++counters_.requests;
    std::vector<std::string> keywords;
    std::int64_t k = 10;
    std::int64_t s = 0;
    {
      ScopedSpan span(tracer_, "service.parse", parent, request);
      dash::webapp::HttpRequest parsed = dash::webapp::ParseUrl(target);
      for (auto& [field, value] :
           dash::webapp::ParseQueryParams(parsed.EffectiveQueryString())) {
        if (field == "q") {
          keywords.push_back(std::move(value));
        } else if (field == "k") {
          dash::util::ParseInt64(value, &k);
        } else if (field == "s") {
          dash::util::ParseInt64(value, &s);
        }
      }
    }
    const auto ki = static_cast<int>(k);
    const auto si = static_cast<std::uint64_t>(s);
    dash::core::SnapshotPtr snapshot = publisher_.Current();
    counters_.segments_max =
        std::max<std::uint64_t>(counters_.segments_max, snapshot->segment_count());

    std::vector<dash::core::SearchResult> results;
    bool hit = false;
    if (cache_ != nullptr) {
      ScopedSpan span(tracer_, "cache.lookup", parent, request);
      if (auto cached =
              cache_->Lookup(keywords, ki, si, snapshot->generation())) {
        results = std::move(*cached);
        hit = true;
      }
    }
    if (!hit) {
      ++counters_.searches;
      if (shards_ > 0) {
        results = Sharded(snapshot, keywords, ki, si, request, parent);
      } else {
        results = TopK(*snapshot, keywords, ki, si, request, parent);
      }
      counters_.results += results.size();
      if (cache_ != nullptr) {
        cache_->Insert(keywords, ki, si, snapshot->generation(), results);
      }
    }
    if (shards_ > 0 && topk_beside_shards) {
      TopK(*snapshot, keywords, ki, si, request, parent);
    }
    ScopedSpan span(tracer_, "service.render", parent, request);
    return dash::core::SearchService::RenderResults(results);
  }

  const ReplayCounters& counters() const { return counters_; }

 private:
  std::vector<dash::core::SearchResult> TopK(
      const dash::core::IndexSnapshot& snapshot,
      const std::vector<std::string>& keywords, int k, std::uint64_t s,
      std::uint64_t request, std::int32_t parent) {
    if (snapshot.segment_count() > 1) {
      // GatherTerm hands out thread-local scratch that only
      // IndexSnapshot::Search reclaims; an empty query reclaims it without
      // searching.
      snapshot.Search({}, 1, 0);
    }
    ScopedSpan span(tracer_, "topk.search", parent, request);
    const std::int32_t topk = span.id();
    dash::core::TopKSearcher searcher(
        [&](std::string_view token) {
          ScopedSpan gather(tracer_, "snapshot.gather", topk, request);
          dash::core::TermPlan plan = ResolveTerm(snapshot, token);
          counters_.postings_read += plan.postings.size();
          return plan;
        },
        snapshot.catalog(), snapshot.graph(), snapshot.selection(),
        snapshot.has_app() ? &snapshot.app() : nullptr);
    return searcher.Search(keywords, k, s);
  }

  static dash::core::TermPlan ResolveTerm(
      const dash::core::IndexSnapshot& snapshot, std::string_view token) {
    if (snapshot.segment_count() > 1) return snapshot.GatherTerm(token);
    const dash::core::InvertedFragmentIndex& index = snapshot.index();
    dash::util::TermId id = index.FindTerm(token);
    return dash::core::TermPlan{index.IdfId(id), index.PostingsByFragment(id)};
  }

  std::vector<dash::core::SearchResult> Sharded(
      const dash::core::SnapshotPtr& snapshot,
      const std::vector<std::string>& keywords, int k, std::uint64_t s,
      std::uint64_t request, std::int32_t parent) {
    if (sharded_ == nullptr || sharded_->snapshot() != snapshot) {
      ScopedSpan span(tracer_, "sharded.view_build", parent, request);
      sharded_ = std::make_unique<dash::core::ShardedEngine>(snapshot, shards_);
    }
    ScopedSpan span(tracer_, "sharded.search", parent, request);
    std::vector<std::vector<dash::core::SearchResult>> per_shard(
        sharded_->shard_count());
    for (std::size_t shard = 0; shard < per_shard.size(); ++shard) {
      ScopedSpan leg(tracer_, "sharded.shard_search", span.id(), request);
      per_shard[shard] = sharded_->SearchShard(shard, keywords, k, s);
    }
    ScopedSpan merge(tracer_, "sharded.merge", span.id(), request);
    return dash::core::ShardedEngine::MergeShardResults(std::move(per_shard), k);
  }

  Tracer& tracer_;
  const dash::core::SnapshotPublisher& publisher_;
  const int shards_;
  std::unique_ptr<dash::core::ResultCache> cache_;
  std::unique_ptr<dash::core::ShardedEngine> sharded_;
  ReplayCounters counters_;
};

}  // namespace perfbench
