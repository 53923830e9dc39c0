// The serving tier: keyword search over the snapshot core, spoken over
// HTTP (DESIGN.md §12).
//
// Splits into a transport-free service and a thin server shell:
//
//   SearchService — maps one HttpRequest to one HttpResponse against
//     whatever IndexSnapshot is currently published. Implements the
//     /search, /stats and /healthz endpoints, the per-request deadline
//     (504 with the safe partial top-k), the generation-keyed result
//     cache, and optional sharded scatter-gather serving. It holds no
//     sockets and no threads, so tests and oracles can call Handle()
//     directly, and the same instance can sit behind any transport.
//
//   SearchServer — SearchService behind a webapp::HttpServer (worker
//     pool + bounded admission queue with 503 shedding). One object is a
//     complete search node: point it at a SnapshotPublisher (live
//     updates) or a single snapshot, Start(), and query the port.
//
// Request grammar (all parameters URL-encoded; ParseSearchQuery):
//   GET /search?q=<kw>[&q=<kw>...]&k=<int>&s=<int>   top-k search
//   GET /stats                                        counters as JSON
//   GET /healthz                                      liveness probe
//
// /search answers 200 with the canonical result rendering (one line per
// db-page; RenderResults — the byte-exact format the server≡engine oracle
// compares), 400 on a malformed query, 503 before the first snapshot is
// published, and 504 when the request's deadline expired mid-search (the
// body then carries the partial top-k found within budget, plus an
// X-Dash-Partial header). Every /search response names the snapshot
// generation it served from in X-Dash-Generation — generations a client
// observes are monotone because publication is (index_snapshot.h).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/index_snapshot.h"
#include "core/result_cache.h"
#include "core/sharded_engine.h"
#include "util/analysis_annotations.h"
#include "util/histogram.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "webapp/http_server.h"

namespace dash::core {

struct ServeOptions {
  int num_workers = 4;              // HTTP worker threads
  std::size_t queue_capacity = 64;  // admission queue bound
  int retry_after_seconds = 1;      // Retry-After on 503
  int deadline_ms = 0;              // per-request budget; 0 = unlimited
  std::size_t cache_capacity = 0;   // result-cache entries; 0 = cache off
  int shards = 0;                   // sharded scatter-gather; 0 = unsharded
  // Shard-node mode (core/search_router.h): when >= 0 (with shards > 0)
  // this node serves ONLY shard `shard_index` of `shards` — /search
  // answers the local top-k of that slice (one scatter leg), and
  // /shardstats reports the slice's per-term df/max-occurrence statistics.
  // -1 = whole-index serving.
  int shard_index = -1;
  int default_k = 10;               // k when the query omits it
  std::uint64_t default_s = 0;      // s (min page words) when omitted
  int port = 0;                     // 0 = ephemeral
  // Test hook: artificial delay (per /search request, before the engine
  // runs) so overload tests can hold workers busy deterministically.
  // Production configurations leave it 0.
  int debug_delay_ms = 0;
};

// A plain-text response: the body type of every endpoint but /stats.
webapp::HttpResponse TextResponse(int status, std::string body);

// One /search request, parsed.
struct SearchQuery {
  std::vector<std::string> keywords;  // one per q= value, verbatim
  int k = 0;
  std::uint64_t min_page_words = 0;  // s
};

// The /search parameter grammar, shared by every node that answers
// /search (SearchService, RouterService): each q= value is one keyword
// string, handed to the engine verbatim (the engine tokenizes, exactly as
// a direct Search call would); k in [1, 100000] and s in [0, 2^62]
// default to `default_k` / `default_s`; unknown fields are ignored
// (standard web behavior). Returns nullptr with `*query` filled, or the
// 400 body for a malformed request.
const char* ParseSearchQuery(const webapp::HttpRequest& request,
                             int default_k, std::uint64_t default_s,
                             SearchQuery* query);

// Point-in-time serving counters (/stats renders these as JSON).
struct ServeCounters {
  std::uint64_t generation = 0;  // currently served snapshot generation
  std::uint64_t requests_total = 0;
  std::uint64_t ok = 0;               // 200
  std::uint64_t bad_request = 0;      // 400
  std::uint64_t not_found = 0;        // 404
  std::uint64_t unavailable = 0;      // 503 (no snapshot published yet)
  std::uint64_t gateway_timeout = 0;  // 504 (deadline expired)
  std::uint64_t searches = 0;         // engine searches actually executed
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  // Cache entries dropped because a newer snapshot generation superseded
  // them (lazy Lookup evictions + eager PurgeSuperseded sweeps) — the
  // write-traffic pressure on the cache.
  std::uint64_t cache_evicted_superseded = 0;
  // /search latency, admission to response, microseconds.
  std::uint64_t latency_count = 0;
  std::uint64_t latency_p50_us = 0;
  std::uint64_t latency_p99_us = 0;
  std::uint64_t latency_p999_us = 0;
  std::uint64_t latency_max_us = 0;
};

class SearchService {
 public:
  // Serves whatever `publisher` currently publishes; the publisher must
  // outlive the service. Publications are picked up per request — no
  // restart, no invalidation call (the cache keys on generation).
  SearchService(const SnapshotPublisher& publisher,
                const ServeOptions& options);

  // Transport entry point; signature matches webapp::HttpServer::Handler.
  // `admitted` anchors the request's deadline (time queued counts).
  webapp::HttpResponse Handle(const webapp::HttpRequest& request,
                              std::chrono::steady_clock::time_point admitted);

  ServeCounters counters() const;
  const ServeOptions& options() const { return options_; }

  // Transport stats woven into /stats when set (SearchServer wires this
  // to its HttpServer). The callable must be thread-safe; the slot itself
  // is guarded because a test may (re)wire it while workers serve /stats.
  void set_transport_stats(
      std::function<webapp::HttpServer::Stats()> provider)
      DASH_EXCLUDES(stats_mutex_) {
    util::MutexLock lock(stats_mutex_);
    transport_stats_ = std::move(provider);
  }

  // Canonical, locale-free rendering of a result list — one "R" line per
  // db-page: score (%.17g, round-trip exact), word count, URL, member
  // fragment handles, and parameters ("name=value;..."). The URL and the
  // parameters are percent-encoded ("%xx") in exactly the bytes that would
  // break the format: '%', TAB, CR and LF anywhere, ';' and '=' in names,
  // ';' in values; all other bytes pass through. This is the /search
  // response body format AND the comparison key of the server≡engine
  // oracle: a server answer must equal RenderResults of the direct engine
  // answer, byte for byte.
  static std::string RenderResults(const std::vector<SearchResult>& results);

  // Exact inverse of RenderResults: the decode a router applies to every
  // shard reply, in-process or over HTTP. Because scores render as %.17g
  // (round-trip exact) and the remaining fields are integers or escaped
  // strings, ParseRenderedResults(RenderResults(r)) == r for every result
  // list, whatever bytes its URLs and parameters hold, and
  // RenderResults(ParseRenderedResults(body)) == body for every body
  // RenderResults can produce. The body is untrusted: returns nullopt on
  // any malformed line, a malformed "%xx" escape, a count beyond the lines
  // present, a non-finite score, or trailing bytes.
  static std::optional<std::vector<SearchResult>> ParseRenderedResults(
      const std::string& body);

  // Wired by the owner of an UpdatableIndex (or any compacting builder) so
  // /stats can surface the compaction count next to the snapshot's segment
  // count. The callable must be thread-safe.
  void set_compactions_provider(std::function<std::uint64_t()> provider)
      DASH_EXCLUDES(stats_mutex_) {
    util::MutexLock lock(stats_mutex_);
    compactions_ = std::move(provider);
  }

 private:
  // The /search fast path: parse, snapshot pin, cache probe, render.
  // DASH_HOT_PATH — dash_analyze proves it never allocates via new/
  // make_*, locks, logs, or blocks outside the two audited allowances
  // (the cache probe's own mutex, the top-k payload arena).
  webapp::HttpResponse HandleSearch(
      const webapp::HttpRequest& request,
      std::chrono::steady_clock::time_point admitted) DASH_HOT_PATH;
  webapp::HttpResponse HandleStats() DASH_EXCLUDES(stats_mutex_);
  // Shard-node statistics endpoint (/shardstats?q=...): per normalized
  // token, this shard's df and max occurrence count, for inspecting a
  // slice. The router does not call it: each leg is one /search. 400
  // outside shard-node mode.
  webapp::HttpResponse HandleShardStats(const webapp::HttpRequest& request);

  // The sanctioned slow path: everything a cache miss is allowed to do —
  // the debug delay, the engine search (sharded or not) and the cache
  // fill. DASH_COLD_PATH stops the hot-path purity walk
  // here; dash_analyze lists the boundary in its audit summary.
  std::vector<SearchResult> ExecuteSearch(const SnapshotPtr& snapshot,
                                          const std::vector<std::string>& keywords,
                                          int k, std::uint64_t min_page_words,
                                          SearchDeadline* deadline)
      DASH_COLD_PATH;

  const SnapshotPublisher* const publisher_;
  const ServeOptions options_;
  const std::unique_ptr<ResultCache> cache_;  // null when cache off

  mutable util::Mutex stats_mutex_;
  std::function<webapp::HttpServer::Stats()> transport_stats_
      DASH_GUARDED_BY(stats_mutex_);
  std::function<std::uint64_t()> compactions_ DASH_GUARDED_BY(stats_mutex_);

  // Highest generation the cache has been purged for (ExecuteSearch
  // sweeps superseded entries once per observed generation change, on the
  // cold path). Atomic CAS so concurrent misses purge exactly once.
  std::atomic<std::uint64_t> purged_generation_{0};

  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> bad_request_{0};
  std::atomic<std::uint64_t> not_found_{0};
  std::atomic<std::uint64_t> unavailable_{0};
  std::atomic<std::uint64_t> gateway_timeout_{0};
  std::atomic<std::uint64_t> searches_{0};
  util::LatencyHistogram latency_;
};

// A complete search node: service + HTTP transport.
class SearchServer {
 public:
  // Follows a live publication point (e.g. UpdatableIndex::publisher()).
  SearchServer(const SnapshotPublisher& publisher, ServeOptions options);

  // Serves one fixed snapshot (owns an internal publisher for it).
  SearchServer(SnapshotPtr snapshot, ServeOptions options);

  ~SearchServer();

  void Start();  // throws std::runtime_error when the port cannot be bound
  void Stop();
  int port() const { return http_->port(); }
  bool running() const { return http_->running(); }

  SearchService& service() { return *service_; }
  webapp::HttpServer::Stats transport_stats() const { return http_->stats(); }

 private:
  void Init(const SnapshotPublisher& publisher, const ServeOptions& options);

  std::unique_ptr<SnapshotPublisher> owned_publisher_;  // fixed-snapshot form
  std::unique_ptr<SearchService> service_;
  std::unique_ptr<webapp::HttpServer> http_;
};

}  // namespace dash::core
