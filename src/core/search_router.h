// Replicated-shard serving: the router tier (DESIGN.md §15).
//
// The paper's MapReduce formulation assumes the index lives on many
// nodes; this module lifts the single-process scatter-gather of
// core/sharded_engine.h into a three-role cluster:
//
//   shard node — a SearchService in shard-node mode (ServeOptions::
//     shard_index >= 0): it owns its own SnapshotPublisher, answers
//     /search with the local top-k of ONE fragment slice, reports its
//     slice's per-term statistics on /shardstats, and advances its
//     generation independently of every other node. There is no other
//     shard-node implementation: an in-process cluster calls the node's
//     Handle, a networked one reaches it over HTTP, and both decode the
//     same reply bytes (HttpShardTransport).
//
//   router — SearchRouter scatter-gathers one query across all shards.
//     Per shard it picks ONE replica by a health/latency score (EWMA
//     latency × an exponential consecutive-failure penalty), fails over
//     to the next replica on transport failure, enforces a per-shard
//     deadline, and merges whatever answered with ShardedEngine::
//     MergeShardResults, which never assumed every shard is present (its
//     key is unique and order-insensitive). RouterService puts the router
//     behind the same /search grammar (ParseSearchQuery) and rendering
//     SearchService uses for a single node.
//
//   chaos — testing/chaos.h wraps ShardTransports to inject crashes,
//     stragglers, and stale-generation replicas deterministically from a
//     seed; the router must degrade exactly as this header specifies.
//
// Degradation contract: a query over t shards with a answering returns
// precisely MergeShardResults of the answering shards' local top-k lists.
// With a == t that is byte-identical to ShardedEngine::Search (the
// cluster≡engine oracle); with a < t it is the best possible answer from
// the surviving shards (the bounded-degradation oracle), never an error.
// Every router response carries coverage and skew headers:
//
//   X-Dash-Shards-Answered: <a>/<t>     always
//   X-Dash-Degraded: 1                  when a < t
//   X-Dash-Generation-Min / -Max        over the answering replicas —
//     replicas advance independently, so one response may mix
//     generations; min==max certifies a consistent snapshot view.
//
// One request per leg: every leg is exactly one /search to one replica,
// whatever the query. A shard holding no posting for any query token
// answers it with an empty list and its generation after the same slice
// gather a /shardstats probe would run, so probing first to skip such a
// shard only doubles the node requests of every leg. Every shard is
// routed: selecting shards away would need bounds cached per generation,
// not a probe per query.
//
// Status mapping: 200 answered (degraded or not), 503 + Retry-After when
// NO shard answered, 504 + X-Dash-Partial when an answering replica's
// own deadline truncated its list (the merge is then a valid prefix,
// exactly like single-node 504).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/search_server.h"
#include "core/sharded_engine.h"
#include "util/analysis_annotations.h"
#include "util/histogram.h"
#include "util/thread_pool.h"
#include "webapp/http.h"

namespace dash::core {

// One replica's answer to one scatter leg.
struct ShardReply {
  bool ok = false;       // a live replica answered (possibly with a partial)
  bool partial = false;  // the replica's own deadline truncated the list
  std::uint64_t generation = 0;  // snapshot generation the replica served
  std::vector<SearchResult> results;  // the replica's local top-k
};

// Transport to ONE replica of ONE shard. Implementations block (sockets,
// injected straggler sleeps), so the router only ever calls them from its
// own scatter pool — never from the shared process pool and never under a
// lock. Chaos wrappers (testing/chaos.h) implement this interface too.
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  // One scatter leg: the replica's local top-k for `keywords`.
  virtual ShardReply Route(const std::vector<std::string>& keywords, int k,
                           std::uint64_t min_page_words) DASH_BLOCKING = 0;

  // Diagnostic label ("in-process shard 2/4", "127.0.0.1:8431").
  virtual std::string description() const = 0;
};

// The transport to a shard node: a SearchService in shard-node mode. It
// builds the node's /search target and decodes the reply
// (ParseRenderedResults, whose %.17g round-trip keeps the cluster≡engine
// oracle byte-exact across the hop). Where the node lives is the one call
// that turns a target into its response: InProcess calls the node's
// Handle directly, Loopback fetches over 127.0.0.1. Replies are untrusted
// input: a malformed body, a missing or malformed X-Dash-Generation, or a
// status other than 200 (or 504 + X-Dash-Partial) fails the leg.
class HttpShardTransport : public ShardTransport {
 public:
  // Target → the node's response; nullopt when the node did not answer.
  using Fetch = std::function<std::optional<webapp::HttpResponse>(
      const std::string& target)>;

  HttpShardTransport(Fetch fetch, std::string description)
      : fetch_(std::move(fetch)), description_(std::move(description)) {}

  // `node` (not owned; must outlive the transport) must run in shard-node
  // mode. Its deadline, if any, starts when the leg calls it.
  static std::unique_ptr<HttpShardTransport> InProcess(SearchService& node);
  // A SearchServer in shard-node mode listening on 127.0.0.1:`port`.
  static std::unique_ptr<HttpShardTransport> Loopback(int port);

  ShardReply Route(const std::vector<std::string>& keywords, int k,
                   std::uint64_t min_page_words) override DASH_BLOCKING;
  std::string description() const override { return description_; }

 private:
  const Fetch fetch_;
  const std::string description_;
};

struct RouterOptions {
  int default_k = 10;        // k when the query omits it
  std::uint64_t default_s = 0;  // s (min page words) when omitted
  // Gather budget per shard: a leg that has not answered this long after
  // scatter start is abandoned (the shard counts as unanswered; its
  // transport call finishes on the scatter pool in the background).
  // 0 = wait for every leg.
  int shard_deadline_ms = 0;
  int retry_after_seconds = 1;  // Retry-After on 503 (no shard answered)
};

// What one routed query produced (RouterService turns this into the HTTP
// response; tests and the oracle consume it directly).
struct RoutedResult {
  std::vector<SearchResult> results;
  int shards_total = 0;
  int shards_answered = 0;
  bool partial = false;  // any answering leg was deadline-truncated
  std::uint64_t generation_min = 0;  // over answering replicas; 0 when none
  std::uint64_t generation_max = 0;
};

// Per-replica health as sampled by replica selection.
struct ReplicaHealth {
  std::uint64_t ewma_us = 0;  // EWMA of successful-leg latency
  std::uint32_t consecutive_failures = 0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
};

class SearchRouter {
 public:
  // transports[shard][replica]; every shard needs >= 1 replica. The
  // router owns the transports and its scatter pool.
  SearchRouter(
      std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports,
      const RouterOptions& options);

  // Scatter-gather one query. Blocks up to shard_deadline_ms (unbounded
  // when 0) while legs run on the owned scatter pool (one thread per
  // shard: each leg blocks in its transport, so the pool must hold every
  // concurrent leg). The gather is ShardedEngine::MergeShardResults over
  // the ANSWERING shards' lists.
  RoutedResult RouteQuery(const std::vector<std::string>& keywords, int k,
                          std::uint64_t min_page_words) DASH_BLOCKING;

  std::size_t shard_count() const { return replicas_.size(); }
  std::size_t replica_count(std::size_t shard) const {
    return replicas_[shard].size();
  }
  ReplicaHealth replica_health(std::size_t shard, std::size_t replica) const;
  // Latency histogram of successful legs to `shard` (all replicas).
  const util::LatencyHistogram& shard_latency(std::size_t shard) const {
    return *shard_latency_[shard];
  }
  const RouterOptions& options() const { return options_; }

 private:
  struct Replica {
    std::unique_ptr<ShardTransport> transport;
    std::atomic<std::uint64_t> ewma_us{0};
    std::atomic<std::uint32_t> consecutive_failures{0};
    std::atomic<std::uint64_t> successes{0};
    std::atomic<std::uint64_t> failures{0};
  };

  // What one leg (one shard's attempt chain) reports to the gather.
  struct LegOutcome {
    bool answered = false;
    bool partial = false;
    std::uint64_t generation = 0;
    std::vector<SearchResult> results;
  };

  // Runs one shard's attempt chain on the scatter pool: replicas in
  // health-score order, failing over until one answers.
  LegOutcome RunLeg(std::size_t shard,
                    const std::vector<std::string>& keywords, int k,
                    std::uint64_t min_page_words) DASH_BLOCKING;

  // Replica indices of `shard` ordered by selection score (ascending
  // ewma_us << min(failures, 6); index breaks ties, so a cold start scans
  // replica 0 first and the order is deterministic).
  std::vector<std::size_t> ReplicaOrder(std::size_t shard) const;

  void RecordLegSuccess(Replica& replica, std::size_t shard,
                        std::uint64_t elapsed_us);
  void RecordLegFailure(Replica& replica);

  const RouterOptions options_;
  std::vector<std::vector<std::unique_ptr<Replica>>> replicas_;
  // Histogram is atomic-array (non-movable), hence the indirection.
  std::vector<std::unique_ptr<util::LatencyHistogram>> shard_latency_;
  // Owned: legs block in transports, which the shared process pool
  // forbids (util::ThreadPool::Shared contract).
  std::unique_ptr<util::ThreadPool> scatter_pool_;
};

// Router-level serving counters (/stats).
struct RouterCounters {
  std::uint64_t requests_total = 0;
  std::uint64_t ok = 0;               // 200 (includes degraded)
  std::uint64_t degraded = 0;         // 200 with answered < total
  std::uint64_t bad_request = 0;      // 400
  std::uint64_t not_found = 0;        // 404
  std::uint64_t unavailable = 0;      // 503 (no shard answered)
  std::uint64_t gateway_timeout = 0;  // 504 (partial merge)
  std::uint64_t routed = 0;           // RouteQuery calls executed
  std::uint64_t latency_count = 0;    // request latency, admission→response
  std::uint64_t latency_p50_us = 0;
  std::uint64_t latency_p99_us = 0;
  std::uint64_t latency_max_us = 0;
};

// The router behind the standard request surface: /search with the same
// grammar and byte-identical body rendering as a single node (plus the
// coverage/skew headers above), /stats, /healthz. Transport-free like
// SearchService: callers hand Handle() a parsed request.
class RouterService {
 public:
  // `router` must outlive the service.
  RouterService(SearchRouter& router, const RouterOptions& options);

  webapp::HttpResponse Handle(const webapp::HttpRequest& request,
                              std::chrono::steady_clock::time_point admitted);

  RouterCounters counters() const;
  SearchRouter& router() { return *router_; }

 private:
  // The routed /search fast path: parse, route (via the cold boundary),
  // render, stamp coverage headers. DASH_HOT_PATH like the single-node
  // HandleSearch it mirrors — everything slow lives behind ExecuteRouted.
  webapp::HttpResponse HandleRouted(
      const webapp::HttpRequest& request,
      std::chrono::steady_clock::time_point admitted) DASH_HOT_PATH;
  webapp::HttpResponse HandleStats();

  // The sanctioned slow path: the scatter-gather itself (legs block on
  // transports). DASH_COLD_PATH stops the hot-path purity walk here,
  // exactly like SearchService::ExecuteSearch.
  RoutedResult ExecuteRouted(const std::vector<std::string>& keywords, int k,
                             std::uint64_t min_page_words) DASH_COLD_PATH;

  SearchRouter* const router_;
  const RouterOptions options_;

  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> bad_request_{0};
  std::atomic<std::uint64_t> not_found_{0};
  std::atomic<std::uint64_t> unavailable_{0};
  std::atomic<std::uint64_t> gateway_timeout_{0};
  std::atomic<std::uint64_t> routed_{0};
  util::LatencyHistogram latency_;
};

}  // namespace dash::core
