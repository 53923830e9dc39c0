// Replicated-shard serving tests: the router over in-process and
// loopback-HTTP shard nodes must answer byte-identically to the
// single-process ShardedEngine at zero failures, fail over between
// replicas, degrade to the exact survivor merge when shards die, expose
// generation skew when replicas fall behind, honor per-shard deadlines
// against stragglers, and inject all of it deterministically from a seed
// (testing/chaos.h) — the straggler and skew cases replay under tsan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/crawler.h"
#include "core/dash_engine.h"
#include "core/search_router.h"
#include "core/search_server.h"
#include "core/sharded_engine.h"
#include "testing/chaos.h"
#include "testing/fooddb.h"
#include "util/random.h"
#include "webapp/http.h"

namespace dash::core {
namespace {

using dash::testing::AssignChaos;
using dash::testing::ChaosAssignment;
using dash::testing::ChaosPlan;
using dash::testing::ChaosProfile;
using dash::testing::ChaosTransport;
using dash::testing::ClusterOptions;
using dash::testing::TestCluster;

DashEngine MakeEngine() {
  db::Database db = dash::testing::MakeFoodDb();
  webapp::WebAppInfo app = dash::testing::MakeSearchApp();
  BuildOptions options;
  options.algorithm = CrawlAlgorithm::kReference;
  return DashEngine::Build(db, app, options);
}

webapp::HttpRequest Get(const std::string& target) {
  return webapp::ParseUrl(target);
}

std::chrono::steady_clock::time_point Now() {
  return std::chrono::steady_clock::now();
}

// Shard-node mode: this node serves only shard `shard_index` of `shards`.
ServeOptions ShardModeOptions(int shard_index, int shards) {
  ServeOptions serve;
  serve.shards = shards;
  serve.shard_index = shard_index;
  return serve;
}

const std::vector<std::vector<std::string>>& Queries() {
  static const std::vector<std::vector<std::string>> queries = {
      {"burger"}, {"coffee"}, {"burger", "coffee"}, {"pasta", "cheese"},
      {"nosuchkeyword"}};
  return queries;
}

std::string Target(const std::vector<std::string>& keywords, int k,
                   std::uint64_t s) {
  std::string target = "/search";
  char sep = '?';
  for (const std::string& kw : keywords) {
    target += sep;
    sep = '&';
    target += "q=" + kw;
  }
  target += "&k=" + std::to_string(k) + "&s=" + std::to_string(s);
  return target;
}

// ---- Zero failures: cluster ≡ single-process engine. ----

TEST(Cluster, ZeroFailureByteIdentityInProcess) {
  DashEngine engine = MakeEngine();
  ClusterOptions options;
  options.shards = 3;
  options.replicas = 2;
  TestCluster cluster(engine.snapshot(), options);

  for (const auto& keywords : Queries()) {
    webapp::HttpResponse response =
        cluster.service().Handle(Get(Target(keywords, 10, 0)), Now());
    ASSERT_EQ(response.status, 200);
    EXPECT_EQ(response.body, SearchService::RenderResults(
                                 cluster.reference().Search(keywords, 10, 0)));
    EXPECT_EQ(response.headers.at("X-Dash-Shards-Answered"), "3/3");
    EXPECT_FALSE(response.headers.contains("X-Dash-Degraded"));
    // In-sync replicas: no generation skew.
    EXPECT_EQ(response.headers.at("X-Dash-Generation-Min"),
              response.headers.at("X-Dash-Generation-Max"));
    EXPECT_EQ(response.headers.at("X-Dash-Generation-Min"),
              std::to_string(engine.snapshot()->generation()));
  }
}

TEST(Cluster, ZeroFailureByteIdentityOverHttp) {
  DashEngine engine = MakeEngine();
  ClusterOptions options;
  options.shards = 2;
  options.replicas = 1;
  options.http = true;
  std::unique_ptr<TestCluster> cluster;
  try {
    cluster = std::make_unique<TestCluster>(engine.snapshot(), options);
  } catch (const std::exception&) {
    GTEST_SKIP() << "no loopback networking in this environment";
  }
  for (const auto& keywords : Queries()) {
    webapp::HttpResponse response =
        cluster->service().Handle(Get(Target(keywords, 5, 10)), Now());
    ASSERT_EQ(response.status, 200);
    // The full wire path — one /search per leg, RenderResults →
    // ParseRenderedResults → RenderResults — must preserve every byte.
    EXPECT_EQ(response.body, SearchService::RenderResults(
                                 cluster->reference().Search(keywords, 5, 10)));
    EXPECT_EQ(response.headers.at("X-Dash-Shards-Answered"), "2/2");
  }
}

// ---- Replica failover. ----

TEST(Cluster, FailoverToSurvivingReplicaKeepsFullCoverage) {
  DashEngine engine = MakeEngine();
  ClusterOptions options;
  options.shards = 3;
  options.replicas = 2;
  options.chaos.dead_replicas = 3;  // one per shard (distinct shards first)
  options.chaos_seed = 7;
  TestCluster cluster(engine.snapshot(), options);
  ASSERT_EQ(cluster.plan().DeadShardCount(), 0);  // every shard kept one

  for (const auto& keywords : Queries()) {
    webapp::HttpResponse response =
        cluster.service().Handle(Get(Target(keywords, 10, 0)), Now());
    ASSERT_EQ(response.status, 200);
    EXPECT_EQ(response.body, SearchService::RenderResults(
                                 cluster.reference().Search(keywords, 10, 0)));
    EXPECT_EQ(response.headers.at("X-Dash-Shards-Answered"), "3/3");
  }
  // Replica selection learned: every dead replica the router touched is
  // now penalized, and each shard's surviving replica carried the load.
  for (int shard = 0; shard < options.shards; ++shard) {
    for (int replica = 0; replica < options.replicas; ++replica) {
      ReplicaHealth health =
          cluster.router().replica_health(static_cast<std::size_t>(shard),
                                          static_cast<std::size_t>(replica));
      if (cluster.plan().at(shard, replica).dead) {
        EXPECT_EQ(health.successes, 0u);
        if (health.failures > 0) {
          EXPECT_GT(health.consecutive_failures, 0u);
        }
      } else {
        EXPECT_GT(health.successes, 0u);
        EXPECT_EQ(health.failures, 0u);
      }
    }
  }
}

// ---- Dead shards: bounded degradation, 503 when nothing answers. ----

TEST(Cluster, DeadShardDegradesToExactSurvivorMerge) {
  DashEngine engine = MakeEngine();
  ClusterOptions options;
  options.shards = 3;
  options.replicas = 1;
  options.chaos.dead_replicas = 1;
  options.chaos_seed = 11;
  TestCluster cluster(engine.snapshot(), options);
  ASSERT_EQ(cluster.plan().DeadShardCount(), 1);

  for (const auto& keywords : Queries()) {
    webapp::HttpResponse response =
        cluster.service().Handle(Get(Target(keywords, 10, 0)), Now());
    ASSERT_EQ(response.status, 200);  // degradation is not an error
    std::vector<std::vector<SearchResult>> survivors;
    for (int shard = 0; shard < options.shards; ++shard) {
      if (cluster.plan().at(shard, 0).dead) continue;
      survivors.push_back(cluster.reference().SearchShard(
          static_cast<std::size_t>(shard), keywords, 10, 0));
    }
    EXPECT_EQ(response.body,
              SearchService::RenderResults(
                  ShardedEngine::MergeShardResults(std::move(survivors), 10)));
    EXPECT_EQ(response.headers.at("X-Dash-Shards-Answered"), "2/3");
    EXPECT_EQ(response.headers.at("X-Dash-Degraded"), "1");
  }
  EXPECT_GT(cluster.service().counters().degraded, 0u);
}

TEST(Cluster, AllShardsDeadAnswers503WithRetryAfter) {
  DashEngine engine = MakeEngine();
  ClusterOptions options;
  options.shards = 2;
  options.replicas = 1;
  options.chaos.dead_replicas = 2;
  TestCluster cluster(engine.snapshot(), options);

  webapp::HttpResponse response =
      cluster.service().Handle(Get("/search?q=burger"), Now());
  EXPECT_EQ(response.status, 503);
  EXPECT_TRUE(response.headers.contains("Retry-After"));
  EXPECT_EQ(response.headers.at("X-Dash-Shards-Answered"), "0/2");
  EXPECT_EQ(response.headers.at("X-Dash-Degraded"), "1");
  EXPECT_GT(cluster.service().counters().unavailable, 0u);
}

// ---- Generation skew: stale replicas answer from old snapshots. ----

TEST(Cluster, StaleReplicaWidensGenerationMinMax) {
  // Two engines over the same corpus: identical content, strictly
  // increasing process-wide generations.
  DashEngine old_engine = MakeEngine();
  DashEngine new_engine = MakeEngine();
  ASSERT_LT(old_engine.snapshot()->generation(),
            new_engine.snapshot()->generation());

  // Shard 0 fell behind (its publisher never advanced); shard 1 is fresh.
  SnapshotPublisher stale_publisher(old_engine.snapshot());
  SnapshotPublisher fresh_publisher(new_engine.snapshot());
  SearchService stale_node(stale_publisher, ShardModeOptions(0, 2));
  SearchService fresh_node(fresh_publisher, ShardModeOptions(1, 2));
  std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports(2);
  transports[0].push_back(HttpShardTransport::InProcess(stale_node));
  transports[1].push_back(HttpShardTransport::InProcess(fresh_node));
  SearchRouter router(std::move(transports), RouterOptions{});
  RouterService service(router, RouterOptions{});

  webapp::HttpResponse response =
      service.Handle(Get("/search?q=burger&q=coffee&k=10"), Now());
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.headers.at("X-Dash-Generation-Min"),
            std::to_string(old_engine.snapshot()->generation()));
  EXPECT_EQ(response.headers.at("X-Dash-Generation-Max"),
            std::to_string(new_engine.snapshot()->generation()));
  EXPECT_EQ(response.headers.at("X-Dash-Shards-Answered"), "2/2");
  // Same corpus on both generations, so the merged answer still matches
  // a single-process engine over either snapshot.
  ShardedEngine reference(new_engine.snapshot(), 2);
  EXPECT_EQ(response.body,
            SearchService::RenderResults(
                reference.Search({"burger", "coffee"}, 10, 0)));
}

TEST(Cluster, PublishSkipsStaleReplicas) {
  DashEngine old_engine = MakeEngine();
  DashEngine new_engine = MakeEngine();
  ClusterOptions options;
  options.shards = 2;
  options.replicas = 2;
  options.chaos.stale_replicas = 1;
  options.chaos_seed = 3;
  TestCluster cluster(old_engine.snapshot(), options);
  cluster.Publish(new_engine.snapshot());

  // Force the router onto every replica by killing none: the stale
  // replica only shows up in the skew headers when selected, so route
  // enough queries to sample both replicas of the stale shard.
  bool saw_skew = false;
  for (int round = 0; round < 8 && !saw_skew; ++round) {
    for (const auto& keywords : Queries()) {
      webapp::HttpResponse response =
          cluster.service().Handle(Get(Target(keywords, 10, 0)), Now());
      ASSERT_EQ(response.status, 200);
      EXPECT_EQ(response.body,
                SearchService::RenderResults(
                    cluster.reference().Search(keywords, 10, 0)));
      if (response.headers.at("X-Dash-Generation-Min") !=
          response.headers.at("X-Dash-Generation-Max")) {
        saw_skew = true;
      }
    }
  }
  // Not asserted: replica selection may legitimately never pick the stale
  // replica (it is neither dead nor slow). The invariant that matters —
  // the body stays byte-identical whichever generation answered — was
  // asserted on every response above.
}

// ---- Per-shard deadlines: stragglers cost coverage, not latency. ----

TEST(Cluster, StragglerMissesDeadlineAndCoverageDrops) {
  DashEngine engine = MakeEngine();
  ClusterOptions options;
  options.shards = 2;
  options.replicas = 1;
  options.shard_deadline_ms = 100;
  options.chaos.straggler_replicas = 1;
  options.chaos.straggle_ms = 1000;
  options.chaos_seed = 5;
  TestCluster cluster(engine.snapshot(), options);

  int straggler_shard = -1;
  for (int shard = 0; shard < options.shards; ++shard) {
    if (cluster.plan().at(shard, 0).straggler) straggler_shard = shard;
  }
  ASSERT_NE(straggler_shard, -1);

  const auto started = Now();
  webapp::HttpResponse response =
      cluster.service().Handle(Get("/search?q=burger&q=coffee&k=10"), Now());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      Now() - started);
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.headers.at("X-Dash-Shards-Answered"), "1/2");
  EXPECT_EQ(response.headers.at("X-Dash-Degraded"), "1");
  // The router abandoned the straggler at the deadline instead of waiting
  // out the full 1 s sleep.
  EXPECT_LT(elapsed.count(), 800);
  std::vector<std::vector<SearchResult>> survivors;
  survivors.push_back(cluster.reference().SearchShard(
      static_cast<std::size_t>(1 - straggler_shard), {"burger", "coffee"},
      10, 0));
  EXPECT_EQ(response.body,
            SearchService::RenderResults(
                ShardedEngine::MergeShardResults(std::move(survivors), 10)));
}

// ---- Shard-node serving surface (/search slice + /shardstats). ----

TEST(Cluster, ShardNodeServesSliceAndTermStats) {
  DashEngine engine = MakeEngine();
  const int kShards = 3;
  ShardedEngine reference(engine.snapshot(), kShards);

  std::vector<std::unique_ptr<SnapshotPublisher>> publishers;
  std::vector<std::unique_ptr<SearchServer>> servers;
  for (int shard = 0; shard < kShards; ++shard) {
    publishers.push_back(
        std::make_unique<SnapshotPublisher>(engine.snapshot()));
    ServeOptions serve;
    serve.shards = kShards;
    serve.shard_index = shard;
    serve.num_workers = 2;
    servers.push_back(
        std::make_unique<SearchServer>(*publishers.back(), serve));
    try {
      servers.back()->Start();
    } catch (const std::exception&) {
      GTEST_SKIP() << "no loopback networking in this environment";
    }
  }

  // Each node answers exactly its slice's local top-k, and the per-shard
  // df statistics sum to the global document frequency.
  ASSERT_GT(engine.index().Df("coffee"), 0u);
  std::size_t df_sum = 0;
  for (int shard = 0; shard < kShards; ++shard) {
    auto search = webapp::FetchOverLoopback(servers[shard]->port(),
                                            "/search?q=coffee&k=10&s=0");
    ASSERT_TRUE(search.has_value());
    ASSERT_EQ(search->status, 200);
    EXPECT_EQ(search->body,
              SearchService::RenderResults(reference.SearchShard(
                  static_cast<std::size_t>(shard), {"coffee"}, 10, 0)));

    auto stats = webapp::FetchOverLoopback(servers[shard]->port(),
                                           "/shardstats?q=coffee");
    ASSERT_TRUE(stats.has_value());
    ASSERT_EQ(stats->status, 200);
    EXPECT_TRUE(stats->headers.contains("X-Dash-Generation"));
    ShardTermStats want =
        reference.TermStats("coffee", static_cast<std::size_t>(shard));
    std::string line = "T\tcoffee\t" + std::to_string(want.df) + "\t" +
                       std::to_string(want.max_occurrences);
    EXPECT_NE(stats->body.find(line), std::string::npos)
        << "shard " << shard << " stats body:\n"
        << stats->body;
    df_sum += want.df;
  }
  EXPECT_EQ(df_sum, engine.index().Df("coffee"));

  // /shardstats outside shard-node mode is a client error.
  SnapshotPublisher whole(engine.snapshot());
  SearchService whole_service(whole, ServeOptions{});
  EXPECT_EQ(whole_service.Handle(Get("/shardstats?q=coffee"), Now()).status,
            400);
}

// ---- Wire-format inverse. ----

TEST(Cluster, ParseRenderedResultsRoundTripsEveryRenderedBody) {
  DashEngine engine = MakeEngine();
  for (const auto& keywords : Queries()) {
    for (std::uint64_t s : {std::uint64_t{0}, std::uint64_t{20}}) {
      std::string body =
          SearchService::RenderResults(engine.Search(keywords, 10, s));
      auto parsed = SearchService::ParseRenderedResults(body);
      ASSERT_TRUE(parsed.has_value());
      EXPECT_EQ(SearchService::RenderResults(*parsed), body);
    }
  }
  EXPECT_FALSE(SearchService::ParseRenderedResults("").has_value());
  EXPECT_FALSE(SearchService::ParseRenderedResults("results 1\n").has_value());
  EXPECT_FALSE(
      SearchService::ParseRenderedResults("results 0\ntrailing").has_value());
  EXPECT_FALSE(SearchService::ParseRenderedResults(
                   "results 1\nR\tnot-a-score\t1\tu\t0\t\n")
                   .has_value());
}

// Property: ParseRenderedResults(RenderResults(r)) == r for result lists
// whose URLs and parameter names and values are arbitrary byte strings,
// biased toward the format's own separators, and rendering them leaves no
// raw separator inside a field. Seeded, so a failure replays.
TEST(ShardReplyDecoding, RenderedResultsRoundTripArbitraryBytes) {
  util::SplitMix64 rng(20261019);
  auto random_bytes = [&rng] {
    static constexpr char kSeparators[] = {'%', '\t', '\r', '\n', ';', '='};
    std::string out(rng.Below(12), '\0');
    for (char& c : out) {
      c = rng.Below(3) == 0
              ? kSeparators[rng.Below(sizeof(kSeparators))]
              : static_cast<char>(rng.Below(256));
    }
    return out;
  };
  for (int round = 0; round < 500; ++round) {
    std::vector<SearchResult> results(rng.Below(4));
    for (SearchResult& r : results) {
      r.score = static_cast<double>(rng.Next() >> 11) / 9007199254740992.0;
      r.size_words = rng.Below(1000);
      r.url = random_bytes();
      for (std::size_t i = rng.Below(4); i > 0; --i) {
        r.fragments.push_back(static_cast<FragmentHandle>(rng.Below(1000)));
      }
      for (std::size_t i = rng.Below(4); i > 0; --i) {
        r.params[random_bytes()] = random_bytes();
      }
    }
    const std::string body = SearchService::RenderResults(results);
    ASSERT_EQ(static_cast<std::size_t>(
                  std::count(body.begin(), body.end(), '\n')),
              results.size() + 1)
        << "round " << round;
    auto parsed = SearchService::ParseRenderedResults(body);
    ASSERT_TRUE(parsed.has_value()) << "round " << round << ": " << body;
    ASSERT_EQ(parsed->size(), results.size()) << "round " << round;
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ((*parsed)[i].score, results[i].score);
      EXPECT_EQ((*parsed)[i].size_words, results[i].size_words);
      EXPECT_EQ((*parsed)[i].url, results[i].url);
      EXPECT_EQ((*parsed)[i].fragments, results[i].fragments);
      EXPECT_EQ((*parsed)[i].params, results[i].params);
    }
  }
}

TEST(ShardReplyDecoding, EscapesOnlyReservedBytes) {
  SearchResult r;
  r.score = 0.5;
  r.size_words = 3;
  r.url = "h/p?a=x%y\tz";
  r.params = {{"a;b=c", "x;y=z"}, {"plain", "caf\xC3\xA9 & more"}};
  EXPECT_EQ(SearchService::RenderResults({r}),
            "results 1\nR\t0.5\t3\th/p?a=x%25y%09z\t\t"
            "a%3bb%3dc=x%3by=z;plain=caf\xC3\xA9 & more\n");
}

TEST(ShardReplyDecoding, MalformedPercentEscapeFailsTheLeg) {
  for (const char* field : {"%", "%4", "%zz", "%g0", "a%2"}) {
    std::string url_body =
        std::string("results 1\nR\t0.5\t3\t") + field + "\t1\ta=1\n";
    EXPECT_FALSE(SearchService::ParseRenderedResults(url_body).has_value())
        << field;
    std::string name_body =
        std::string("results 1\nR\t0.5\t3\tu\t1\t") + field + "=1\n";
    EXPECT_FALSE(SearchService::ParseRenderedResults(name_body).has_value())
        << field;
    std::string value_body =
        std::string("results 1\nR\t0.5\t3\tu\t1\ta=") + field + "\n";
    EXPECT_FALSE(SearchService::ParseRenderedResults(value_body).has_value())
        << field;
  }
  auto decoded = SearchService::ParseRenderedResults(
      "results 1\nR\t0.5\t3\tu%3F%3f\t1\ta%3B=%0A\n");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ((*decoded)[0].url, "u??");
  EXPECT_EQ((*decoded)[0].params.at("a;"), "\n");
}

// ---- Hostile shard replies fail the leg. ----

// A transport whose node answers every target with `status`, `body` and
// an X-Dash-Generation of `generation` (no header when null).
HttpShardTransport CannedNode(int status, std::string body,
                              const char* generation = "7") {
  return HttpShardTransport(
      [status, body, generation](const std::string&) {
        webapp::HttpResponse response;
        response.status = status;
        response.body = body;
        if (generation != nullptr) {
          response.headers["X-Dash-Generation"] = generation;
        }
        return std::optional<webapp::HttpResponse>(response);
      },
      "canned");
}

TEST(ShardReplyDecoding, WellFormedRepliesDecode) {
  ShardReply reply =
      CannedNode(200, "results 1\nR\t0.5\t3\tu\t1,2\ta=1\n")
          .Route({"x"}, 10, 0);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.generation, 7u);
  ASSERT_EQ(reply.results.size(), 1u);
  EXPECT_EQ(reply.results[0].score, 0.5);
}

TEST(ShardReplyDecoding, ResultCountBeyondTheLinesPresentFailsTheLeg) {
  // Decoding must reject the header before sizing anything by it: a
  // reserve of 10^9 results would abort the router process.
  EXPECT_FALSE(CannedNode(200, "results 1000000000\n").Route({"x"}, 10, 0).ok);
  EXPECT_FALSE(CannedNode(200, "results 1000000000\nR\t0.5\t3\tu\t1\t\n")
                   .Route({"x"}, 10, 0)
                   .ok);

  // The router counts the undecodable reply as a replica failure.
  std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports(1);
  transports[0].push_back(std::make_unique<HttpShardTransport>(
      CannedNode(200, "results 1000000000\n")));
  RouterOptions options;
  SearchRouter router(std::move(transports), options);
  RoutedResult routed = router.RouteQuery({"x"}, 10, 0);
  EXPECT_EQ(routed.shards_answered, 0);
  EXPECT_EQ(router.replica_health(0, 0).failures, 1u);
}

TEST(ShardReplyDecoding, NonFiniteScoreFailsTheLeg) {
  for (const char* score : {"nan", "inf", "-inf"}) {
    std::string body = std::string("results 1\nR\t") + score + "\t3\tu\t1\t\n";
    EXPECT_FALSE(CannedNode(200, body).Route({"x"}, 10, 0).ok) << score;
  }
}

// A node stamps X-Dash-Generation on every /search reply it sends, so a
// reply without a valid one is malformed: counting it as answered would
// report a made-up generation 0 in the router's skew headers.
TEST(ShardReplyDecoding, MissingOrMalformedGenerationFailsTheLeg) {
  const std::string body = "results 0\n";
  EXPECT_FALSE(CannedNode(200, body, nullptr).Route({"x"}, 10, 0).ok);
  for (const char* generation : {"abc", "-1"}) {
    EXPECT_FALSE(CannedNode(200, body, generation).Route({"x"}, 10, 0).ok)
        << generation;
  }

  std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports(1);
  transports[0].push_back(std::make_unique<HttpShardTransport>(
      CannedNode(200, body, nullptr)));
  SearchRouter router(std::move(transports), RouterOptions{});
  RoutedResult routed = router.RouteQuery({"x"}, 10, 0);
  EXPECT_EQ(routed.shards_answered, 0);
  EXPECT_EQ(router.replica_health(0, 0).failures, 1u);
}

TEST(ShardReplyDecoding, ErrorStatusFailsTheLeg) {
  const std::string body = "results 0\n";
  EXPECT_FALSE(CannedNode(503, body).Route({"x"}, 10, 0).ok);
  // 504 is a partial answer only with X-Dash-Partial.
  EXPECT_FALSE(CannedNode(504, body).Route({"x"}, 10, 0).ok);
}

// ---- Chaos determinism. ----

TEST(Chaos, PlanIsDeterministicAndSpreadsDeadAcrossShardsFirst) {
  ChaosProfile profile;
  profile.dead_replicas = 4;
  profile.straggler_replicas = 2;
  profile.stale_replicas = 1;
  ChaosPlan a = AssignChaos(profile, 4, 3, 42);
  ChaosPlan b = AssignChaos(profile, 4, 3, 42);
  for (int shard = 0; shard < 4; ++shard) {
    for (int replica = 0; replica < 3; ++replica) {
      EXPECT_EQ(a.at(shard, replica).dead, b.at(shard, replica).dead);
      EXPECT_EQ(a.at(shard, replica).straggler,
                b.at(shard, replica).straggler);
      EXPECT_EQ(a.at(shard, replica).stale, b.at(shard, replica).stale);
    }
  }
  // 4 dead across 4 shards with 3 replicas each: one per shard, so no
  // shard is fully dead — kills spread before they stack.
  EXPECT_EQ(a.DeadShardCount(), 0);
  int dead = 0, stragglers = 0, stale = 0;
  for (int shard = 0; shard < 4; ++shard) {
    int shard_dead = 0;
    for (int replica = 0; replica < 3; ++replica) {
      const ChaosAssignment& assignment = a.at(shard, replica);
      dead += assignment.dead;
      shard_dead += assignment.dead;
      stragglers += assignment.straggler;
      stale += assignment.stale;
      EXPECT_LE(assignment.dead + assignment.straggler + assignment.stale, 1);
    }
    EXPECT_EQ(shard_dead, 1);
  }
  EXPECT_EQ(dead, 4);
  EXPECT_EQ(stragglers, 2);
  EXPECT_EQ(stale, 1);

  // Saturating: more kills than replicas exist is clamped, all dead.
  ChaosProfile everything;
  everything.dead_replicas = 100;
  ChaosPlan full = AssignChaos(everything, 2, 2, 1);
  EXPECT_EQ(full.DeadShardCount(), 2);
}

namespace {
class StubTransport : public ShardTransport {
 public:
  ShardReply Route(const std::vector<std::string>&, int,
                   std::uint64_t) override {
    ShardReply reply;
    reply.ok = true;
    reply.generation = 1;
    return reply;
  }
  std::string description() const override { return "stub"; }
};
}  // namespace

TEST(Chaos, FlakyVerdictSetIsSeedStableAcrossThreadCounts) {
  // The SET of failed request ordinals is a pure function of the seed:
  // replaying single-threaded reproduces exactly the failure count a
  // concurrent run observed, which is what makes chaos runs replayable
  // under tsan.
  constexpr int kRequests = 512;
  auto run = [&](int threads) {
    ChaosTransport transport(std::make_unique<StubTransport>(),
                             ChaosAssignment{}, /*flaky_rate=*/0.3,
                             /*straggle_ms=*/0, /*replica_seed=*/99);
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (int i = 0; i < kRequests / threads; ++i) {
          if (!transport.Route({"x"}, 1, 0).ok) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(transport.requests(), static_cast<std::uint64_t>(kRequests));
    return failures.load();
  };
  int single = run(1);
  EXPECT_GT(single, 0);
  EXPECT_LT(single, kRequests);
  EXPECT_EQ(run(4), single);
  EXPECT_EQ(run(8), single);
}

// ---- Router request surface. ----

TEST(RouterService, ParameterValidationAndStatsSchema) {
  DashEngine engine = MakeEngine();
  ClusterOptions options;
  options.shards = 2;
  TestCluster cluster(engine.snapshot(), options);
  RouterService& service = cluster.service();

  EXPECT_EQ(service.Handle(Get("/healthz"), Now()).status, 200);
  EXPECT_EQ(service.Handle(Get("/nope"), Now()).status, 404);
  EXPECT_EQ(service.Handle(Get("/search"), Now()).status, 400);
  EXPECT_EQ(service.Handle(Get("/search?q=burger&k=0"), Now()).status, 400);
  EXPECT_EQ(service.Handle(Get("/search?q=burger&s=-1"), Now()).status, 400);
  ASSERT_EQ(service.Handle(Get("/search?q=burger"), Now()).status, 200);

  webapp::HttpResponse stats = service.Handle(Get("/stats"), Now());
  ASSERT_EQ(stats.status, 200);
  for (const char* key :
       {"\"shards\"", "\"replicas_total\"", "\"requests_total\"", "\"ok\"",
        "\"degraded\"", "\"unavailable\"", "\"gateway_timeout\"",
        "\"routed\"", "\"latency_p99_us\"", "\"leg_latency_count\"",
        "\"leg_latency_p99_us\"", "\"shard_deadline_ms\""}) {
    EXPECT_NE(stats.body.find(key), std::string::npos)
        << key << " missing from router stats:\n"
        << stats.body;
  }
  RouterCounters counters = service.counters();
  EXPECT_GT(counters.requests_total, 0u);
  EXPECT_GT(counters.routed, 0u);
  EXPECT_EQ(counters.bad_request, 3u);
  EXPECT_EQ(counters.not_found, 1u);
}

// ---- One node request per leg. ----

TEST(Router, OneNodeRequestPerLeg) {
  DashEngine engine = MakeEngine();
  const int kShards = 3;
  SnapshotPublisher publisher(engine.snapshot());
  std::vector<std::unique_ptr<SearchService>> nodes;
  std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports(
      kShards);
  for (int shard = 0; shard < kShards; ++shard) {
    nodes.push_back(std::make_unique<SearchService>(
        publisher, ShardModeOptions(shard, kShards)));
    transports[static_cast<std::size_t>(shard)].push_back(
        HttpShardTransport::InProcess(*nodes.back()));
  }
  SearchRouter router(std::move(transports), RouterOptions{});
  ShardedEngine reference(engine.snapshot(), kShards);

  // "burger" and "coffee" each have a shard without a posting for them,
  // "nosuchkeyword" has none anywhere, and "..." normalizes to no token at
  // all: every leg still costs its node exactly one request.
  for (const char* token : {"burger", "coffee"}) {
    ASSERT_GT(engine.index().Df(token), 0u);
    bool some_shard_lacks_it = false;
    for (int shard = 0; shard < kShards; ++shard) {
      some_shard_lacks_it =
          some_shard_lacks_it ||
          reference.TermStats(token, static_cast<std::size_t>(shard)).df == 0;
    }
    EXPECT_TRUE(some_shard_lacks_it) << token;
  }
  const std::vector<std::vector<std::string>> queries = {
      {"burger"}, {"coffee"}, {"burger", "coffee"}, {"nosuchkeyword"},
      {"..."}};
  for (const auto& keywords : queries) {
    RoutedResult routed = router.RouteQuery(keywords, 10, 0);
    EXPECT_EQ(routed.shards_answered, kShards);
    EXPECT_EQ(SearchService::RenderResults(routed.results),
              SearchService::RenderResults(reference.Search(keywords, 10, 0)));
  }
  for (int shard = 0; shard < kShards; ++shard) {
    EXPECT_EQ(nodes[static_cast<std::size_t>(shard)]->counters().requests_total,
              queries.size())
        << "shard " << shard;
  }
}

// ---- Node-side deadline → router-level 504 partial. ----

TEST(RouterService, NodeDeadlinePartialPropagatesAs504) {
  DashEngine engine = MakeEngine();
  SnapshotPublisher publisher(engine.snapshot());
  ServeOptions serve = ShardModeOptions(0, 2);
  serve.deadline_ms = 20;
  serve.debug_delay_ms = 200;  // burn the whole budget before searching
  SearchService node(publisher, serve);

  std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports(1);
  transports[0].push_back(HttpShardTransport::InProcess(node));
  RouterOptions router_options;
  SearchRouter router(std::move(transports), router_options);
  RouterService service(router, router_options);

  webapp::HttpResponse response =
      service.Handle(Get("/search?q=burger&k=5"), Now());
  EXPECT_EQ(response.status, 504);
  EXPECT_EQ(response.headers.at("X-Dash-Partial"), "1");
  EXPECT_EQ(response.headers.at("X-Dash-Shards-Answered"), "1/1");
  EXPECT_GT(service.counters().gateway_timeout, 0u);
}

}  // namespace
}  // namespace dash::core
