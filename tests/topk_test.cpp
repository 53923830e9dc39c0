// Top-k search tests: Example 7 reproduced end to end, Algorithm 1
// behaviours (size threshold, k semantics, consumed seeds), URL
// formulation, and scoring properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>
#include <set>

#include "core/dash_engine.h"
#include "core/index_snapshot.h"
#include "core/search_server.h"
#include "sql/parser.h"
#include "testing/fooddb.h"
#include "testing/reference_topk.h"
#include "tpch/tpch.h"

namespace dash::core {
namespace {

class TopKTest : public ::testing::Test {
 protected:
  TopKTest()
      : db_(dash::testing::MakeFoodDb()),
        engine_(DashEngine::Build(db_, dash::testing::MakeSearchApp(),
                                  ReferenceBuild())) {}

  static BuildOptions ReferenceBuild() {
    BuildOptions options;
    options.algorithm = CrawlAlgorithm::kReference;
    return options;
  }

  db::Database db_;
  DashEngine engine_;
};

TEST_F(TopKTest, Example7BurgerSearch) {
  // k=2, s=20, keyword "burger" (paper Example 7).
  auto results = engine_.Search({"burger"}, 2, 20);
  ASSERT_EQ(results.size(), 2u);

  // The two result db-pages are (American, [10,12]) and (Thai, [10,10]).
  std::vector<std::string> urls = {results[0].url, results[1].url};
  std::sort(urls.begin(), urls.end());
  EXPECT_EQ(urls[0], "www.example.com/Search?c=American&l=10&u=12");
  EXPECT_EQ(urls[1], "www.example.com/Search?c=Thai&l=10&u=10");
}

TEST_F(TopKTest, Example7Arithmetic) {
  auto results = engine_.Search({"burger"}, 2, 20);
  ASSERT_EQ(results.size(), 2u);
  // Our queue pops the merged American page (TF 3/25) before Thai (1/10).
  // IDF(burger) = 1/3 scales both.
  EXPECT_EQ(results[0].size_words, 25u);
  EXPECT_DOUBLE_EQ(results[0].score, (3.0 / 25.0) * (1.0 / 3.0));
  EXPECT_EQ(results[1].size_words, 10u);
  EXPECT_DOUBLE_EQ(results[1].score, (1.0 / 10.0) * (1.0 / 3.0));
  // Params carry the reconstructed query string values.
  EXPECT_EQ(results[0].params.at("cuisine"), "American");
  EXPECT_EQ(results[0].params.at("min"), "10");
  EXPECT_EQ(results[0].params.at("max"), "12");
}

TEST_F(TopKTest, ConsumedSeedIsNotReturnedSeparately) {
  // (American,12) is absorbed into the merged page; with k=3 the remaining
  // results must not include a bare (American,12) page.
  auto results = engine_.Search({"burger"}, 3, 20);
  for (const auto& r : results) {
    EXPECT_NE(r.url, "www.example.com/Search?c=American&l=12&u=12");
  }
}

TEST_F(TopKTest, SmallThresholdKeepsPagesSmall) {
  // s=1: every seed is already large enough; no merging happens.
  auto results = engine_.Search({"burger"}, 3, 1);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].url, "www.example.com/Search?c=American&l=10&u=10");
  EXPECT_EQ(results[0].fragments.size(), 1u);
  // Ranked by TF*IDF: 2/8 > 1/10 > 1/17.
  EXPECT_EQ(results[1].url, "www.example.com/Search?c=Thai&l=10&u=10");
  EXPECT_EQ(results[2].url, "www.example.com/Search?c=American&l=12&u=12");
}

TEST_F(TopKTest, LargeThresholdGrowsPagesAcrossGroup) {
  // s larger than the whole American group (8+8+17+8=41 words): the
  // American page absorbs the entire chain and stops only when no
  // neighbors remain. The un-growable Thai page (no neighbors) surfaces
  // first because each merge dilutes the American page's TF.
  auto results = engine_.Search({"burger"}, 2, 1000);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].url, "www.example.com/Search?c=Thai&l=10&u=10");
  EXPECT_EQ(results[1].url, "www.example.com/Search?c=American&l=9&u=18");
  EXPECT_EQ(results[1].size_words, 41u);
  EXPECT_EQ(results[1].fragments.size(), 4u);
}

TEST_F(TopKTest, KLimitsResults) {
  EXPECT_EQ(engine_.Search({"burger"}, 1, 20).size(), 1u);
  EXPECT_EQ(engine_.Search({"burger"}, 0, 20).size(), 0u);
  // Only 3 relevant seeds exist; merging reduces distinct pages to 2.
  EXPECT_EQ(engine_.Search({"burger"}, 10, 20).size(), 2u);
}

TEST_F(TopKTest, UnknownKeywordReturnsNothing) {
  EXPECT_TRUE(engine_.Search({"pizza"}, 5, 20).empty());
  EXPECT_TRUE(engine_.Search({}, 5, 20).empty());
  EXPECT_TRUE(engine_.Search({"!!!"}, 5, 20).empty());
}

TEST_F(TopKTest, QueryIsTokenizedAndCaseNormalized) {
  auto upper = engine_.Search({"BURGER"}, 2, 20);
  auto lower = engine_.Search({"burger"}, 2, 20);
  ASSERT_EQ(upper.size(), lower.size());
  EXPECT_EQ(upper[0].url, lower[0].url);
  // Multi-word input searches both keywords.
  auto multi = engine_.Search({"burger experts"}, 1, 1);
  ASSERT_FALSE(multi.empty());
  EXPECT_EQ(multi[0].url, "www.example.com/Search?c=American&l=10&u=10");
}

TEST_F(TopKTest, MultiKeywordScoresSumPerKeyword) {
  // "coffee" appears only in (American,9); "burger" favors (American,10).
  auto results = engine_.Search({"coffee", "burger"}, 1, 1);
  ASSERT_EQ(results.size(), 1u);
  // (American,9): coffee idf 1 * 1/8 = 0.125 beats burger's 1/3 * 2/8.
  EXPECT_EQ(results[0].url, "www.example.com/Search?c=American&l=9&u=9");
}

TEST_F(TopKTest, ResultPagesAreContiguousIntervals) {
  for (const auto& r : engine_.Search({"burger"}, 5, 30)) {
    for (std::size_t i = 1; i < r.fragments.size(); ++i) {
      EXPECT_EQ(r.fragments[i], r.fragments[i - 1] + 1)
          << "pages over one range attribute are contiguous chains";
    }
  }
}

TEST_F(TopKTest, ResultFragmentsDisjointAcrossResults) {
  auto results = engine_.Search({"burger"}, 5, 20);
  std::set<FragmentHandle> seen;
  for (const auto& r : results) {
    for (FragmentHandle f : r.fragments) {
      EXPECT_TRUE(seen.insert(f).second)
          << "shared fragment => overlapped content in the result list";
    }
  }
}

// ---------- Deterministic ordering on score ties ----------

// Fragments with identical keyword statistics score identically; the
// output order must then be pinned by the fragment identifiers (ascending
// handles in a canonical catalog), not by queue discovery order —
// differential comparison against an independent oracle and the sharded
// gather merge both rely on this total order.
TEST(TopKTieBreak, TiedScoresOrderByFragmentId) {
  db::Schema schema({{"items", "id", db::ValueType::kInt},
                     {"items", "cat", db::ValueType::kString},
                     {"items", "txt", db::ValueType::kString}});
  db::Table items("items", schema);
  // Same "amber" statistics in every fragment (2 occurrences of 4 words);
  // inserted in non-identifier order on purpose.
  items.AddRow({1, "mid", "amber amber"});
  items.AddRow({2, "zed", "amber amber"});
  items.AddRow({3, "ace", "amber amber"});
  db::Database db;
  db.AddTable(std::move(items));

  webapp::WebAppInfo app;
  app.name = "Tie";
  app.uri = "example.com/tie";
  app.query = sql::Parse("SELECT * FROM items WHERE items.cat = $cat");
  app.codec =
      webapp::QueryStringCodec(std::vector<webapp::ParamBinding>{{"c", "cat"}});

  BuildOptions options;
  options.algorithm = CrawlAlgorithm::kReference;
  DashEngine engine = DashEngine::Build(db, app, options);

  auto results = engine.Search({"amber"}, 3, 0);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_DOUBLE_EQ(results[0].score, results[1].score);
  EXPECT_DOUBLE_EQ(results[1].score, results[2].score);
  EXPECT_EQ(results[0].url, "example.com/tie?c=ace");
  EXPECT_EQ(results[1].url, "example.com/tie?c=mid");
  EXPECT_EQ(results[2].url, "example.com/tie?c=zed");

  // Stable across repeated searches (no per-query state leaks into order).
  auto again = engine.Search({"amber"}, 3, 0);
  ASSERT_EQ(again.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(again[i].url, results[i].url);
  }
}

// ---------- Lazy seeding near ties ----------

// Lazy seeding pulls a term's seeds in SeedRatio order and stops while the
// seed heap's top strictly beats the bound sum_w IDF_w * head ratio, with
// a 1e-9 relative slack. Equal rationals under IDFs 1/3 and 1/7 round to
// scores an ulp or two apart, on either side of that bound; here the
// smaller handle always holds the lower score, so a walk that stopped at
// the first seed scoring >= the bound, or > it without slack, pops it
// first. Pairs:
//   * "alpha beta": 18/30 & 9/30 scores an ulp above the bound, 6/10 &
//     3/10 two ulps above (a top can beat the bound and still lose);
//   * "gamma delta": 3/15 & 9/15 scores exactly the bound, 1/5 & 3/5 an
//     ulp above;
//   * "eps": 9/15 exactly the bound, 3/5 an ulp above; 1/2, 2/4, 3/6.
// Padding fragments (ratio 1/10) set the dfs: alpha, gamma 3; beta, delta,
// eps 7. Every search must match the reference walk byte for byte, on one
// segment and split over two, whole and in slices.
TEST(TopKLazySeeding, NearTiesMatchTheReferenceWalkAcrossSegmentsAndShards) {
  struct Frag {
    const char* group;
    int id;
    std::map<std::string, std::uint32_t> counts;  // without the filler
    std::uint64_t words;
    int segment;  // 0 = base, 1 = delta
  };
  const std::vector<Frag> frags = {
      {"g1", 1, {{"alpha", 18}, {"beta", 9}}, 30, 0},
      {"g1", 2, {{"alpha", 6}, {"beta", 3}}, 10, 1},
      {"g1", 3, {{"alpha", 1}}, 10, 0},
      {"g2", 1, {{"gamma", 3}, {"delta", 9}}, 15, 1},
      {"g2", 2, {{"gamma", 1}, {"delta", 3}}, 5, 0},
      {"g2", 3, {{"gamma", 1}}, 10, 1},
      {"g3", 1, {{"eps", 9}}, 15, 0},
      {"g3", 2, {{"eps", 3}}, 5, 1},
      {"g3", 3, {{"eps", 1}}, 2, 0},
      {"g3", 4, {{"eps", 2}}, 4, 1},
      {"g3", 5, {{"eps", 3}}, 6, 0},
      {"g4", 1, {{"beta", 1}, {"delta", 1}, {"eps", 1}}, 10, 0},
      {"g4", 2, {{"beta", 1}, {"delta", 1}, {"eps", 1}}, 10, 1},
      {"g5", 1, {{"beta", 1}, {"delta", 1}}, 10, 0},
      {"g5", 2, {{"beta", 1}, {"delta", 1}}, 10, 1},
      {"g5", 3, {{"beta", 1}, {"delta", 1}}, 10, 0},
  };
  auto build_of = [&](int segment) {
    FragmentIndexBuild build;
    for (const Frag& f : frags) {  // ascending identifiers
      if (segment >= 0 && f.segment != segment) continue;
      FragmentHandle h = build.catalog.Intern({db::Value(f.group),
                                               db::Value(f.id)});
      std::uint64_t filler = f.words;
      for (const auto& [keyword, occurrences] : f.counts) {
        build.index.AddOccurrences(keyword, h, occurrences);
        filler -= occurrences;
      }
      if (filler > 0) {
        build.index.AddOccurrences("zz", h,
                                   static_cast<std::uint32_t>(filler));
      }
    }
    build.index.Finalize(&build.catalog);
    return build;
  };
  const sql::PsjQuery query = sql::Parse(
      "SELECT * FROM items WHERE items.grp = $g AND items.id BETWEEN $lo "
      "AND $hi");
  const std::vector<SnapshotPtr> snapshots = {
      IndexSnapshot::CreateWithoutApp(query, build_of(-1)),
      IndexSnapshot::CreateSegmentedWithoutApp(
          query, {MakeSegment(build_of(0)), MakeSegment(build_of(1))})};
  ASSERT_EQ(snapshots[1]->segment_count(), 2u);

  // The ulp-level ordering the test depends on.
  const std::vector<std::vector<std::string>> queries = {
      {"alpha", "beta"}, {"gamma", "delta"}, {"eps"}};
  for (const SnapshotPtr& snapshot : snapshots) {
    auto top = snapshot->Search(queries[0], 1, 0);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].fragments,
              std::vector<FragmentHandle>{1});  // g1/2, not g1/1
    top = snapshot->Search(queries[1], 1, 0);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].fragments, std::vector<FragmentHandle>{4});  // g2/2
    top = snapshot->Search(queries[2], 1, 0);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].fragments, std::vector<FragmentHandle>{7});  // g3/2
  }

  for (const SnapshotPtr& snapshot : snapshots) {
    for (const auto& keywords : queries) {
      for (int k = 1; k <= 8; ++k) {
        for (std::uint64_t s : {std::uint64_t{0}, std::uint64_t{25}}) {
          for (std::size_t count : {1, 2, 3, 5}) {
            for (std::size_t index = 0; index < count; ++index) {
              ShardSlice slice{index, count};
              EXPECT_EQ(SearchService::RenderResults(snapshot->Search(
                            keywords, k, s, 0, nullptr, slice)),
                        SearchService::RenderResults(dash::testing::ReferenceSearch(
                            *snapshot, keywords, k, s, 0, slice)))
                  << keywords.front() << " k=" << k << " s=" << s
                  << " slice " << index << "/" << count << ", "
                  << snapshot->segment_count() << " segment(s)";
            }
          }
        }
      }
    }
  }
}

// Segments sort seed orders on a float key; ratios that differ below float
// precision share a key and must still be ordered exactly, or the bound
// read at a lower-ratio stream head lets a higher-scored seed behind it
// stay unpulled. 2048 / (2^26 + d) for d = 1, 2, 0 all round to the float
// 2^-15 and sit at handles 0, 1, 2; handle 2 (d = 0) scores highest.
TEST(TopKLazySeeding, RatiosSharingAFloatKeyStillPopInScoreOrder) {
  FragmentIndexBuild build;
  const std::uint64_t base = std::uint64_t{1} << 26;
  int id = 0;
  for (std::uint64_t extra : {1, 2, 0}) {
    FragmentHandle h = build.catalog.Intern({db::Value("g"), db::Value(++id)});
    build.index.AddOccurrences("x", h, 2048);
    build.index.AddOccurrences("zz", h,
                               static_cast<std::uint32_t>(base + extra - 2048));
  }
  build.index.Finalize(&build.catalog);
  SnapshotPtr snapshot = IndexSnapshot::CreateWithoutApp(
      sql::Parse("SELECT * FROM items WHERE items.grp = $g AND items.id "
                 "BETWEEN $lo AND $hi"),
      std::move(build));
  for (int k = 1; k <= 3; ++k) {
    auto results = snapshot->Search({"x"}, k, 0);
    ASSERT_EQ(results.size(), static_cast<std::size_t>(k));
    EXPECT_EQ(results[0].fragments, std::vector<FragmentHandle>{2});
    EXPECT_EQ(SearchService::RenderResults(results),
              SearchService::RenderResults(
                  dash::testing::ReferenceSearch(*snapshot, {"x"}, k, 0)));
  }
}

// ---------- TPC-H workload sanity ----------

class TpchTopKTest : public ::testing::Test {
 protected:
  static DashEngine BuildEngine() {
    db::Database db = tpch::Generate(tpch::Scale::kTiny);
    webapp::WebAppInfo app;
    app.name = "Q2";
    app.uri = "example.com/q2";
    app.query = sql::Parse(
        "SELECT * FROM (customer JOIN orders) JOIN lineitem "
        "WHERE customer.cid = $r AND qty BETWEEN $min AND $max");
    app.codec = webapp::QueryStringCodec(
        {{"r", "r"}, {"l", "min"}, {"u", "max"}});
    BuildOptions options;
    options.algorithm = CrawlAlgorithm::kReference;
    return DashEngine::Build(db, app, options);
  }
};

TEST_F(TpchTopKTest, HotKeywordSearchesScaleWithK) {
  DashEngine engine = BuildEngine();
  auto by_df = engine.index().KeywordsByDf();
  ASSERT_FALSE(by_df.empty());
  const std::string hot = by_df.front().first;
  auto k1 = engine.Search({hot}, 1, 100);
  auto k10 = engine.Search({hot}, 10, 100);
  EXPECT_EQ(k1.size(), 1u);
  EXPECT_GE(k10.size(), k1.size());
  EXPECT_LE(k10.size(), 10u);
  // Results come back in pop order with valid URLs.
  for (const auto& r : k10) {
    EXPECT_NE(r.url.find("example.com/q2?r="), std::string::npos);
    EXPECT_GT(r.size_words, 0u);
  }
}

// Lazy seeding's work counters: a k=1 query on the hottest keyword scores
// a small part of its postings, while an exhaustive one (k beyond the
// catalog: the walk runs until the queue is empty) scores and pops every
// one of them.
TEST_F(TpchTopKTest, LazySeedingScoresAFractionOfAHotTermsPostings) {
  DashEngine engine = BuildEngine();
  const auto [hot, df] = engine.index().KeywordsByDf().front();
  QueryProfile top1;
  auto results =
      engine.snapshot()->Search({hot}, 1, 100, 0, nullptr, {}, &top1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_LT(top1.seeds_scored * 4, df) << hot << " df " << df;
  EXPECT_GE(top1.seeds_popped, 1u);

  QueryProfile all;
  const int k_all = static_cast<int>(engine.catalog().size()) + 1;
  engine.snapshot()->Search({hot}, k_all, 100, 0, nullptr, {}, &all);
  EXPECT_EQ(all.seeds_scored, df);
  EXPECT_EQ(all.seeds_popped, df);
  EXPECT_GT(all.expansions, top1.expansions);
}

TEST_F(TpchTopKTest, SizeThresholdGrowsPages) {
  DashEngine engine = BuildEngine();
  auto by_df = engine.index().KeywordsByDf();
  const std::string hot = by_df.front().first;
  auto small_s = engine.Search({hot}, 5, 10);
  auto large_s = engine.Search({hot}, 5, 500);
  ASSERT_FALSE(small_s.empty());
  ASSERT_FALSE(large_s.empty());
  double avg_small = 0, avg_large = 0;
  for (const auto& r : small_s) avg_small += static_cast<double>(r.size_words);
  for (const auto& r : large_s) avg_large += static_cast<double>(r.size_words);
  avg_small /= static_cast<double>(small_s.size());
  avg_large /= static_cast<double>(large_s.size());
  EXPECT_GT(avg_large, avg_small);
}

TEST_F(TpchTopKTest, PageMeetsThresholdWhenGroupAllows) {
  DashEngine engine = BuildEngine();
  auto by_df = engine.index().KeywordsByDf();
  const std::string hot = by_df.front().first;
  const std::uint64_t s = 200;
  for (const auto& r : engine.Search({hot}, 5, s)) {
    if (r.size_words < s) {
      // Undersized results are only legal when the whole equality group is
      // exhausted (no neighbors left to absorb).
      auto group = engine.graph().GroupOf(r.fragments.front());
      auto [first, last] = engine.graph().GroupSpan(group);
      EXPECT_EQ(r.fragments.size(),
                static_cast<std::size_t>(last - first + 1));
    }
  }
}

}  // namespace
}  // namespace dash::core
