// Cross-module property tests: randomized sweeps checking the system's
// invariants against independent oracles (brute-force recomputation,
// single-node relational operators, round-trips).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/dash_engine.h"
#include "core/mr_common.h"
#include "db/ops.h"
#include "sql/parser.h"
#include "testing/fooddb.h"
#include "tpch/tpch.h"
#include "util/random.h"

namespace dash {
namespace {

// ---------------------------------------------------------------------
// Top-k search invariants, swept over (k, s) on fooddb and TPC-H tiny.
// ---------------------------------------------------------------------

// Both fields are 64-bit so the struct has no padding: gtest prints a
// parameter's raw bytes into the test's listed name, and indeterminate
// padding bytes would make that name differ from build to build.
struct TopKCase {
  std::int64_t k;
  std::uint64_t s;
};

class TopKPropertyTest : public ::testing::TestWithParam<TopKCase> {
 protected:
  static const core::DashEngine& Engine() {
    static const core::DashEngine engine = [] {
      core::BuildOptions options;
      options.algorithm = core::CrawlAlgorithm::kReference;
      webapp::WebAppInfo app;
      app.name = "Q2";
      app.uri = "example.com/q2";
      app.query = sql::Parse(
          "SELECT * FROM (customer JOIN orders) JOIN lineitem "
          "WHERE customer.cid = $r AND qty BETWEEN $min AND $max");
      app.codec =
          webapp::QueryStringCodec({{"r", "r"}, {"l", "min"}, {"u", "max"}});
      return core::DashEngine::Build(tpch::Generate(tpch::Scale::kTiny), app,
                                     options);
    }();
    return engine;
  }
};

TEST_P(TopKPropertyTest, ResultInvariantsHold) {
  const auto [k, s] = GetParam();
  const core::DashEngine& engine = Engine();
  // One hot, one warm keyword.
  auto by_df = engine.index().KeywordsByDf();
  ASSERT_GE(by_df.size(), 2u);
  for (const std::string& keyword :
       {by_df.front().first, by_df[by_df.size() / 2].first}) {
    auto results = engine.Search({keyword}, static_cast<int>(k), s);
    EXPECT_LE(results.size(), static_cast<std::size_t>(k));

    std::set<std::vector<core::FragmentHandle>> seen_pages;
    std::set<core::FragmentHandle> seen_fragments;
    for (const auto& r : results) {
      // (1) No duplicate pages, no shared fragments across results.
      EXPECT_TRUE(seen_pages.insert(r.fragments).second);
      for (core::FragmentHandle f : r.fragments) {
        EXPECT_TRUE(seen_fragments.insert(f).second);
      }
      // (2) Pages are contiguous runs within one equality group.
      for (std::size_t i = 1; i < r.fragments.size(); ++i) {
        EXPECT_EQ(r.fragments[i], r.fragments[i - 1] + 1);
        EXPECT_EQ(engine.graph().GroupOf(r.fragments[i]),
                  engine.graph().GroupOf(r.fragments[0]));
      }
      // (3) Reported size equals the sum of member keyword totals.
      std::uint64_t words = 0;
      for (core::FragmentHandle f : r.fragments) {
        words += engine.catalog().keyword_total(f);
      }
      EXPECT_EQ(r.size_words, words);
      // (4) Score equals the independent recomputation from postings.
      std::uint64_t occ = 0;
      for (const core::Posting& p : engine.index().Lookup(keyword)) {
        if (std::binary_search(r.fragments.begin(), r.fragments.end(),
                               p.fragment)) {
          occ += p.occurrences;
        }
      }
      double expected = words == 0 ? 0.0
                                   : engine.index().Idf(keyword) *
                                         static_cast<double>(occ) /
                                         static_cast<double>(words);
      EXPECT_NEAR(r.score, expected, 1e-12);
      EXPECT_GT(occ, 0u) << "every result page must contain the keyword";
      // (5) Undersized pages are only legal when the group is exhausted.
      if (r.size_words < s) {
        auto [first, last] = engine.graph().GroupSpan(
            engine.graph().GroupOf(r.fragments.front()));
        EXPECT_EQ(r.fragments.size(),
                  static_cast<std::size_t>(last - first + 1));
      }
      // (6) URL parameters reproduce the page's equality value and the
      // min/max of its range values.
      const db::Row& first_id = engine.catalog().id(r.fragments.front());
      const db::Row& last_id = engine.catalog().id(r.fragments.back());
      EXPECT_EQ(r.params.at("r"), first_id[0].ToString());
      EXPECT_EQ(r.params.at("min"), first_id[1].ToString());
      EXPECT_EQ(r.params.at("max"), last_id[1].ToString());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopKPropertyTest,
    ::testing::Values(TopKCase{1, 1}, TopKCase{1, 100}, TopKCase{5, 1},
                      TopKCase{5, 100}, TopKCase{5, 1000}, TopKCase{10, 50},
                      TopKCase{20, 200}, TopKCase{20, 100000}),
    [](const ::testing::TestParamInfo<TopKCase>& info) {
      return "k" + std::to_string(info.param.k) + "_s" +
             std::to_string(info.param.s);
    });

// ---------------------------------------------------------------------
// MR repartition join == in-memory hash join, on random tables with NULLs
// and duplicate keys.
// ---------------------------------------------------------------------

class MrJoinPropertyTest : public ::testing::TestWithParam<int> {};

db::Table RandomTable(const std::string& name, util::SplitMix64& rng,
                      int rows, int key_range) {
  db::Table t(name, db::Schema({{name, "k", db::ValueType::kInt},
                                {name, "payload", db::ValueType::kString}}));
  for (int i = 0; i < rows; ++i) {
    db::Value key = rng.NextDouble() < 0.1
                        ? db::Value::Null()
                        : db::Value(rng.Range(0, key_range));
    t.AddRow({key, name + "_row" + std::to_string(i)});
  }
  return t;
}

std::multiset<std::string> RowBag(const db::Table& table) {
  std::multiset<std::string> bag;
  for (const std::string& line : table.ExportRows()) bag.insert(line);
  return bag;
}

std::multiset<std::string> RecordBag(const core::MrTable& table) {
  std::multiset<std::string> bag;
  for (const mr::Record& r : table.data) bag.insert(r.value);
  return bag;
}

TEST_P(MrJoinPropertyTest, MatchesHashJoin) {
  util::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()));
  db::Table left = RandomTable("l", rng, 60, 12);
  db::Table right = RandomTable("r", rng, 40, 12);

  for (auto kind : {sql::JoinKind::kInner, sql::JoinKind::kLeftOuter}) {
    db::Table oracle = db::HashJoin(left, right, "l.k", "r.k",
                                    kind == sql::JoinKind::kInner
                                        ? db::JoinType::kInner
                                        : db::JoinType::kLeftOuter);
    mr::ClusterConfig config;
    config.block_size_bytes = 256;  // multiple map tasks
    mr::Cluster cluster(config);
    core::MrTable mr_result =
        core::MrJoin(cluster, "prop", core::ExportTable(left),
                     core::ExportTable(right), "l.k", "r.k", kind, 3);
    EXPECT_EQ(RecordBag(mr_result), RowBag(oracle))
        << "kind=" << (kind == sql::JoinKind::kInner ? "inner" : "left");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MrJoinPropertyTest, ::testing::Range(1, 11));

// ---------------------------------------------------------------------
// Export/parse round-trip on random typed rows.
// ---------------------------------------------------------------------

class RoundTripPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripPropertyTest, ExportParsePreservesRows) {
  util::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 977);
  db::Table t("t", db::Schema({{"t", "i", db::ValueType::kInt},
                               {"t", "d", db::ValueType::kDouble},
                               {"t", "s", db::ValueType::kString}}));
  const std::string alphabet = "ab\tc\nd\\e:fg h/';%";
  for (int row = 0; row < 50; ++row) {
    db::Value i = rng.NextDouble() < 0.2 ? db::Value::Null()
                                         : db::Value(rng.Range(-1000, 1000));
    // Cents-valued doubles, like the generator produces.
    db::Value d = rng.NextDouble() < 0.2
                      ? db::Value::Null()
                      : db::Value(static_cast<double>(rng.Range(-99999, 99999)) /
                                  100.0);
    std::string text;
    for (int c = 0; c < 8; ++c) text += alphabet[rng.Below(alphabet.size())];
    t.AddRow({i, d, db::Value(text)});
  }
  auto lines = t.ExportRows();
  for (std::size_t r = 0; r < lines.size(); ++r) {
    EXPECT_EQ(t.ParseRow(lines[r]), t.rows()[r]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripPropertyTest, ::testing::Range(1, 6));

// ---------------------------------------------------------------------
// Value ordering is a total order consistent with equality and hashing.
// ---------------------------------------------------------------------

TEST(ValueProperties, OrderingIsTotalAndHashConsistent) {
  util::SplitMix64 rng(99);
  std::vector<db::Value> values = {db::Value::Null(), db::Value(""),
                                   db::Value("a")};
  for (int i = 0; i < 30; ++i) {
    values.push_back(db::Value(rng.Range(-5, 5)));
    values.push_back(db::Value(static_cast<double>(rng.Range(-50, 50)) / 10.0));
    values.push_back(db::Value(std::string(1, static_cast<char>(
                                                  'a' + rng.Below(5)))));
  }
  for (const db::Value& a : values) {
    for (const db::Value& b : values) {
      // Antisymmetry + equality/hash consistency.
      if (a == b) {
        EXPECT_EQ(a.Hash(), b.Hash());
        EXPECT_FALSE(a < b);
        EXPECT_FALSE(b < a);
      } else {
        EXPECT_TRUE((a < b) != (b < a));
      }
      for (const db::Value& c : values) {
        if (a < b && b < c) {
          EXPECT_LT(a, c);  // transitivity
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Fragment coverage on TPC-H: random concrete parameters — the db-page
// materialized by the oracle equals the union of satisfying fragments.
// ---------------------------------------------------------------------

class PageCoveragePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PageCoveragePropertyTest, PagesAreFragmentUnions) {
  static const db::Database db = tpch::Generate(tpch::Scale::kTiny);
  sql::PsjQuery query = sql::Parse(
      "SELECT * FROM (customer JOIN orders) JOIN lineitem "
      "WHERE customer.cid = $r AND qty BETWEEN $min AND $max");
  core::Crawler crawler(db, query);
  static const std::vector<core::Fragment> fragments =
      core::Crawler(db, sql::Parse(
                            "SELECT * FROM (customer JOIN orders) JOIN "
                            "lineitem WHERE customer.cid = $r AND qty "
                            "BETWEEN $min AND $max"))
          .DeriveFragments();

  util::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 31);
  for (int trial = 0; trial < 5; ++trial) {
    std::int64_t cid = rng.Range(0, 19);
    std::int64_t lo = rng.Range(1, 40);
    std::int64_t hi = lo + rng.Range(0, 10);
    db::Table page = crawler.EvalPage({{"r", db::Value(cid)},
                                       {"min", db::Value(lo)},
                                       {"max", db::Value(hi)}});
    std::size_t expected = 0;
    for (const core::Fragment& f : fragments) {
      if (f.id[0] == db::Value(cid) && db::Value(lo) <= f.id[1] &&
          f.id[1] <= db::Value(hi)) {
        expected += f.rows.size();
      }
    }
    EXPECT_EQ(page.row_count(), expected)
        << "cid=" << cid << " range=[" << lo << "," << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageCoveragePropertyTest,
                         ::testing::Range(1, 5));

}  // namespace
}  // namespace dash
