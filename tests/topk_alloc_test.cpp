// A warmed-up thread's top-k walk allocates only what it returns: the
// seed heap, term cursors, per-fragment marks, expansion queue and page
// payloads all live in thread-local scratch reclaimed on entry, and lazy
// seeding keeps the seed heap small. Counted with a per-thread operator
// new, over hot-keyword queries (the ones whose per-query state used to
// scale with the keyword's document frequency).
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/dash_engine.h"
#include "sql/parser.h"
#include "testing/fooddb.h"
#include "tpch/tpch.h"

namespace {
thread_local long t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(size);
}

// Out of line: inlined into gtest's fixture factory, GCC pairs this
// free() with the replaced operator new and warns of a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dash::core {
namespace {

// The budget: a fixed part per query (tokenizing the query, binding the
// searcher to the snapshot, growing the result vector) plus a part per
// returned page (its member list, parameter map and URL). Neither depends
// on the keyword's document frequency or on how many pages the walk
// expanded.
constexpr long kFixedAllocations = 16;
constexpr long kAllocationsPerResult = 8;

TEST(TopKAllocation, WarmHotQueriesAllocateOnlyTheirResults) {
  db::Database db = tpch::Generate(tpch::Scale::kTiny);
  webapp::WebAppInfo app;
  app.name = "Q2";
  app.uri = "example.com/q2";
  app.query = sql::Parse(
      "SELECT * FROM (customer JOIN orders) JOIN lineitem "
      "WHERE customer.cid = $r AND qty BETWEEN $min AND $max");
  app.codec =
      webapp::QueryStringCodec({{"r", "r"}, {"l", "min"}, {"u", "max"}});
  BuildOptions options;
  options.algorithm = CrawlAlgorithm::kReference;
  DashEngine engine = DashEngine::Build(db, app, options);
  const IndexSnapshot& snapshot = *engine.snapshot();

  std::vector<std::string> hot;
  for (const auto& [keyword, df] : engine.index().KeywordsByDf()) {
    if (hot.size() == 5) break;
    hot.push_back(keyword);
  }
  struct Cell {
    int k;
    std::uint64_t s;
  };
  for (Cell cell : {Cell{1, 100}, Cell{10, 200}, Cell{10, 1000}}) {
    // Warm-up: sizes this thread's walk and gather scratch once.
    for (const std::string& keyword : hot) {
      (void)snapshot.Search({keyword}, cell.k, cell.s);
    }
    for (const std::string& keyword : hot) {
      QueryProfile profile;
      const long before = t_allocations;
      std::vector<SearchResult> results = snapshot.Search(
          {keyword}, cell.k, cell.s, 0, nullptr, {}, &profile);
      const long allocations = t_allocations - before;
      ASSERT_FALSE(results.empty());
      EXPECT_LE(allocations,
                kFixedAllocations +
                    kAllocationsPerResult * static_cast<long>(results.size()))
          << keyword << " k=" << cell.k << " s=" << cell.s << ": "
          << results.size() << " results, " << profile.expansions
          << " expansions";
    }
  }
}

// Binding the searcher to the snapshot allocates nothing: it borrows the
// snapshot's selection layout, and its plan source fits std::function's
// local buffer. What remains for a keyword no fragment holds is the
// caller's one-element keyword vector, the tokenized query and the
// deduplicated term list.
TEST(TopKAllocation, BindingTheSearcherAllocatesNothing) {
  db::Database db = dash::testing::MakeFoodDb();
  BuildOptions options;
  options.algorithm = CrawlAlgorithm::kReference;
  DashEngine engine =
      DashEngine::Build(db, dash::testing::MakeSearchApp(), options);
  const IndexSnapshot& snapshot = *engine.snapshot();
  ASSERT_FALSE(snapshot.selection().empty());

  (void)snapshot.Search({"nosuchkeyword"}, 1, 1);  // warm-up
  const long before = t_allocations;
  std::vector<SearchResult> results =
      snapshot.Search({"nosuchkeyword"}, 1, 1);
  const long allocations = t_allocations - before;
  EXPECT_TRUE(results.empty());
  EXPECT_LE(allocations, 4) << allocations << " allocations";
}

}  // namespace
}  // namespace dash::core
