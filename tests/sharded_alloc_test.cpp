// ShardedEngine construction must not copy or build anything: all shards
// share one immutable IndexSnapshot, and a shard is that snapshot plus a
// shard id (the snapshot filters ownership when it resolves a term). An
// operator-new byte counter proves it: constructing 1 or 8 shard views
// from a snapshot allocates nothing at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/crawler.h"
#include "core/sharded_engine.h"
#include "tpch/tpch.h"
#include "sql/parser.h"

namespace {
std::atomic<long> g_allocated_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocated_bytes += static_cast<long>(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocated_bytes += static_cast<long>(size);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dash::core {
namespace {

webapp::WebAppInfo TpchApp() {
  webapp::WebAppInfo app;
  app.name = "Q2";
  app.uri = "example.com/q2";
  app.query = sql::Parse(
      "SELECT * FROM (customer JOIN orders) JOIN lineitem "
      "WHERE customer.cid = $r AND qty BETWEEN $min AND $max");
  app.codec =
      webapp::QueryStringCodec({{"r", "r"}, {"l", "min"}, {"u", "max"}});
  return app;
}

TEST(ShardedAllocation, ConstructionSharesSnapshotInsteadOfCopying) {
  db::Database db = tpch::Generate(tpch::Scale::kTiny);
  webapp::WebAppInfo app = TpchApp();
  SnapshotPtr snapshot =
      IndexSnapshot::Create(app, Crawler(db, app.query).BuildIndex());

  long before_one = g_allocated_bytes.load();
  ShardedEngine one(snapshot, 1);
  long cost_one = g_allocated_bytes.load() - before_one;

  long before_eight = g_allocated_bytes.load();
  ShardedEngine eight(snapshot, 8);
  long cost_eight = g_allocated_bytes.load() - before_eight;

  // No snapshot copy: both engines alias the exact object we built.
  EXPECT_EQ(one.snapshot().get(), snapshot.get());
  EXPECT_EQ(eight.snapshot().get(), snapshot.get());

  // A view is the snapshot plus a shard count, whatever the count.
  EXPECT_EQ(cost_one, 0);
  EXPECT_EQ(cost_eight, 0);

  // And the views really are the whole story: both engines answer.
  const std::string hot = snapshot->index().KeywordsByDf().front().first;
  auto a = one.Search({hot}, 3, 0);
  auto b = eight.Search({hot}, 3, 0);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].url, b[i].url);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

}  // namespace
}  // namespace dash::core
