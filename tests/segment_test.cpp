// Edge cases of the segmented (LSM-style) snapshot form (DESIGN.md §14):
// empty deltas, all-tombstone segments, delete-then-reinsert across
// segments, the within-segment definition-beats-own-tombstone rule,
// pairwise MergeSegments ≡ rebuild, byte-identical save/load of a
// multi-segment set, the UpdatableIndex tiered-compaction accounting, and
// shard slices of GatherTerm (a partition of the unsliced span that keeps
// the global IDF and reuses the thread's gather scratch).
//
// Oracle style matches index_update_test: the live view of any segment
// stack must be *bit-identical* (fingerprint and search answers) to a
// single canonical build of the same surviving fragments.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/index_io.h"
#include "core/index_segment.h"
#include "core/index_snapshot.h"
#include "core/index_update.h"
#include "core/sharded_engine.h"
#include "testing/fooddb.h"

namespace {
// Allocations made by the current thread (see
// RepeatedTermStatsReuseGatherScratch).
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

std::string Fingerprint(const FragmentIndexBuild& build) {
  std::string out;
  for (std::size_t f = 0; f < build.catalog.size(); ++f) {
    out += FragmentIdToString(build.catalog.id(static_cast<FragmentHandle>(f)));
    out += "=";
    out += std::to_string(
        build.catalog.keyword_total(static_cast<FragmentHandle>(f)));
    out += ";";
  }
  out += "\n";
  out += build.index.ToDebugString(build.catalog);
  return out;
}

// Fragment contents for a handcrafted delta: identifier -> (keyword,
// occurrences) list. std::map keys iterate in ascending identifier order,
// which is exactly the canonical catalog order MakeSegment requires.
using DeltaSpec = std::map<db::Row, std::vector<std::pair<std::string,
                                                          std::uint32_t>>>;

FragmentIndexBuild MakeBuild(const DeltaSpec& spec) {
  FragmentIndexBuild build;
  for (const auto& [id, keywords] : spec) {
    FragmentHandle f = build.catalog.Intern(id);
    for (const auto& [keyword, occurrences] : keywords) {
      build.index.AddOccurrences(keyword, f, occurrences);
    }
  }
  build.index.Finalize(&build.catalog);
  return build;
}

// Reference for tombstone-only stacks: `base` minus the `dead`
// identifiers, rebuilt as one canonical finalized build.
FragmentIndexBuild FilterBuild(const FragmentIndexBuild& base,
                               const std::set<db::Row>& dead) {
  FragmentIndexBuild out;
  std::vector<FragmentHandle> remap(base.catalog.size(), kDeadFragment);
  for (std::size_t f = 0; f < base.catalog.size(); ++f) {
    FragmentHandle old = static_cast<FragmentHandle>(f);
    if (dead.contains(base.catalog.id(old))) continue;
    remap[old] = out.catalog.Intern(base.catalog.id(old));
  }
  for (const auto& [keyword, df] : base.index.KeywordsByDf()) {
    (void)df;
    for (const Posting& p : base.index.Lookup(keyword)) {
      if (remap[p.fragment] == kDeadFragment) continue;
      out.index.AddOccurrences(keyword, remap[p.fragment], p.occurrences);
    }
  }
  out.index.Finalize(&out.catalog);
  return out;
}

void ExpectSameResults(const std::vector<SearchResult>& got,
                       const std::vector<SearchResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].fragments, want[i].fragments) << "result " << i;
    EXPECT_EQ(got[i].url, want[i].url) << "result " << i;
    // Exact: the multi-segment gather feeds the searcher the same posting
    // spans and 1/df IDFs a rebuilt single index would, so the floating-
    // point operation sequence is identical.
    EXPECT_EQ(got[i].score, want[i].score) << "result " << i;
    EXPECT_EQ(got[i].size_words, want[i].size_words) << "result " << i;
  }
}

class SegmentTest : public ::testing::Test {
 protected:
  SegmentTest()
      : app_(dash::testing::MakeSearchApp()),
        db_(dash::testing::MakeFoodDb()) {}

  FragmentIndexBuild BaseBuild() const {
    return Crawler(db_, app_.query).BuildIndex();
  }

  void ExpectEquivalent(const IndexSnapshot& segmented,
                        FragmentIndexBuild expected) {
    SnapshotPtr reference = IndexSnapshot::Create(app_, std::move(expected));
    EXPECT_EQ(Fingerprint(segmented.MergedBuild()),
              Fingerprint(reference->build()));
    for (const std::vector<std::string>& keywords :
         std::vector<std::vector<std::string>>{
             {"burger"}, {"american"}, {"burger", "experts"}, {"coffee"}}) {
      ExpectSameResults(segmented.Search(keywords, 5, 20),
                        reference->Search(keywords, 5, 20));
    }
  }

  // A single-segment snapshot and a three-segment one whose live view
  // replaces a base fragment and adds a new equality group.
  std::vector<SnapshotPtr> SingleAndMultiSegment() const {
    const db::Row ten = {db::Value("American"), db::Value(10)};
    const db::Row greek = {db::Value("Greek"), db::Value(15)};
    return {IndexSnapshot::Create(app_, BaseBuild()),
            IndexSnapshot::CreateSegmented(
                app_,
                {MakeSegment(BaseBuild()),
                 MakeSegment(MakeBuild({{greek, {{"burger", 1}, {"gyros", 3}}}}),
                             {ten}),
                 MakeSegment(
                     MakeBuild({{ten, {{"burger", 2}, {"brunch", 1}}}}))})};
  }

  webapp::WebAppInfo app_;
  db::Database db_;
};

TEST_F(SegmentTest, EmptyDeltaSegmentIsInvisible) {
  SnapshotPtr snapshot = IndexSnapshot::CreateSegmented(
      app_, {MakeSegment(BaseBuild()), MakeSegment(MakeBuild({}))});
  EXPECT_EQ(snapshot->segment_count(), 2u);
  EXPECT_EQ(snapshot->catalog().size(), 5u);
  ExpectEquivalent(*snapshot, BaseBuild());
}

TEST_F(SegmentTest, AllTombstonesSegmentDeletesFragments) {
  FragmentIndexBuild base = BaseBuild();
  ASSERT_EQ(base.catalog.size(), 5u);
  std::set<db::Row> dead = {base.catalog.id(1), base.catalog.id(3)};
  FragmentIndexBuild expected = FilterBuild(base, dead);

  SnapshotPtr snapshot = IndexSnapshot::CreateSegmented(
      app_, {MakeSegment(std::move(base)),
             MakeSegment(MakeBuild({}),
                         std::vector<db::Row>(dead.begin(), dead.end()))});
  EXPECT_EQ(snapshot->catalog().size(), 3u);
  for (const db::Row& id : dead) {
    EXPECT_FALSE(snapshot->catalog().Find(id).has_value());
  }
  ExpectEquivalent(*snapshot, std::move(expected));
}

TEST_F(SegmentTest, DeleteThenReinsertAcrossSegments) {
  const db::Row target = {db::Value("American"), db::Value(10)};
  SnapshotPtr snapshot = IndexSnapshot::CreateSegmented(
      app_,
      {MakeSegment(BaseBuild()),
       // Segment 2: plain deletion of Burger Queen's fragment.
       MakeSegment(MakeBuild({}), {target}),
       // Segment 3: the identifier comes back with fresh contents.
       MakeSegment(MakeBuild({{target, {{"glorious", 2}, {"shakes", 1}}}}))});
  ASSERT_EQ(snapshot->segment_count(), 3u);
  EXPECT_EQ(snapshot->catalog().size(), 5u);
  auto handle = snapshot->catalog().Find(target);
  ASSERT_TRUE(handle.has_value());
  // The live definition is segment 3's, not the base crawl's (8 keywords).
  EXPECT_EQ(snapshot->catalog().keyword_total(*handle), 3u);
  FragmentIndexBuild merged = snapshot->MergedBuild();
  EXPECT_EQ(merged.index.Df("glorious"), 1u);
  // "queen" occurred only in the replaced definition.
  EXPECT_EQ(merged.index.Df("queen"), 0u);

  std::vector<SearchResult> results = snapshot->Search({"glorious"}, 5, 1);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].fragments, std::vector<FragmentHandle>{*handle});
}

TEST_F(SegmentTest, DefinitionBeatsOwnSegmentTombstone) {
  // One segment both tombstones and redefines the same identifier: the
  // tombstone only kills *older* definitions, so delete-then-reinsert
  // within a single update collapses into a redefinition.
  const db::Row target = {db::Value("American"), db::Value(10)};
  SnapshotPtr snapshot = IndexSnapshot::CreateSegmented(
      app_,
      {MakeSegment(BaseBuild()),
       MakeSegment(MakeBuild({{target, {{"reborn", 4}}}}), {target})});
  EXPECT_EQ(snapshot->catalog().size(), 5u);
  auto handle = snapshot->catalog().Find(target);
  ASSERT_TRUE(handle.has_value());
  EXPECT_EQ(snapshot->catalog().keyword_total(*handle), 4u);
  EXPECT_EQ(snapshot->MergedBuild().index.Df("reborn"), 1u);
}

TEST_F(SegmentTest, MergeSegmentsEqualsRebuild) {
  const db::Row ten = {db::Value("American"), db::Value(10)};
  const db::Row twelve = {db::Value("American"), db::Value(12)};
  SegmentPtr d1 = MakeSegment(MakeBuild({{ten, {{"brunch", 3}}}}), {twelve});
  SegmentPtr d2 = MakeSegment(MakeBuild({{twelve, {{"revived", 1}}}}));

  SnapshotPtr live = IndexSnapshot::CreateSegmented(
      app_, {MakeSegment(BaseBuild()), d1, d2});

  // Folding the two deltas must not change the live view.
  SegmentPtr folded = MergeSegments(*d1, *d2, /*drop_tombstones=*/false);
  SnapshotPtr alt = IndexSnapshot::CreateSegmented(
      app_, {MakeSegment(BaseBuild()), folded});
  EXPECT_EQ(Fingerprint(live->MergedBuild()), Fingerprint(alt->MergedBuild()));
  // d1's tombstone for (American, 12) is absorbed: the fold itself
  // defines that identifier (d2's reinsert), which shadows any older
  // definition, so no tombstone is needed...
  EXPECT_TRUE(folded->tombstones().empty());
  // ...while a tombstone the newer segment does NOT redefine must
  // survive the fold, or the merged segment would resurrect the base's
  // definition.
  SegmentPtr keep = MergeSegments(*d1, *MakeSegment(MakeBuild({})),
                                  /*drop_tombstones=*/false);
  EXPECT_EQ(keep->tombstones(), std::vector<db::Row>{twelve});

  // Folding all the way into the base drops tombstones (nothing older
  // remains) and yields the canonical single-segment build.
  SegmentPtr full = MergeSegments(*MakeSegment(BaseBuild()), *folded,
                                  /*drop_tombstones=*/true);
  EXPECT_TRUE(full->tombstones().empty());
  SnapshotPtr single = IndexSnapshot::CreateSegmented(app_, {full});
  EXPECT_EQ(single->segment_count(), 1u);
  EXPECT_EQ(Fingerprint(single->build()), Fingerprint(live->MergedBuild()));
}

TEST_F(SegmentTest, MultiSegmentSaveLoadRoundTripsByteIdentically) {
  const db::Row ten = {db::Value("American"), db::Value(10)};
  FragmentIndexBuild base = BaseBuild();
  std::set<db::Row> dead = {base.catalog.id(3)};
  SnapshotPtr snapshot = IndexSnapshot::CreateSegmented(
      app_,
      {MakeSegment(std::move(base)),
       MakeSegment(MakeBuild({{ten, {{"rewritten", 2}}}}),
                   std::vector<db::Row>(dead.begin(), dead.end()))});
  ASSERT_EQ(snapshot->segment_count(), 2u);

  std::ostringstream first;
  SaveSnapshot(*snapshot, first);
  std::istringstream in(first.str());
  SnapshotPtr loaded = LoadSnapshot(in);
  // Reload flattens to a fresh base segment...
  EXPECT_EQ(loaded->segment_count(), 1u);
  EXPECT_EQ(Fingerprint(loaded->build()), Fingerprint(snapshot->MergedBuild()));
  // ...and re-saving it reproduces the multi-segment save byte for byte.
  std::ostringstream second;
  SaveSnapshot(*loaded, second);
  EXPECT_EQ(first.str(), second.str());
  for (const std::vector<std::string>& keywords :
       std::vector<std::vector<std::string>>{{"rewritten"}, {"american"}}) {
    ExpectSameResults(snapshot->Search(keywords, 5, 20),
                      loaded->Search(keywords, 5, 20));
  }
}

TEST_F(SegmentTest, CreateSegmentedValidatesInput) {
  EXPECT_THROW(IndexSnapshot::CreateSegmented(app_, {}),
               std::invalid_argument);
  EXPECT_THROW(IndexSnapshot::CreateSegmented(app_, {nullptr}),
               std::invalid_argument);
  EXPECT_THROW(IndexSnapshot::CreateSegmented(
                   app_, {MakeSegment(BaseBuild()), nullptr}),
               std::invalid_argument);
}

TEST_F(SegmentTest, SingleIndexAccessorsThrowOnMultiSegment) {
  SnapshotPtr single = IndexSnapshot::Create(app_, BaseBuild());
  EXPECT_NO_THROW(single->index());
  EXPECT_NO_THROW(single->build());

  SnapshotPtr multi = IndexSnapshot::CreateSegmented(
      app_, {MakeSegment(BaseBuild()), MakeSegment(MakeBuild({}))});
  EXPECT_THROW(multi->index(), std::logic_error);
  EXPECT_THROW(multi->build(), std::logic_error);
}

// A single-segment snapshot has no local→global maps to gather through:
// GatherTerm must hand back the index's own by-fragment span (borrowed,
// not copied) and its IDF, for known and unknown tokens alike.
TEST_F(SegmentTest, GatherTermOnSingleSegmentBorrowsTheIndex) {
  SnapshotPtr single = IndexSnapshot::Create(app_, BaseBuild());
  ASSERT_EQ(single->segment_count(), 1u);
  const InvertedFragmentIndex& index = single->index();
  for (std::string_view token : {"burger", "no-such-token"}) {
    util::TermId id = index.FindTerm(token);
    std::span<const Posting> want = index.PostingsByFragment(id);
    TermPlan plan = single->GatherTerm(token);
    EXPECT_EQ(plan.idf, index.IdfId(id)) << token;
    EXPECT_TRUE(std::ranges::equal(plan.postings, want)) << token;
    if (!want.empty()) {
      EXPECT_EQ(plan.postings.data(), want.data()) << token;
    }
  }
  EXPECT_FALSE(single->GatherTerm("burger").postings.empty());
}

// Shard slices partition GatherTerm: for every S, the S slices' spans are
// fragment-ascending, hold only fragments their shard owns, are pairwise
// disjoint and union to the unsliced span, and each carries the unsliced
// (global live) IDF — over one segment and over a multi-segment merge.
TEST_F(SegmentTest, ShardSlicesPartitionGatherTerm) {
  for (const SnapshotPtr& snapshot : SingleAndMultiSegment()) {
    const std::size_t segments = snapshot->segment_count();
    for (const auto& [token, df] : snapshot->MergedBuild().index.KeywordsByDf()) {
      IndexSnapshot::ReclaimGatherScratch();
      TermPlan whole = snapshot->GatherTerm(token);
      const std::vector<Posting> want(whole.postings.begin(),
                                      whole.postings.end());
      ASSERT_EQ(want.size(), df) << token;
      for (std::size_t count : {1u, 2u, 3u, 5u}) {
        std::vector<Posting> joined;
        for (std::size_t shard = 0; shard < count; ++shard) {
          TermPlan part = snapshot->GatherTerm(token, {shard, count});
          EXPECT_EQ(part.idf, whole.idf)
              << token << " " << shard << "/" << count << " of " << segments;
          for (std::size_t i = 0; i < part.postings.size(); ++i) {
            const FragmentHandle f = part.postings[i].fragment;
            EXPECT_EQ(snapshot->graph().ShardOf(f, count), shard) << token;
            if (i > 0) {
              EXPECT_LT(part.postings[i - 1].fragment, f) << token;
            }
          }
          joined.insert(joined.end(), part.postings.begin(),
                        part.postings.end());
        }
        std::sort(joined.begin(), joined.end(),
                  [](const Posting& a, const Posting& b) {
                    return a.fragment < b.fragment;
                  });
        // Equal sizes with no duplicates in `want` also prove the slices
        // disjoint: a fragment in two slices would appear twice here.
        EXPECT_EQ(joined, want) << token << " S=" << count << " over "
                                << segments << " segment(s)";
      }
    }
  }
}

// /shardstats requests resolve through GatherTerm outside any Search, so
// ShardedEngine::TermStats must reclaim the gather scratch itself: once the
// thread is warm, repeated probes allocate nothing.
TEST_F(SegmentTest, RepeatedTermStatsReuseGatherScratch) {
  for (const SnapshotPtr& snapshot : SingleAndMultiSegment()) {
    const ShardedEngine view(snapshot, 3);
    std::uint64_t df = 0;
    auto probe = [&] {
      for (std::size_t shard = 0; shard < view.shard_count(); ++shard) {
        for (const char* token : {"burger", "american", "gyros", "nosuch"}) {
          df += view.TermStats(token, shard).df;
        }
      }
    };
    probe();  // warm-up: sizes this thread's scratch once
    const long before = t_allocations;
    for (int round = 0; round < 50; ++round) probe();
    EXPECT_EQ(t_allocations - before, 0)
        << snapshot->segment_count() << " segment(s)";
    EXPECT_GT(df, 0u);
  }
}

TEST_F(SegmentTest, UpdatableIndexAccumulatesAndCompactsSegments) {
  UpdatableIndex updatable(dash::testing::MakeFoodDb(), app_);
  EXPECT_EQ(updatable.segment_count(), 1u);
  for (int i = 0; i < 12; ++i) {
    updatable.Insert("comment",
                     {400 + i, 1 + (i % 7), 109, "extra note", "01/12"});
  }
  // Tiered compaction keeps the stack logarithmic, not one segment per op.
  EXPECT_LE(updatable.segment_count(), 5u);
  EXPECT_GT(updatable.compactions(), 0u);
  EXPECT_EQ(updatable.snapshot()->segment_count(), updatable.segment_count());
  // The merged live view still equals a full rebuild after every burst.
  Crawler rebuild(updatable.database(), app_.query);
  EXPECT_EQ(Fingerprint(updatable.build()), Fingerprint(rebuild.BuildIndex()));
}

TEST_F(SegmentTest, RebuildPerUpdateKeepsSingleSegment) {
  UpdateOptions options;
  options.rebuild_per_update = true;
  UpdatableIndex updatable(dash::testing::MakeFoodDb(), app_, options);
  for (int i = 0; i < 4; ++i) {
    updatable.Insert("comment",
                     {500 + i, 1 + (i % 7), 109, "extra note", "01/12"});
  }
  EXPECT_EQ(updatable.segment_count(), 1u);
  EXPECT_EQ(updatable.compactions(), 0u);
  EXPECT_NO_THROW(updatable.snapshot()->index());
  Crawler rebuild(updatable.database(), app_.query);
  EXPECT_EQ(Fingerprint(updatable.build()), Fingerprint(rebuild.BuildIndex()));
}

}  // namespace
}  // namespace dash::core
