// The immutable serving artifact and its publication point.
//
// Every serving layer (DashEngine, ShardedEngine, CachingEngine,
// UpdatableIndex, MultiAppEngine, index_io) reads index state through one
// type: an IndexSnapshot bundling an ordered set of immutable index
// *segments* (see index_segment.h), the global fragment graph over the
// live fragments, the web-application info / query-string codec, and a
// generation id. Snapshots are immutable after construction and held by
// shared_ptr<const IndexSnapshot>, so
//
//   * readers acquire a snapshot once per query (one shared_ptr copy) and
//     then run entirely lock-free — a search can never observe a torn
//     index, only a whole snapshot from before or after an update;
//   * builders (UpdatableIndex, a reload) prepare the next snapshot off to
//     the side and hand it to a SnapshotPublisher, whose Publish() is an
//     atomic pointer swap — writers never block readers;
//   * caches key validity on the generation id: generations come from one
//     process-wide counter, so a (generation, query) pair identifies its
//     result set uniquely across all engines and no manual invalidation
//     call is needed.
//
// Segmented form (DESIGN.md §14): a snapshot holds base + delta segments,
// newest last. Construction derives the *live view* once — a canonical
// global catalog of the surviving fragments, per-segment local→global
// handle maps, and the fragment graph over exactly the live set — so
// Search answers are bit-identical to a single-segment rebuild of the
// same live state. The single-segment case (every full crawl, every
// loaded file) borrows the segment's own catalog with zero overhead.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fragment_graph.h"
#include "core/index_segment.h"
#include "core/inverted_index.h"
#include "core/topk_search.h"
#include "sql/psj_query.h"
#include "util/analysis_annotations.h"
#include "webapp/query_string.h"

namespace dash::core {

class IndexSnapshot;
using SnapshotPtr = std::shared_ptr<const IndexSnapshot>;

// Next process-wide generation id (strictly increasing, starting at 1,
// never reused — not per publisher, so generations of unrelated engines
// never collide in a shared cache).
std::uint64_t NextSnapshotGeneration();

// Shard `index` of `count`: the fragments whose equality group the graph
// assigns to that shard (FragmentGraph::ShardOf). The default, {0, 1}, is
// the whole snapshot.
struct ShardSlice {
  std::size_t index = 0;
  std::size_t count = 1;
};

class IndexSnapshot {
 public:
  // Builds a single-segment snapshot from a finalized index build.
  // `selection` must match the catalog's identifier layout; the
  // two-argument form derives it from the application's crawling query.
  // The fragment graph is constructed here — after Create returns, the
  // snapshot is fully self-contained.
  static SnapshotPtr Create(webapp::WebAppInfo app, FragmentIndexBuild build);
  static SnapshotPtr Create(webapp::WebAppInfo app,
                            std::vector<sql::SelectionAttribute> selection,
                            FragmentIndexBuild build);
  // App-less snapshot (no URL formulation; Search leaves `url` empty), for
  // updaters constructed from a bare crawling query.
  static SnapshotPtr CreateWithoutApp(const sql::PsjQuery& query,
                                      FragmentIndexBuild build);

  // Segmented forms: `segments` is oldest-first (base, then deltas) and
  // must be non-empty with no null entries.
  static SnapshotPtr CreateSegmented(webapp::WebAppInfo app,
                                     std::vector<SegmentPtr> segments);
  static SnapshotPtr CreateSegmented(
      webapp::WebAppInfo app, std::vector<sql::SelectionAttribute> selection,
      std::vector<SegmentPtr> segments);
  static SnapshotPtr CreateSegmentedWithoutApp(
      const sql::PsjQuery& query, std::vector<SegmentPtr> segments);

  std::uint64_t generation() const { return generation_; }
  bool has_app() const { return has_app_; }
  // Valid only when has_app().
  const webapp::WebAppInfo& app() const { return app_; }

  // The catalog of *live* fragments: the single segment's own catalog, or
  // the derived global catalog of a multi-segment set. Always canonical
  // (handles ascend with identifiers), so handles compare consistently
  // with every rebuilt view of the same live state.
  const FragmentCatalog& catalog() const { return *catalog_view_; }
  // Single-segment only (the common serving shape); a multi-segment
  // snapshot has no single inverted index and throws std::logic_error —
  // use GatherTerm/MergedBuild instead.
  const InvertedFragmentIndex& index() const;
  const FragmentIndexBuild& build() const;
  const FragmentGraph& graph() const { return graph_; }
  const std::vector<sql::SelectionAttribute>& selection() const {
    return selection_;
  }

  const std::vector<SegmentPtr>& segments() const { return segments_; }
  std::size_t segment_count() const { return segments_.size(); }

  // Rebuilds the live state as one canonical finalized build (handles
  // equal to catalog()'s). Cold: used by save/load and the updater's
  // build() accessor — bit-identical to a from-scratch rebuild of the same
  // fragments.
  FragmentIndexBuild MergedBuild() const DASH_COLD_PATH;

  // Top-k search against this snapshot (Algorithm 1; see topk_search.h for
  // the parameters, including the optional per-request deadline and work
  // profile). Lock-free
  // and safe from any number of threads. Every snapshot runs one best-first
  // walk with its terms resolved by GatherTerm, so a multi-segment answer
  // is the exact global top-k over the merged live view, not a per-segment
  // approximation. With a `slice`, the walk seeds only that shard's
  // fragments: the shard's local top-k, one scatter leg of a sharded
  // search. Each call first reclaims this thread's gather scratch, even
  // for an empty query.
  std::vector<SearchResult> Search(const std::vector<std::string>& keywords,
                                   int k, std::uint64_t min_page_words,
                                   std::size_t max_seeds = 0,
                                   SearchDeadline* deadline = nullptr,
                                   ShardSlice slice = {},
                                   QueryProfile* profile = nullptr) const;

  // Resolves one query token to its live IDF, the fragment-ascending
  // span of the postings `slice` owns, and that span's seed order (the
  // TermPlanSource behind Search). The IDF is always the global live one:
  // a slice narrows the span, never the document frequency. A
  // single-segment snapshot borrows its segment's own span, seed order
  // and IDF, and for a proper slice copies the owned postings into gather
  // scratch and keeps the seed order's owned positions. A multi-segment
  // snapshot gathers: it resolves the token against every segment and
  // k-way-merges the surviving postings (local handles mapped to global,
  // shadowed/tombstoned definitions masked, the slice filter applied in
  // the merge) into one span with the exact global IDF, then k-way-merges
  // the segments' seed orders over the kept postings. Scratch-backed
  // spans stay valid until this thread's next ReclaimGatherScratch (which
  // every Search begins with).
  // Hot: this is the per-term serving path, so dash_analyze holds it to
  // the same purity contract as TopKSearcher::Search (the scratch is
  // capacity-reusing, steady-state allocation-free).
  TermPlan GatherTerm(std::string_view token, ShardSlice slice = {}) const
      DASH_HOT_PATH;

  // Hands this thread's gather scratch back for reuse, invalidating every
  // span GatherTerm returned on this thread. Search calls it first; a
  // caller of GatherTerm outside Search calls it before each batch of
  // terms, or the scratch grows by one buffer per term.
  static void ReclaimGatherScratch();

 private:
  IndexSnapshot(webapp::WebAppInfo app, bool has_app,
                std::vector<sql::SelectionAttribute> selection,
                std::vector<SegmentPtr> segments);

  webapp::WebAppInfo app_;
  bool has_app_ = false;
  std::vector<sql::SelectionAttribute> selection_;
  std::vector<SegmentPtr> segments_;  // oldest first
  // Multi-segment only: derived global catalog over live fragments and
  // per-segment local→global maps (kDeadFragment = shadowed/tombstoned).
  FragmentCatalog merged_catalog_;
  std::vector<std::vector<FragmentHandle>> seg_to_global_;
  // Points at segments_[0]'s catalog (single segment) or merged_catalog_.
  const FragmentCatalog* catalog_view_ = nullptr;
  FragmentGraph graph_;
  std::uint64_t generation_ = 0;
};

// The swap point between one builder and any number of readers. Current()
// sits on the per-request serving hot path, so the slot is a
// std::atomic<shared_ptr>: a read costs one reference-count bump with no
// util::Mutex anywhere near it (dash_analyze enforces that — Current() is
// a DASH_HOT_PATH root). Publish() is a compare-exchange loop on the rare
// writer side. Generations must increase monotonically across
// publications — feeding a stale snapshot back is a logic error and
// throws.
class SnapshotPublisher {
 public:
  SnapshotPublisher() = default;
  explicit SnapshotPublisher(SnapshotPtr initial);

  // The most recently published snapshot (null before the first Publish).
  SnapshotPtr Current() const DASH_HOT_PATH;

  // Atomically replaces the served snapshot. In-flight readers keep their
  // acquired snapshot alive via its reference count; new readers see
  // `next` immediately.
  void Publish(SnapshotPtr next);

  // Generation of the current snapshot; 0 when nothing is published.
  std::uint64_t CurrentGeneration() const;

 private:
  std::atomic<SnapshotPtr> current_{nullptr};
};

}  // namespace dash::core
