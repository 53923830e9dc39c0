#include "core/index_snapshot.h"

#include <atomic>
#include <stdexcept>
#include <utility>

namespace dash::core {

namespace {

// Process-wide generation source (see NextSnapshotGeneration in the
// header for why it is global rather than per publisher).
std::atomic<std::uint64_t> g_next_generation{0};

// Per-thread gather scratch: one posting buffer and one seed-order buffer
// per query term, reused across queries so GatherTerm is allocation-free
// in steady state (the same arena discipline as TopKSearcher's walk
// scratch). A Search resets `used` before constructing its searcher; every
// span GatherTerm hands out then stays untouched until the *next* Search
// on this thread begins, which is after the current one returned —
// searches never nest on a thread. Callers of GatherTerm outside Search
// reset it the same way (IndexSnapshot::ReclaimGatherScratch).
struct GatherScratch {
  struct TermBuffers {
    std::vector<Posting> postings;
    std::vector<std::uint32_t> seed_order;
  };
  std::vector<TermBuffers> buffers;
  std::size_t used = 0;
  // Where each source posting landed in the gathered span (kNotKept when
  // dead or outside the slice), per segment at its `base` offset; the
  // source seed orders are translated through it. Reused across terms.
  std::vector<std::uint32_t> landed;
  // Per-segment merge state, reused across terms.
  struct Source {
    std::span<const Posting> postings;
    std::span<const std::uint32_t> seed_order;
    const FragmentHandle* map = nullptr;  // local -> global handles
    const FragmentCatalog* catalog = nullptr;
    std::size_t base = 0;  // offset into `landed`
    std::size_t cursor = 0;
  };
  std::vector<Source> sources;
};

constexpr std::uint32_t kNotKept = ~std::uint32_t{0};

thread_local GatherScratch g_gather;

}  // namespace

std::uint64_t NextSnapshotGeneration() {
  return g_next_generation.fetch_add(1, std::memory_order_relaxed) + 1;
}

IndexSnapshot::IndexSnapshot(webapp::WebAppInfo app, bool has_app,
                             std::vector<sql::SelectionAttribute> selection,
                             std::vector<SegmentPtr> segments)
    : app_(std::move(app)),
      has_app_(has_app),
      selection_(std::move(selection)),
      segments_(std::move(segments)),
      generation_(NextSnapshotGeneration()) {
  if (segments_.empty()) {
    throw std::invalid_argument("IndexSnapshot: need at least one segment");
  }
  for (const SegmentPtr& seg : segments_) {
    if (seg == nullptr) {
      throw std::invalid_argument("IndexSnapshot: segment must not be null");
    }
  }

  if (segments_.size() == 1) {
    // Base-only fast path: the segment's catalog IS the live catalog (a
    // base segment's tombstones have nothing older to kill).
    catalog_view_ = &segments_[0]->catalog();
  } else {
    // Liveness walk as a k-way merge: every segment catalog and every
    // tombstone list is already sorted ascending by identifier, so the
    // live view falls out of one synchronized sweep — per distinct id,
    // the newest defining segment wins unless an even newer segment
    // tombstones it (a segment's own tombstone never kills its own
    // definition). Identifiers are visited in ascending order, which IS
    // the canonical catalog construction, so global handles agree with
    // any rebuilt view of the same live state. Compared to a map-based
    // walk this copies no identifier rows and allocates nothing beyond
    // the interned survivors — it runs on every delta publication, so
    // its cost bounds sustained write throughput.
    const std::size_t n = segments_.size();
    seg_to_global_.resize(n);
    std::vector<FragmentHandle> def_cursor(n, 0);
    std::vector<std::size_t> tomb_cursor(n, 0);
    std::size_t upper = 0;  // live fragments <= sum of segment sizes
    for (std::size_t s = 0; s < n; ++s) {
      seg_to_global_[s].assign(segments_[s]->catalog().size(), kDeadFragment);
      upper += segments_[s]->catalog().size();
    }
    merged_catalog_.Reserve(upper);
    for (;;) {
      // The smallest identifier any cursor still points at.
      const db::Row* min_id = nullptr;
      for (std::size_t s = 0; s < n; ++s) {
        const IndexSegment& seg = *segments_[s];
        if (def_cursor[s] < seg.catalog().size()) {
          const db::Row& id = seg.catalog().id(def_cursor[s]);
          if (min_id == nullptr || id < *min_id) min_id = &id;
        }
        if (tomb_cursor[s] < seg.tombstones().size()) {
          const db::Row& id = seg.tombstones()[tomb_cursor[s]];
          if (min_id == nullptr || id < *min_id) min_id = &id;
        }
      }
      if (min_id == nullptr) break;
      // Resolve this identifier across all segments and advance every
      // cursor sitting on it. Walking s ascending leaves def_seg/def_f
      // at the newest definition.
      std::size_t def_seg = n;
      FragmentHandle def_f = 0;
      std::size_t tomb_seg = 0;  // newest tombstoning segment + 1
      for (std::size_t s = 0; s < n; ++s) {
        const IndexSegment& seg = *segments_[s];
        if (def_cursor[s] < seg.catalog().size() &&
            seg.catalog().id(def_cursor[s]) == *min_id) {
          def_seg = s;
          def_f = def_cursor[s]++;
        }
        if (tomb_cursor[s] < seg.tombstones().size() &&
            seg.tombstones()[tomb_cursor[s]] == *min_id) {
          tomb_seg = s + 1;
          ++tomb_cursor[s];
        }
      }
      // Live iff some segment defines it and no strictly newer segment
      // tombstones it (tomb_seg == def_seg + 1 is the same segment:
      // definition wins over its own tombstone).
      if (def_seg == n || tomb_seg > def_seg + 1) continue;
      const FragmentCatalog& src = segments_[def_seg]->catalog();
      FragmentHandle g = merged_catalog_.Intern(src.id(def_f));
      merged_catalog_.AddKeywords(g, src.keyword_total(def_f));
      merged_catalog_.MixContentHash(g, src.content_hash(def_f));
      seg_to_global_[def_seg][def_f] = g;
    }
    catalog_view_ = &merged_catalog_;
  }

  std::size_t num_eq = 0;
  for (const sql::SelectionAttribute& a : selection_) {
    if (!a.is_range) ++num_eq;
  }
  graph_ = FragmentGraph::Build(*catalog_view_, num_eq,
                                selection_.size() - num_eq);
}

SnapshotPtr IndexSnapshot::Create(webapp::WebAppInfo app,
                                  FragmentIndexBuild build) {
  std::vector<sql::SelectionAttribute> selection =
      app.query.SelectionAttributes();
  return Create(std::move(app), std::move(selection), std::move(build));
}

SnapshotPtr IndexSnapshot::Create(
    webapp::WebAppInfo app, std::vector<sql::SelectionAttribute> selection,
    FragmentIndexBuild build) {
  return CreateSegmented(std::move(app), std::move(selection),
                         {MakeSegment(std::move(build))});
}

SnapshotPtr IndexSnapshot::CreateWithoutApp(const sql::PsjQuery& query,
                                            FragmentIndexBuild build) {
  return CreateSegmentedWithoutApp(query, {MakeSegment(std::move(build))});
}

SnapshotPtr IndexSnapshot::CreateSegmented(webapp::WebAppInfo app,
                                           std::vector<SegmentPtr> segments) {
  std::vector<sql::SelectionAttribute> selection =
      app.query.SelectionAttributes();
  return CreateSegmented(std::move(app), std::move(selection),
                         std::move(segments));
}

SnapshotPtr IndexSnapshot::CreateSegmented(
    webapp::WebAppInfo app, std::vector<sql::SelectionAttribute> selection,
    std::vector<SegmentPtr> segments) {
  return SnapshotPtr(new IndexSnapshot(std::move(app), /*has_app=*/true,
                                       std::move(selection),
                                       std::move(segments)));
}

SnapshotPtr IndexSnapshot::CreateSegmentedWithoutApp(
    const sql::PsjQuery& query, std::vector<SegmentPtr> segments) {
  return SnapshotPtr(new IndexSnapshot(webapp::WebAppInfo{},
                                       /*has_app=*/false,
                                       query.SelectionAttributes(),
                                       std::move(segments)));
}

const InvertedFragmentIndex& IndexSnapshot::index() const {
  if (segments_.size() != 1) {
    throw std::logic_error(
        "IndexSnapshot::index: multi-segment snapshot has no single index "
        "(use GatherTerm or MergedBuild)");
  }
  return segments_[0]->index();
}

const FragmentIndexBuild& IndexSnapshot::build() const {
  if (segments_.size() != 1) {
    throw std::logic_error(
        "IndexSnapshot::build: multi-segment snapshot has no single build "
        "(use MergedBuild)");
  }
  return segments_[0]->build();
}

FragmentIndexBuild IndexSnapshot::MergedBuild() const {
  FragmentIndexBuild out;
  const FragmentCatalog& live = *catalog_view_;
  for (FragmentHandle f = 0; f < static_cast<FragmentHandle>(live.size());
       ++f) {
    out.catalog.Intern(live.id(f));
  }
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const InvertedFragmentIndex& index = segments_[s]->index();
    const FragmentHandle* map =
        seg_to_global_.empty() ? nullptr : seg_to_global_[s].data();
    for (const auto& [keyword, df] : index.KeywordsByDf()) {
      (void)df;
      for (const Posting& p : index.Lookup(keyword)) {
        FragmentHandle g = map == nullptr ? p.fragment : map[p.fragment];
        if (g == kDeadFragment) continue;
        out.index.AddOccurrences(keyword, g, p.occurrences);
      }
    }
  }
  out.index.Finalize(&out.catalog);
  return out;
}

TermPlan IndexSnapshot::GatherTerm(std::string_view token,
                                   ShardSlice slice) const {
  auto owned = [&](FragmentHandle f) {
    return slice.count == 1 || graph_.ShardOf(f, slice.count) == slice.index;
  };
  GatherScratch& scratch = g_gather;
  // The next reusable buffer pair. Scratch warm-up: grows once per
  // high-water term count on this thread, then every later query reuses
  // the buffers (clear keeps capacity) — the steady state the hot-path
  // contract is about.
  auto next_buffers = [&](std::size_t capacity) -> GatherScratch::TermBuffers& {
    if (scratch.used == scratch.buffers.size()) scratch.buffers.emplace_back();
    GatherScratch::TermBuffers& out = scratch.buffers[scratch.used++];
    out.postings.clear();
    out.postings.reserve(capacity);
    out.seed_order.clear();
    out.seed_order.reserve(capacity);
    return out;
  };
  if (segments_.size() == 1) {
    // One segment: its own index already holds the live span, df and seed
    // order, so the whole snapshot borrows them — no copy, no scratch, no
    // handle mapping. A proper slice copies out the postings it owns and
    // keeps the seed order's owned positions, renumbered.
    const IndexSegment& segment = *segments_[0];
    const InvertedFragmentIndex& index = segment.index();
    util::TermId id = index.FindTerm(token);
    TermPlan plan{index.IdfId(id), index.PostingsByFragment(id),
                  segment.SeedOrder(id)};
    if (slice.count == 1 || plan.postings.empty()) return plan;
    GatherScratch::TermBuffers& out = next_buffers(plan.postings.size());
    scratch.landed.resize(plan.postings.size());
    for (std::size_t i = 0; i < plan.postings.size(); ++i) {
      const Posting& p = plan.postings[i];
      scratch.landed[i] = kNotKept;
      if (!owned(p.fragment)) continue;
      scratch.landed[i] = static_cast<std::uint32_t>(out.postings.size());
      out.postings.push_back(p);
    }
    for (std::uint32_t pos : plan.seed_order) {
      if (scratch.landed[pos] != kNotKept) {
        out.seed_order.push_back(scratch.landed[pos]);
      }
    }
    plan.postings = {out.postings.data(), out.postings.size()};
    plan.seed_order = {out.seed_order.data(), out.seed_order.size()};
    return plan;
  }
  TermPlan plan;
  scratch.sources.clear();
  std::size_t total = 0;
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const IndexSegment& segment = *segments_[s];
    util::TermId id = segment.index().FindTerm(token);
    std::span<const Posting> span = segment.index().PostingsByFragment(id);
    if (span.empty()) continue;
    scratch.sources.push_back(GatherScratch::Source{
        span, segment.SeedOrder(id), seg_to_global_[s].data(),
        &segment.catalog(), total, 0});
    total += span.size();
  }
  if (scratch.sources.empty()) return plan;
  GatherScratch::TermBuffers& out = next_buffers(total);
  scratch.landed.assign(total, kNotKept);
  // K-way merge on global handle. Each live fragment is defined by
  // exactly one segment (shadowed/tombstoned definitions map to
  // kDeadFragment), so the merge never has to combine duplicates, and
  // segment-local fragment-ascending order maps monotonically to global
  // ascending order (both catalogs are canonical over identifiers). Every
  // live posting counts toward the df; only the slice's are kept.
  std::size_t live = 0;
  for (;;) {
    GatherScratch::Source* best = nullptr;
    FragmentHandle best_g = 0;
    for (GatherScratch::Source& src : scratch.sources) {
      std::size_t& c = src.cursor;
      while (c < src.postings.size() &&
             src.map[src.postings[c].fragment] == kDeadFragment) {
        ++c;
      }
      if (c >= src.postings.size()) continue;
      FragmentHandle g = src.map[src.postings[c].fragment];
      if (best == nullptr || g < best_g) {
        best = &src;
        best_g = g;
      }
    }
    if (best == nullptr) break;
    ++live;
    if (owned(best_g)) {
      scratch.landed[best->base + best->cursor] =
          static_cast<std::uint32_t>(out.postings.size());
      out.postings.push_back(
          Posting{best_g, best->postings[best->cursor].occurrences});
    }
    ++best->cursor;
  }
  if (live > 0) {
    // IDF over the *live* document frequency — exactly what a rebuilt
    // single index would report for this token.
    plan.idf = 1.0 / static_cast<double>(live);
  }
  // K-way merge of the segments' seed orders on (SeedRatio desc, global
  // handle asc), skipping postings the fragment merge did not keep. Each
  // segment's order is already sorted that way (local handles ascend with
  // global ones, and a fragment's keyword total is its defining
  // segment's), so the merge is the order a rebuilt index would derive.
  for (GatherScratch::Source& src : scratch.sources) src.cursor = 0;
  for (;;) {
    GatherScratch::Source* best = nullptr;
    double best_ratio = 0;
    FragmentHandle best_g = 0;
    for (GatherScratch::Source& src : scratch.sources) {
      std::size_t& c = src.cursor;
      while (c < src.seed_order.size() &&
             scratch.landed[src.base + src.seed_order[c]] == kNotKept) {
        ++c;
      }
      if (c >= src.seed_order.size()) continue;
      const Posting& p = src.postings[src.seed_order[c]];
      double ratio =
          SeedRatio(p.occurrences, src.catalog->keyword_total(p.fragment));
      FragmentHandle g = src.map[p.fragment];
      if (best == nullptr || ratio > best_ratio ||
          (ratio == best_ratio && g < best_g)) {
        best = &src;
        best_ratio = ratio;
        best_g = g;
      }
    }
    if (best == nullptr) break;
    out.seed_order.push_back(
        scratch.landed[best->base + best->seed_order[best->cursor++]]);
  }
  plan.postings = {out.postings.data(), out.postings.size()};
  plan.seed_order = {out.seed_order.data(), out.seed_order.size()};
  return plan;
}

void IndexSnapshot::ReclaimGatherScratch() { g_gather.used = 0; }

std::vector<SearchResult> IndexSnapshot::Search(
    const std::vector<std::string>& keywords, int k,
    std::uint64_t min_page_words, std::size_t max_seeds,
    SearchDeadline* deadline, ShardSlice slice, QueryProfile* profile) const {
  // The searcher only binds references into this snapshot, so constructing
  // one per call is free and needs no synchronization. Its plan source
  // captures two pointers (`this`, `&slice`), which std::function stores
  // without allocating. Every term resolves through GatherTerm. Reclaim
  // this thread's gather buffers first — any spans handed to a previous
  // Search on this thread are dead once that call returned (an empty
  // query reclaims them without searching). The walk never leaves an
  // equality group, so seeding only the slice's postings keeps it inside
  // the slice.
  ReclaimGatherScratch();
  TopKSearcher searcher([this, &slice](std::string_view token) {
    return GatherTerm(token, slice);
  }, *catalog_view_, graph_, selection_, has_app_ ? &app_ : nullptr);
  return searcher.Search(keywords, k, min_page_words, max_seeds, deadline,
                         profile);
}

SnapshotPublisher::SnapshotPublisher(SnapshotPtr initial) {
  if (initial != nullptr) Publish(std::move(initial));
}

SnapshotPtr SnapshotPublisher::Current() const {
  return current_.load(std::memory_order_acquire);
}

void SnapshotPublisher::Publish(SnapshotPtr next) {
  if (next == nullptr) {
    throw std::invalid_argument("Publish: snapshot must not be null");
  }
  // Compare-exchange loop: the monotone-generation check must be made
  // against the exact value being replaced, or two racing publishers could
  // both pass the check and the later install could move generations
  // backwards.
  SnapshotPtr expected = current_.load(std::memory_order_acquire);
  for (;;) {
    if (expected != nullptr && next->generation() <= expected->generation()) {
      throw std::logic_error("Publish: generations must increase");
    }
    if (current_.compare_exchange_weak(expected, next,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return;
    }
  }
}

std::uint64_t SnapshotPublisher::CurrentGeneration() const {
  SnapshotPtr current = current_.load(std::memory_order_acquire);
  return current == nullptr ? 0 : current->generation();
}

}  // namespace dash::core
