// LSM-style index segments (ROADMAP item 3; DESIGN.md §14).
//
// A segment is an immutable slice of the fragment index: a finalized
// FragmentIndexBuild (its own canonical catalog + inverted index over
// *local* handles) plus a sorted tombstone list of fragment identifiers it
// deletes from older segments. A snapshot is an ordered list of segments,
// oldest first; the live definition of an identifier is the one in the
// newest segment that defines it, unless an even newer segment tombstones
// it. Within one segment a definition always wins over that segment's own
// tombstones — a tombstone only kills *older* definitions, so
// delete-then-reinsert collapses into a plain redefinition.
//
// Segments are immutable after MakeSegment and shared by shared_ptr, so
// appending a delta or installing a compaction result builds a new
// segment vector aside and republishes the snapshot — readers never see a
// half-merged state (same discipline as IndexSnapshot itself).
//
// Construction also derives each term's *seed order* (SeedOrder below):
// the order in which the top-k walk pulls seeds, computed once here so no
// query sorts or scores a whole posting list before its first pop.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/inverted_index.h"
#include "db/value.h"
#include "util/analysis_annotations.h"

namespace dash::core {

// Local handle value meaning "shadowed or tombstoned by a newer segment"
// in segment-to-global handle maps.
inline constexpr FragmentHandle kDeadFragment = ~FragmentHandle{0};

class IndexSegment {
 public:
  // `build` must be finalized with a canonical (ascending-identifier)
  // catalog; `tombstones` is sorted + deduplicated here.
  IndexSegment(FragmentIndexBuild build, std::vector<db::Row> tombstones);

  const FragmentIndexBuild& build() const { return build_; }
  const FragmentCatalog& catalog() const { return build_.catalog; }
  const InvertedFragmentIndex& index() const { return build_.index; }
  const std::vector<db::Row>& tombstones() const { return tombstones_; }

  // Whether this segment tombstones `id` (binary search; tombstones are
  // sorted ascending).
  bool TombstoneFor(const db::Row& id) const;

  // Term `term`'s seed order: positions into index().PostingsByFragment(
  // term), sorted by SeedRatio descending, position (= fragment) ascending
  // on ties. Same length as that span; empty for an unknown term. 4 bytes
  // per posting, computed once at construction.
  std::span<const std::uint32_t> SeedOrder(util::TermId term) const;

  // Size used by the tiered compaction policy: definitions + tombstones.
  std::size_t weight() const {
    return build_.catalog.size() + tombstones_.size();
  }

 private:
  FragmentIndexBuild build_;
  std::vector<db::Row> tombstones_;  // ascending, unique
  // All terms' seed orders back to back; term t's is
  // [seed_offset_[t], seed_offset_[t + 1]).
  std::vector<std::uint32_t> seed_order_;
  std::vector<std::size_t> seed_offset_;
};

using SegmentPtr = std::shared_ptr<const IndexSegment>;

SegmentPtr MakeSegment(FragmentIndexBuild build,
                       std::vector<db::Row> tombstones = {});

// Compaction: folds two adjacent segments (`older` immediately below
// `newer` in a snapshot's segment list) into one equivalent segment. The
// merged segment defines every identifier live within the pair — newer's
// definitions plus older's definitions that newer neither redefines nor
// tombstones — rebuilt as one canonical finalized build, and carries the
// union of both tombstone sets minus its own definitions (so it still
// kills the same older-segment state the pair killed). With
// `drop_tombstones` (merging into the base: nothing older remains) the
// tombstone set is emptied instead.
//
// Cost is O(|older| + |newer|): the whole point of the tiered policy is
// that this runs on geometrically-sized pairs, off the serving path —
// hence the cold-path marker, which dash_analyze audits as the sanctioned
// hot/cold boundary when a publisher root reaches compaction.
SegmentPtr MergeSegments(const IndexSegment& older, const IndexSegment& newer,
                         bool drop_tombstones) DASH_COLD_PATH;

}  // namespace dash::core
