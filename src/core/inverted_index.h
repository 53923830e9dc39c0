// The inverted fragment index (paper Sections II and V, Figure 6).
//
// Structurally a conventional inverted file, but it indexes *fragment
// identifiers* instead of page URLs: for each keyword w, a posting list of
// (fragment, occurrences) sorted by occurrences descending, so high-TF
// fragments sit at the head of the list and IDF_w falls out as the inverse
// of the list length (Section VI's approximation).
//
// Storage layout: keywords are interned into dense TermIds (util/term_dict.h)
// and, after Finalize, all posting lists live in two contiguous pools
// addressed by per-term (offset, length) spans — one pool in the classic
// TF-descending order, one re-sorted by fragment handle so the searcher can
// binary-search occurrences without copying lists at query time. Before
// Finalize postings accumulate in per-term growth vectors. The third order
// the searcher reads — normalised TF descending, the order it seeds in —
// is not kept here: IndexSegment derives it once per serving segment
// (index_segment.h), so crawls and rebuilds that never serve don't pay it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/fragment.h"
#include "util/term_dict.h"

namespace dash::util {
class ThreadPool;
}

namespace dash::core {

struct Posting {
  FragmentHandle fragment = 0;
  std::uint32_t occurrences = 0;

  friend bool operator==(const Posting&, const Posting&) = default;
};

// A posting's normalised TF, occurrences / the fragment's keyword total:
// the key of the per-term seed order (see IndexSegment::SeedOrder). A
// single-fragment page scores sum_w IDF_w * SeedRatio, so a term's
// postings in descending SeedRatio are its seeds in descending score
// contribution. 0 for an empty fragment, which scores 0.
inline double SeedRatio(std::uint32_t occurrences,
                        std::uint64_t keyword_total) {
  return keyword_total == 0 ? 0.0
                            : static_cast<double>(occurrences) /
                                  static_cast<double>(keyword_total);
}

class InvertedFragmentIndex {
 public:
  // Accumulates occurrences of `keyword` in `fragment` (repeat calls for
  // the same pair add up, matching MR consolidation semantics).
  void AddOccurrences(std::string_view keyword, FragmentHandle fragment,
                      std::uint32_t occurrences);

  // Sorts every posting list (occurrences desc, fragment asc as the
  // deterministic tiebreak), deduplicates accumulated pairs, flattens the
  // lists into the contiguous pools, and credits each fragment's keyword
  // total in `catalog`. Must be called exactly once after the last
  // AddOccurrences. When `pool` is given the per-term sort/merge work is
  // distributed across it (the result is bit-identical: terms are
  // independent and catalog crediting stays sequential).
  void Finalize(FragmentCatalog* catalog,
                util::ThreadPool* pool = nullptr);

  // Remaps fragment handles after FragmentCatalog::Canonicalize.
  void RemapFragments(const std::vector<FragmentHandle>& mapping);

  // Posting list for `keyword`; empty when absent. Valid after Finalize.
  // Allocation-free: the probe is a heterogeneous string_view lookup.
  std::span<const Posting> Lookup(std::string_view keyword) const {
    return LookupId(dict_.Find(keyword));
  }

  // Id-addressed variants for the query path (intern once, then hit
  // contiguous spans).
  util::TermId FindTerm(std::string_view keyword) const {
    return dict_.Find(keyword);
  }
  std::span<const Posting> LookupId(util::TermId term) const;
  // Same postings re-sorted by fragment handle (for binary search).
  std::span<const Posting> PostingsByFragment(util::TermId term) const;

  // Document frequency: number of fragments containing `keyword`.
  std::size_t Df(std::string_view keyword) const {
    return Lookup(keyword).size();
  }

  // IDF approximation of Section VI: 1 / df (0 for unknown keywords).
  double Idf(std::string_view keyword) const;
  double IdfId(util::TermId term) const;

  const util::TermDict& dict() const { return dict_; }

  std::size_t keyword_count() const { return dict_.size(); }
  std::size_t posting_count() const;
  std::size_t SizeBytes() const;

  // All keywords with their document frequencies (used to derive the
  // cold/warm/hot buckets of the evaluation).
  std::vector<std::pair<std::string, std::size_t>> KeywordsByDf() const;

  // Deterministic dump for cross-algorithm equality tests.
  std::string ToDebugString(const FragmentCatalog& catalog,
                            std::size_t max_keywords = 0) const;

 private:
  struct TermSpan {
    std::size_t offset = 0;
    std::uint32_t length = 0;
  };

  util::TermDict dict_;
  // Pre-Finalize accumulation, one growth vector per TermId.
  std::vector<std::vector<Posting>> building_;
  // Post-Finalize flat storage: spans_[id] addresses both pools.
  std::vector<TermSpan> spans_;
  std::vector<Posting> pool_;          // TF desc, fragment asc
  std::vector<Posting> by_fragment_;   // fragment asc
  bool finalized_ = false;
};

// A built fragment index: catalog + inverted index. The fragment graph is
// built separately (its build time is Table IV's own experiment).
struct FragmentIndexBuild {
  FragmentCatalog catalog;
  InvertedFragmentIndex index;
};

}  // namespace dash::core
