#include "core/index_segment.h"

#include <algorithm>
#include <bit>
#include <map>
#include <utility>

namespace dash::core {

IndexSegment::IndexSegment(FragmentIndexBuild build,
                           std::vector<db::Row> tombstones)
    : build_(std::move(build)), tombstones_(std::move(tombstones)) {
  std::sort(tombstones_.begin(), tombstones_.end());
  tombstones_.erase(std::unique(tombstones_.begin(), tombstones_.end()),
                    tombstones_.end());

  // Seed orders. Each term sorts one packed integer per posting — its
  // SeedRatio rounded to float (non-negative floats order like their bit
  // patterns; complemented for descending) above its position — which is
  // ~1.5x cheaper than a comparator over (ratio, position) pairs. Rounding
  // never swaps two ratios, it can only merge distinct ones into one key,
  // so a run of equal keys is re-sorted on the exact ratios in the rare
  // case it mixes distinct ones.
  const InvertedFragmentIndex& index = build_.index;
  const std::size_t terms = index.keyword_count();
  seed_offset_.reserve(terms + 1);
  seed_order_.reserve(index.posting_count());
  std::vector<double> ratio;
  std::vector<std::uint64_t> packed;
  for (std::size_t t = 0; t < terms; ++t) {
    seed_offset_.push_back(seed_order_.size());
    std::span<const Posting> span =
        index.PostingsByFragment(static_cast<util::TermId>(t));
    ratio.clear();
    packed.clear();
    for (std::size_t i = 0; i < span.size(); ++i) {
      ratio.push_back(
          SeedRatio(span[i].occurrences,
                    build_.catalog.keyword_total(span[i].fragment)));
      auto key = std::bit_cast<std::uint32_t>(static_cast<float>(ratio[i]));
      packed.push_back(std::uint64_t{~key} << 32 | i);
    }
    std::sort(packed.begin(), packed.end());
    const std::size_t first = seed_order_.size();
    for (std::uint64_t v : packed) {
      seed_order_.push_back(static_cast<std::uint32_t>(v));
    }
    std::uint32_t* order = seed_order_.data() + first;
    for (std::size_t run = 0, end = 0; run < packed.size(); run = end) {
      end = run + 1;
      bool mixed = false;
      while (end < packed.size() && packed[end] >> 32 == packed[run] >> 32) {
        mixed = mixed || ratio[order[end]] != ratio[order[run]];
        ++end;
      }
      if (!mixed) continue;
      std::sort(order + run, order + end,
                [&](std::uint32_t a, std::uint32_t b) {
                  return ratio[a] != ratio[b] ? ratio[a] > ratio[b] : a < b;
                });
    }
  }
  seed_offset_.push_back(seed_order_.size());
}

bool IndexSegment::TombstoneFor(const db::Row& id) const {
  return std::binary_search(tombstones_.begin(), tombstones_.end(), id);
}

std::span<const std::uint32_t> IndexSegment::SeedOrder(
    util::TermId term) const {
  if (term == util::kInvalidTermId || term + std::size_t{1} >=
                                          seed_offset_.size()) {
    return {};
  }
  return {seed_order_.data() + seed_offset_[term],
          seed_offset_[term + 1] - seed_offset_[term]};
}

SegmentPtr MakeSegment(FragmentIndexBuild build,
                       std::vector<db::Row> tombstones) {
  return std::make_shared<const IndexSegment>(std::move(build),
                                              std::move(tombstones));
}

SegmentPtr MergeSegments(const IndexSegment& older, const IndexSegment& newer,
                         bool drop_tombstones) {
  // Which (segment, local handle) defines each surviving identifier. A
  // std::map iterates identifiers in ascending order, so interning in
  // iteration order below yields a canonical merged catalog directly —
  // the same construction CopyBuild and index_io::LoadSnapshot use, which
  // is what makes merge ≡ rebuild hold bit-for-bit.
  std::map<db::Row, std::pair<const IndexSegment*, FragmentHandle>> defs;
  for (FragmentHandle f = 0; f < newer.catalog().size(); ++f) {
    defs.emplace(newer.catalog().id(f), std::make_pair(&newer, f));
  }
  for (FragmentHandle f = 0; f < older.catalog().size(); ++f) {
    const db::Row& id = older.catalog().id(f);
    if (defs.contains(id) || newer.TombstoneFor(id)) continue;
    defs.emplace(id, std::make_pair(&older, f));
  }

  FragmentIndexBuild merged;
  std::vector<FragmentHandle> older_map(older.catalog().size(),
                                        kDeadFragment);
  std::vector<FragmentHandle> newer_map(newer.catalog().size(),
                                        kDeadFragment);
  for (const auto& [id, src] : defs) {
    FragmentHandle g = merged.catalog.Intern(id);
    (src.first == &older ? older_map : newer_map)[src.second] = g;
  }
  for (const auto* seg : {&older, &newer}) {
    const std::vector<FragmentHandle>& map =
        seg == &older ? older_map : newer_map;
    for (const auto& [keyword, df] : seg->index().KeywordsByDf()) {
      (void)df;
      for (const Posting& p : seg->index().Lookup(keyword)) {
        FragmentHandle g = map[p.fragment];
        if (g == kDeadFragment) continue;
        merged.index.AddOccurrences(keyword, g, p.occurrences);
      }
    }
  }
  merged.index.Finalize(&merged.catalog);

  std::vector<db::Row> tombstones;
  if (!drop_tombstones) {
    for (const auto* seg : {&older, &newer}) {
      for (const db::Row& id : seg->tombstones()) {
        if (!defs.contains(id)) tombstones.push_back(id);
      }
    }
  }
  return MakeSegment(std::move(merged), std::move(tombstones));
}

}  // namespace dash::core
