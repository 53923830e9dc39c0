// Reference top-k walk (paper Section VI-B, Algorithm 1), written to be
// obviously right rather than fast: the oracle IndexSnapshot::Search is
// compared against byte for byte.
//
// It seeds eagerly, as Algorithm 1 is written — every relevant fragment is
// scored and the seeds fully sorted before the first pop — and it
// recomputes each page's occurrences, size and expansion frontier from its
// member list whenever it needs them. The walk's decisions are the ones
// core/topk_search.h documents:
//   * pop order: score descending, ties to the lexicographically smaller
//     member list (a seed is the one-member page {f});
//   * `max_seeds` keeps only the first max_seeds seeds of that order;
//   * a popped page overlapping an output page is discarded;
//   * a page of >= s words, or with no graph neighbor outside it, is
//     output; otherwise it grows by its best neighbor — relevant first,
//     then higher score, then smaller handle — a relevant neighbor's own
//     seed is dropped, and a member set already queued is not queued
//     again;
//   * the output is sorted by score descending, then member list.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/index_snapshot.h"

namespace dash::testing {

// Terms resolve through snapshot.GatherTerm(token, slice), whose postings
// (not its seed order) are all the walk reads; it reclaims this thread's
// gather scratch before and after.
std::vector<core::SearchResult> ReferenceSearch(
    const core::IndexSnapshot& snapshot,
    const std::vector<std::string>& keywords, int k,
    std::uint64_t min_page_words, std::size_t max_seeds = 0,
    core::ShardSlice slice = {});

}  // namespace dash::testing
